package main

import (
	"math"
	"sort"
)

// Quantiles are computed from the raw samples, never from obs.Histogram:
// its power-of-two buckets can overstate a p95 by up to 2×.

// minBeyond is how many samples a reported percentile needs above its rank.
const minBeyond = 10

// rank returns the 1-based nearest rank of quantile q among n samples:
// ⌈q·n⌉, clamped to [1, n]. The epsilon keeps 0.9·100 at rank 90 despite
// binary rounding.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// nearestRank returns the q-quantile of sorted samples by the nearest-rank
// rule: the smallest sample with at least ⌈q·n⌉ samples at or below it.
// It returns NaN for no samples.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// reportable reports whether the q-quantile of n samples has at least
// minBeyond samples above its rank, the least a percentile needs before it
// says more about the system than about its few worst samples.
func reportable(q float64, n int) bool {
	return n > 0 && n-rank(q, n) >= minBeyond
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank p50 of unsorted samples.
func median(xs []float64) float64 { return nearestRank(sorted(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// default), so the compare tool reads spreads the same way as anyone
// checking the runs with that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
