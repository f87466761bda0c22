package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func statsRandMatrix(rng *rand.Rand, r, c int, offset float64) *Dense {
	m := NewDense(r, c)
	for i := 0; i < r; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64() + offset*float64(j%5)
		}
	}
	return m
}

// relClose reports |a-b| ≤ tol·max(|a|,|b|) with tol as absolute floor.
func relClose(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// assertStatsFitMatches pins the documented exactness contract: the stats
// fit retains the same component count as the from-scratch fit and agrees
// on explained variance, reconstruction errors, and the derived range
// within StatsFitTolerance.
func assertStatsFitMatches(t *testing.T, x *Dense, got *PCA, v float64) {
	t.Helper()
	want, err := FitPCAChecked(1, x, v)
	if err != nil {
		t.Fatalf("from-scratch fit: %v", err)
	}
	if got.NComp != want.NComp {
		t.Fatalf("stats fit retained %d components, from-scratch %d", got.NComp, want.NComp)
	}
	if len(got.Singular) != len(want.Singular) {
		t.Fatalf("stats fit has %d singular values, from-scratch %d", len(got.Singular), len(want.Singular))
	}
	for i := range want.Explained {
		if !relClose(got.Explained[i], want.Explained[i], StatsFitTolerance) {
			t.Fatalf("explained[%d]: stats %v vs from-scratch %v", i, got.Explained[i], want.Explained[i])
		}
	}
	ge, we := got.ReconstructionErrors(x), want.ReconstructionErrors(x)
	var gmax, wmax float64
	for i := range we {
		if !relClose(ge[i], we[i], StatsFitTolerance) {
			t.Fatalf("reconstruction error[%d]: stats %v vs from-scratch %v", i, ge[i], we[i])
		}
		gmax = math.Max(gmax, ge[i])
		wmax = math.Max(wmax, we[i])
	}
	if !relClose(gmax, wmax, StatsFitTolerance) {
		t.Fatalf("linkability range: stats %v vs from-scratch %v", gmax, wmax)
	}
}

// TestIncrementalExactnessShapes pins FitPCAFromStats against
// FitPCAChecked over seeded random shapes — wide (n < d), square and tall —
// each folded into one accumulator.
func TestIncrementalExactnessShapes(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		n, d int
		v    float64
	}{
		{seed: 1, n: 40, d: 12, v: 0.8},
		{seed: 2, n: 60, d: 8, v: 0.95},
		{seed: 3, n: 25, d: 25, v: 0.5},
		{seed: 4, n: 10, d: 30, v: 0.9}, // wide: n < d
		{seed: 5, n: 80, d: 6, v: 1.0},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		x := statsRandMatrix(rng, tc.n, tc.d, 0.5)
		got, err := FitPCAFromStats(AccumulateStats(x), tc.v)
		if err != nil {
			t.Fatalf("seed %d: stats fit: %v", tc.seed, err)
		}
		assertStatsFitMatches(t, x, got, tc.v)
	}
}

// TestIncrementalExactnessUpdateDowndate pins the element add/remove path:
// an accumulator driven through a seeded churn schedule must fit the same
// model (within tolerance) as a from-scratch fit over the surviving rows.
func TestIncrementalExactnessUpdateDowndate(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := 10
		s := NewPCAStats(d)
		var live [][]float64
		add := func(k int) {
			for i := 0; i < k; i++ {
				row := make([]float64, d)
				for j := range row {
					row[j] = rng.NormFloat64() + 0.3*float64(j)
				}
				s.Update(row)
				live = append(live, row)
			}
		}
		remove := func(k int) {
			for i := 0; i < k && len(live) > 3; i++ {
				idx := rng.Intn(len(live))
				if err := s.Downdate(live[idx]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:idx], live[idx+1:]...)
			}
		}
		add(30)
		remove(8)
		add(5)
		remove(12)
		add(9)

		x := FromRows(live)
		got, err := FitPCAFromStats(s, 0.85)
		if err != nil {
			t.Fatalf("seed %d: stats fit after churn: %v", seed, err)
		}
		if s.N != len(live) {
			t.Fatalf("seed %d: accumulator N=%d, live rows %d", seed, s.N, len(live))
		}
		assertStatsFitMatches(t, x, got, 0.85)
	}
}

// TestStatsAccumulationDeterministic pins the fixed accumulation order:
// two accumulators fed the same rows in the same order are bit-identical,
// and the scatter stays exactly symmetric through updates and downdates.
func TestStatsAccumulationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := statsRandMatrix(rng, 20, 9, 0.2)
	a := AccumulateStats(x)
	b := NewPCAStats(9)
	b.UpdateRows(x)
	if a.N != b.N {
		t.Fatalf("N %d vs %d", a.N, b.N)
	}
	for j := range a.Sum {
		if a.Sum[j] != b.Sum[j] {
			t.Fatalf("sum[%d] differs between identical accumulation orders", j)
		}
	}
	for i := range a.Scatter.data {
		if a.Scatter.data[i] != b.Scatter.data[i] {
			t.Fatalf("scatter cell %d differs between identical accumulation orders", i)
		}
	}
	if err := a.Downdate(x.RowView(3)); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 9; j++ {
		for k := j + 1; k < 9; k++ {
			if a.Scatter.At(j, k) != a.Scatter.At(k, j) {
				t.Fatalf("scatter asymmetric at (%d,%d) after downdate", j, k)
			}
		}
	}
}

func TestStatsFitErrors(t *testing.T) {
	if _, err := FitPCAFromStats(NewPCAStats(3), 0.9); err == nil {
		t.Fatal("empty accumulator fit succeeded")
	}
	s := AccumulateStats(FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}}))
	if _, err := FitPCAFromStats(s, 0); err == nil {
		t.Fatal("variance 0 accepted")
	}
	if _, err := FitPCAFromStats(s, 1.5); err == nil {
		t.Fatal("variance 1.5 accepted")
	}
	if err := NewPCAStats(2).Downdate([]float64{1, 2}); err == nil {
		t.Fatal("downdate of empty accumulator succeeded")
	}
	bad := AccumulateStats(FromRows([][]float64{{1, 0}, {0, 1}}))
	bad.Sum[0] = math.NaN()
	if _, err := FitPCAFromStats(bad, 0.9); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("non-finite sum: got %v, want ErrNonFinite", err)
	}
	bad2 := AccumulateStats(FromRows([][]float64{{1, 0}, {0, 1}}))
	bad2.Scatter.Set(0, 1, math.Inf(1))
	if _, err := FitPCAFromStats(bad2, 0.9); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("non-finite scatter: got %v, want ErrNonFinite", err)
	}
	if _, err := (&PCAStats{}).Mean(); err == nil {
		t.Fatal("mean of zero-value accumulator succeeded")
	}
}

// TestStatsFitDegenerate: bit-identical rows collapse the centred scatter
// to zero; the fit must still return a usable (conservative) model, like
// the from-scratch path does.
func TestStatsFitDegenerate(t *testing.T) {
	x := FromRows([][]float64{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}})
	got, err := FitPCAFromStats(AccumulateStats(x), 0.9)
	if err != nil {
		t.Fatalf("degenerate fit: %v", err)
	}
	if got.NComp == 0 {
		t.Fatal("degenerate fit retained no components")
	}
	errs := got.ReconstructionErrors(x)
	for i, e := range errs {
		if e > 1e-18 {
			t.Fatalf("identical rows should reconstruct exactly, row %d error %v", i, e)
		}
	}
}
