package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sampleSweep builds a three-point sweep with known confusion matrices:
// strict (few positives, precise), balanced, loose (everything positive).
func sampleSweep() []SweepEntry {
	strict := Confusion{TP: 2, FP: 0, TN: 10, FN: 8}
	mid := Confusion{TP: 6, FP: 2, TN: 8, FN: 4}
	loose := Confusion{TP: 10, FP: 10, TN: 0, FN: 0}
	return []SweepEntry{
		{Param: 1.0, Confusion: strict},
		{Param: 0.5, Confusion: mid},
		{Param: 0.1, Confusion: loose},
	}
}

func TestSweepCurves(t *testing.T) {
	entries := sampleSweep()

	f1 := F1Curve(entries)
	if len(f1) != 3 || f1[0].X != 1.0 || f1[2].X != 0.1 {
		t.Fatalf("F1Curve = %v", f1)
	}
	for i, p := range f1 {
		want := entries[i].Confusion.F1()
		if p.Y != want {
			t.Fatalf("F1Curve[%d] = %v, want %v", i, p.Y, want)
		}
	}
}

func TestROCAndPRPoints(t *testing.T) {
	entries := sampleSweep()
	roc := ROCPoints(entries)
	if len(roc) != 3 {
		t.Fatalf("ROCPoints = %v", roc)
	}
	// Strict: FPR 0, TPR 0.2; loose: FPR 1, TPR 1.
	if roc[0].X != 0 || roc[0].Y != 0.2 || roc[2].X != 1 || roc[2].Y != 1 {
		t.Fatalf("ROCPoints = %v", roc)
	}
	pr := PRPoints(entries)
	if pr[0].X != 0.2 || pr[0].Y != 1.0 {
		t.Fatalf("PRPoints = %v", pr)
	}
}

func TestSummarize(t *testing.T) {
	entries := sampleSweep()
	sum := Summarize(entries, 0.001)
	if sum.AUCF1 <= 0 || sum.AUCF1 > 1 {
		t.Fatalf("AUC-F1 = %v", sum.AUCF1)
	}
	// ROC runs (0,0) → (0,0.2) → (0.2,0.6) → (1,1): clearly above chance.
	if sum.AUCROC <= 0.5 {
		t.Fatalf("AUC-ROC = %v", sum.AUCROC)
	}
	if sum.AUCROCp < sum.AUCROC-1e-9 || sum.AUCROCp > 1 {
		t.Fatalf("AUC-ROC' = %v vs AUC-ROC %v", sum.AUCROCp, sum.AUCROC)
	}
	// PR anchored at (0,1): area in (0.5, 1] for this precise sweep.
	if sum.AUCPR <= 0.5 || sum.AUCPR > 1 {
		t.Fatalf("AUC-PR = %v", sum.AUCPR)
	}
}

func TestEnvelope(t *testing.T) {
	pts := []Point{{0.5, 0.3}, {0.2, 0.9}, {0.5, 0.7}, {0.8, 0.1}, {0.2, 0.4}}
	env := Envelope(pts)
	want := []Point{{0.2, 0.9}, {0.5, 0.7}, {0.8, 0.1}}
	if len(env) != len(want) {
		t.Fatalf("Envelope = %v", env)
	}
	for i := range want {
		if env[i] != want[i] {
			t.Fatalf("Envelope = %v, want %v", env, want)
		}
	}
	// Unlike Monotone, Y may decrease.
	if env[2].Y >= env[1].Y {
		t.Fatal("envelope should preserve decreasing precision")
	}
	if Envelope(nil) != nil {
		t.Fatal("empty envelope should be nil")
	}
}

func TestRateZeroDenominator(t *testing.T) {
	// Exercised through a sweep with no negatives: FPR must be 0, not NaN.
	c := Confusion{TP: 3, FN: 1}
	if c.FPR() != 0 {
		t.Fatalf("FPR = %v", c.FPR())
	}
	// And through ROC-from-scores with single-class labels.
	roc := ROCFromScores([]float64{3, 2, 1}, []bool{true, true, true})
	for _, p := range roc {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatalf("NaN in ROC %v", roc)
		}
	}
}

// Interval is a percentile bootstrap confidence interval around a point
// estimate.
type Interval struct {
	Point, Low, High float64
}

// BootstrapAUCROC estimates a percentile confidence interval for the
// AUC-ROC of a continuous score by resampling the (score, label) pairs with
// replacement. level is the confidence level (e.g. 0.95), rounds the number
// of bootstrap resamples (e.g. 1000). Resamples that lack one of the two
// classes are skipped; with single-class input the interval degenerates to
// the point estimate.
func BootstrapAUCROC(scores []float64, labels []bool, rounds int, level float64, seed int64) Interval {
	point := TrapezoidAUC(ROCFromScores(scores, labels))
	out := Interval{Point: point, Low: point, High: point}
	n := len(scores)
	if n == 0 || rounds <= 0 || level <= 0 || level >= 1 {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	var samples []float64
	rs := make([]float64, n)
	rl := make([]bool, n)
	for b := 0; b < rounds; b++ {
		pos := false
		neg := false
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			rs[i] = scores[j]
			rl[i] = labels[j]
			if rl[i] {
				pos = true
			} else {
				neg = true
			}
		}
		if !pos || !neg {
			continue
		}
		samples = append(samples, TrapezoidAUC(ROCFromScores(rs, rl)))
	}
	if len(samples) == 0 {
		return out
	}
	sort.Float64s(samples)
	alpha := (1 - level) / 2
	out.Low = quantile(samples, alpha)
	out.High = quantile(samples, 1-alpha)
	return out
}

// quantile returns the q-th sample quantile of sorted values by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func TestBootstrapAUCROC(t *testing.T) {
	// A strong classifier: the interval brackets the point estimate and
	// stays above chance.
	n := 200
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		labels[i] = i%2 == 0
		if labels[i] {
			scores[i] = 1 + float64(i%10)/10
		} else {
			scores[i] = float64(i%10) / 10
		}
	}
	iv := BootstrapAUCROC(scores, labels, 500, 0.95, 1)
	if iv.Low > iv.Point || iv.Point > iv.High {
		t.Fatalf("interval does not bracket point: %+v", iv)
	}
	if iv.Low <= 0.5 {
		t.Fatalf("strong classifier CI low = %v, want > 0.5", iv.Low)
	}
	if iv.High > 1+1e-9 {
		t.Fatalf("CI high = %v", iv.High)
	}
	// Deterministic under the same seed.
	again := BootstrapAUCROC(scores, labels, 500, 0.95, 1)
	if again != iv {
		t.Fatal("same seed must give the same interval")
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	// Empty input and single-class input degenerate to the point estimate.
	if iv := BootstrapAUCROC(nil, nil, 100, 0.95, 1); iv.Low != iv.High {
		t.Fatalf("empty = %+v", iv)
	}
	scores := []float64{1, 2, 3}
	labels := []bool{true, true, true}
	iv := BootstrapAUCROC(scores, labels, 100, 0.95, 1)
	if iv.Low != iv.Point || iv.High != iv.Point {
		t.Fatalf("single-class = %+v", iv)
	}
	// Invalid level: degenerate.
	if iv := BootstrapAUCROC(scores, labels, 100, 1.5, 1); iv.Low != iv.Point {
		t.Fatalf("invalid level = %+v", iv)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if q := quantile(sorted, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := quantile(sorted, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := quantile(sorted, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile([]float64{7}, 0.3); q != 7 {
		t.Fatalf("single = %v", q)
	}
}
