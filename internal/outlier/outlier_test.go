package outlier

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"collabscope/internal/linalg"
)

// clusterWithOutlier returns points around the origin plus one far point
// (the last row).
func clusterWithOutlier(n, dim int, seed int64) *linalg.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewDense(n+1, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64()*0.1)
		}
	}
	for j := 0; j < dim; j++ {
		x.Set(n, j, 5)
	}
	return x
}

func assertOutlierLast(t *testing.T, name string, scores []float64) {
	t.Helper()
	last := scores[len(scores)-1]
	for i := 0; i < len(scores)-1; i++ {
		if scores[i] >= last {
			t.Fatalf("%s: inlier %d score %v >= outlier score %v", name, i, scores[i], last)
		}
	}
}

// mustScores scores x with d on GOMAXPROCS workers, panicking on error so
// each call stays one expression.
func mustScores(d Detector, x *linalg.Dense) []float64 {
	scores, err := d.Scores(context.Background(), 0, x)
	if err != nil {
		panic(err)
	}
	return scores
}

func TestZScoreFlagsOutlier(t *testing.T) {
	x := clusterWithOutlier(30, 4, 1)
	assertOutlierLast(t, "zscore", mustScores(ZScore{}, x))
}

func TestZScoreEdgeCases(t *testing.T) {
	if got := mustScores(ZScore{}, linalg.NewDense(0, 3)); len(got) != 0 {
		t.Fatalf("empty scores = %v", got)
	}
	// Constant column (zero stddev) must not produce NaN.
	x := linalg.FromRows([][]float64{{1, 5}, {2, 5}, {3, 5}})
	for _, s := range mustScores(ZScore{}, x) {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("non-finite score %v", s)
		}
	}
}

func TestLOFFlagsOutlier(t *testing.T) {
	x := clusterWithOutlier(30, 4, 2)
	scores := mustScores(LOF{Neighbors: 5}, x)
	assertOutlierLast(t, "lof", scores)
	// Inliers in a uniform cluster score near 1.
	for i := 0; i < len(scores)-1; i++ {
		if scores[i] < 0.5 || scores[i] > 2 {
			t.Fatalf("inlier LOF = %v, want ≈ 1", scores[i])
		}
	}
}

func TestLOFSmallInputs(t *testing.T) {
	// Single point: score 1 by convention.
	one := linalg.FromRows([][]float64{{1, 2}})
	if got := mustScores(LOF{}, one); got[0] != 1 {
		t.Fatalf("single point LOF = %v", got)
	}
	// k clipped to n−1.
	three := linalg.FromRows([][]float64{{0, 0}, {0.1, 0}, {5, 5}})
	scores := mustScores(LOF{Neighbors: 20}, three)
	if len(scores) != 3 {
		t.Fatalf("len = %d", len(scores))
	}
	// Duplicate points (zero distances) must stay finite.
	dup := linalg.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	for _, s := range mustScores(LOF{Neighbors: 2}, dup) {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("duplicate-point LOF = %v", s)
		}
	}
}

func TestPCAFlagsOffSubspacePoint(t *testing.T) {
	// Inliers on a 1-d line in 3-d; outlier off the line but with similar
	// norm, which Z-score alone would miss.
	rows := [][]float64{}
	for i := -10; i <= 10; i++ {
		v := float64(i)
		rows = append(rows, []float64{v, v, v})
	}
	rows = append(rows, []float64{6, -6, 0})
	x := linalg.FromRows(rows)
	scores := mustScores(PCA{Variance: 0.9}, x)
	assertOutlierLast(t, "pca", scores)
}

func TestPCADefaultsAndEmpty(t *testing.T) {
	if got := mustScores(PCA{Variance: 0.5}, linalg.NewDense(0, 3)); got != nil {
		t.Fatalf("empty = %v", got)
	}
	// Out-of-range variance falls back to 0.5 without panicking.
	x := clusterWithOutlier(10, 3, 3)
	if got := mustScores(PCA{Variance: -1}, x); len(got) != 11 {
		t.Fatalf("len = %d", len(got))
	}
}

func TestAutoencoderFlagsOutlier(t *testing.T) {
	x := clusterWithOutlier(25, 6, 4)
	scores := mustScores(Autoencoder{
		Hidden: []int{4, 2, 4}, Models: 3, Epochs: 60, Seed: 1,
	}, x)
	assertOutlierLast(t, "autoencoder", scores)
}

func TestDetectorNames(t *testing.T) {
	cases := map[string]Detector{
		"Z-Score":     ZScore{},
		"LOF(n=20)":   LOF{},
		"LOF(n=5)":    LOF{Neighbors: 5},
		"PCA(v=0.50)": PCA{Variance: 0.5},
		"Autoencoder": Autoencoder{},
	}
	for want, d := range cases {
		if d.Name() != want {
			t.Errorf("Name = %q, want %q", d.Name(), want)
		}
	}
}

// Property: all detectors return one finite, non-negative score per row.
func TestScoresWellFormedProperty(t *testing.T) {
	detectors := []Detector{ZScore{}, LOF{Neighbors: 3}, PCA{Variance: 0.7}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, dim := 2+r.Intn(15), 1+r.Intn(6)
		x := linalg.NewDense(n, dim)
		for i := 0; i < n; i++ {
			for j := 0; j < dim; j++ {
				x.Set(i, j, r.NormFloat64())
			}
		}
		for _, d := range detectors {
			scores := mustScores(d, x)
			if len(scores) != n {
				return false
			}
			for _, s := range scores {
				if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultHidden(t *testing.T) {
	h := defaultHidden(768)
	if h[0] != 100 || h[1] != 10 || h[2] != 100 {
		t.Fatalf("defaultHidden(768) = %v", h)
	}
	h = defaultHidden(16)
	if h[0] < 8 || h[1] < 2 {
		t.Fatalf("defaultHidden(16) = %v", h)
	}
}

func BenchmarkZScore(b *testing.B)  { benchDetector(b, ZScore{}) }
func BenchmarkLOF(b *testing.B)     { benchDetector(b, LOF{Neighbors: 20}) }
func BenchmarkPCAODA(b *testing.B)  { benchDetector(b, PCA{Variance: 0.5}) }
func BenchmarkIForest(b *testing.B) { benchDetector(b, IsolationForest{Trees: 50, Seed: 1}) }

func benchDetector(b *testing.B, d Detector) {
	x := clusterWithOutlier(100, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Scores(context.Background(), 0, x)
	}
}
