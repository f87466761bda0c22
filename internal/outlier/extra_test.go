package outlier

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"collabscope/internal/linalg"
)

func TestKNNDistanceFlagsOutlier(t *testing.T) {
	x := clusterWithOutlier(30, 4, 11)
	assertOutlierLast(t, "knn", mustScores(KNNDistance{K: 5}, x))
}

func TestKNNDistanceEdgeCases(t *testing.T) {
	one := linalg.FromRows([][]float64{{1, 2}})
	if got := mustScores(KNNDistance{}, one); got[0] != 0 {
		t.Fatalf("single point = %v", got)
	}
	// K clamps to n−1.
	three := linalg.FromRows([][]float64{{0, 0}, {1, 0}, {2, 0}})
	scores := mustScores(KNNDistance{K: 50}, three)
	if len(scores) != 3 {
		t.Fatalf("len = %d", len(scores))
	}
}

func TestMahalanobisFlagsOutlier(t *testing.T) {
	x := clusterWithOutlier(40, 5, 13)
	assertOutlierLast(t, "mahalanobis", mustScores(Mahalanobis{}, x))
}

func TestMahalanobisDirectionSensitive(t *testing.T) {
	// Points stretched along one axis: a deviation along the narrow axis
	// is more anomalous than the same deviation along the wide axis.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 100)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 0.1}
	}
	wide := append(append([][]float64{}, rows...), []float64{8, 0})
	narrow := append(append([][]float64{}, rows...), []float64{0, 8})
	sWide := mustScores(Mahalanobis{Shrinkage: 0.01}, linalg.FromRows(wide))
	sNarrow := mustScores(Mahalanobis{Shrinkage: 0.01}, linalg.FromRows(narrow))
	if sNarrow[100] <= sWide[100] {
		t.Fatalf("narrow-axis deviation %v should beat wide-axis %v", sNarrow[100], sWide[100])
	}
}

func TestMahalanobisDegenerate(t *testing.T) {
	if got := mustScores(Mahalanobis{}, linalg.NewDense(0, 3)); len(got) != 0 {
		t.Fatalf("empty = %v", got)
	}
	// All-identical points: zero variance, all scores 0, no NaN.
	same := linalg.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}})
	for _, s := range mustScores(Mahalanobis{}, same) {
		if math.IsNaN(s) || s != 0 {
			t.Fatalf("identical points score = %v", s)
		}
	}
}

func TestIsolationForestFlagsOutlier(t *testing.T) {
	x := clusterWithOutlier(60, 4, 17)
	scores := mustScores(IsolationForest{Trees: 50, Seed: 1}, x)
	assertOutlierLast(t, "iforest", scores)
	for _, s := range scores {
		if s <= 0 || s >= 1 {
			t.Fatalf("score %v outside (0,1)", s)
		}
	}
}

func TestIsolationForestDeterministic(t *testing.T) {
	x := clusterWithOutlier(20, 3, 19)
	a := mustScores(IsolationForest{Trees: 20, Seed: 7}, x)
	b := mustScores(IsolationForest{Trees: 20, Seed: 7}, x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical scores")
		}
	}
}

func TestIsolationForestDegenerate(t *testing.T) {
	if got := mustScores(IsolationForest{}, linalg.NewDense(0, 2)); len(got) != 0 {
		t.Fatalf("empty = %v", got)
	}
	same := linalg.FromRows([][]float64{{2, 2}, {2, 2}, {2, 2}, {2, 2}})
	scores := mustScores(IsolationForest{Trees: 10, Seed: 2}, same)
	// Identical points are unsplittable; scores are equal and finite.
	for _, s := range scores {
		if math.IsNaN(s) || s != scores[0] {
			t.Fatalf("identical points scores = %v", scores)
		}
	}
}

func TestExtraDetectorNames(t *testing.T) {
	if (KNNDistance{}).Name() != "kNN(k=10)" {
		t.Fatal("knn name")
	}
	if (Mahalanobis{}).Name() != "Mahalanobis" {
		t.Fatal("mahalanobis name")
	}
	if (IsolationForest{}).Name() != "IsolationForest" {
		t.Fatal("iforest name")
	}
}

func TestAvgPathLength(t *testing.T) {
	if avgPathLength(1) != 0 || avgPathLength(0) != 0 {
		t.Fatal("degenerate c(n)")
	}
	// c(n) grows logarithmically and is positive for n ≥ 2.
	prev := 0.0
	for _, n := range []int{2, 4, 16, 256} {
		c := avgPathLength(n)
		if c <= prev {
			t.Fatalf("c(%d) = %v not increasing", n, c)
		}
		prev = c
	}
}

// Property: the extra detectors return finite, non-negative scores for any
// input.
func TestExtraScoresWellFormedProperty(t *testing.T) {
	detectors := []Detector{KNNDistance{K: 3}, Mahalanobis{}, IsolationForest{Trees: 10, Seed: 1}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, dim := 2+r.Intn(15), 1+r.Intn(5)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
