package outlier

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"collabscope/internal/linalg"
)

// goldenMatrix builds a deterministic input with exact duplicate rows so
// the goldens exercise zero-distance tie handling in the kernels.
func goldenMatrix(n, d int, seed int64) *linalg.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	copy(m.RowView(n-1), m.RowView(0))
	copy(m.RowView(n-2), m.RowView(1))
	return m
}

const goldenTol = 1e-9

func checkGolden(t *testing.T, name string, got, wantHead []float64, wantSum float64) {
	t.Helper()
	for i, w := range wantHead {
		if math.Abs(got[i]-w) > goldenTol {
			t.Errorf("%s[%d] = %v, want %v", name, i, got[i], w)
		}
	}
	var s float64
	for _, v := range got {
		s += v
	}
	if math.Abs(s-wantSum) > goldenTol {
		t.Errorf("sum(%s) = %v, want %v", name, s, wantSum)
	}
}

// TestDetectorGoldens pins every detector's scores on a fixed input. The
// values were captured from the pre-kernel scalar implementations; the
// blocked-kernel hot paths must reproduce them to within goldenTol (the
// kernels preserve accumulation order, so in practice they match bit-for-bit).
func TestDetectorGoldens(t *testing.T) {
	x := goldenMatrix(40, 24, 7)
	ctx := context.Background()

	lof, err := LOF{Neighbors: 5}.Scores(ctx, 1, x)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "lof", lof, []float64{
		1.0095390297998164, 0.981534940332413, 1.058777701426005, 1.016624861115337,
		1.031109234902085, 1.000332267950761, 1.0776360394314324, 0.9887449336477235,
	}, 41.208322401575955)

	knn, err := KNNDistance{K: 4}.Scores(ctx, 1, x)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "knn", knn, []float64{
		4.135559073030531, 3.975791021139689, 5.841980152320265, 4.554394735833895,
		5.499646230307091, 5.56374567521675, 6.078366680152378, 5.339615664659832,
	}, 216.0415167241447)

	ae, err := Autoencoder{Models: 2, Epochs: 4, Seed: 3}.Scores(ctx, 1, x)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ae", ae, []float64{
		2.2446105999208052, 1.4747837774971075, 2.473380291230999, 1.0363215381254673,
		3.797909098679735, 2.3365903972505686, 3.93042330799304, 3.729130817409605,
	}, 138.44469113131476)

	mah, err := Mahalanobis{}.Scores(ctx, 1, x)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mah", mah, []float64{
		3.927616158302106, 3.3103962803131113, 5.345379344439981, 3.060366636294585,
		4.669846150867043, 4.521491752680554, 5.09579940829887, 4.74927496046215,
	}, 181.9256856949652)
}

// TestDetectorGoldensWorkerInvariance re-runs the kernelized detectors at
// several worker counts; scores must be bit-identical to the single-worker
// run (the row-blocked kernels never split a within-cell reduction).
func TestDetectorGoldensWorkerInvariance(t *testing.T) {
	x := goldenMatrix(40, 24, 7)
	ctx := context.Background()
	base, err := LOF{Neighbors: 5}.Scores(ctx, 1, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7} {
		got, err := LOF{Neighbors: 5}.Scores(ctx, workers, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: lof[%d] = %v, want %v (bit-identical)", workers, i, got[i], base[i])
			}
		}
	}
}
