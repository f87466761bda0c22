package ann

// Large-scale acceptance test for the sublinear indexes: on a 10⁵-element
// clustered signature set, HNSW and IVF must reach ≥ 0.9 recall@10 while
// answering queries ≥ 10× faster than the exact flat scan. Under -race the
// set shrinks to 2·10⁴ and the speedup floor relaxes (the race runtime
// taxes the graph walk's pointer chasing far more than the flat scan's
// linear sweep).

import (
	"math/rand"
	"testing"
	"time"

	"collabscope/internal/linalg"
)

// clusteredDense draws n points around c unit-scale Gaussian centroids
// with within-cluster spread, row i around centroid i mod c.
func clusteredDense(n, dim, c int, spread float64, seed int64) (*linalg.Dense, error) {
	rng := rand.New(rand.NewSource(seed))
	centroids := linalg.NewDense(c, dim)
	for i := 0; i < c; i++ {
		row := centroids.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	x := linalg.NewDense(n, dim)
	for i := 0; i < n; i++ {
		cen := centroids.RowView(i % c)
		row := x.RowView(i)
		for j := range row {
			row[j] = cen[j] + spread*rng.NormFloat64()
		}
	}
	return x, nil
}

func TestSublinearIndexesRecallAndSpeedupAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale index test skipped in -short mode")
	}
	n, minSpeedup := 100_000, 10.0
	if raceEnabled {
		n, minSpeedup = 20_000, 2.0
	}
	const dim, k, nq = 32, 10, 200
	x, err := clusteredDense(n, dim, 256, 0.2, 51)
	if err != nil {
		t.Fatal(err)
	}
	// Queries: perturbed copies of indexed rows — the re-lookup workload of
	// the LSH matcher and the blocking stage.
	rng := rand.New(rand.NewSource(52))
	queries := linalg.NewDense(nq, dim)
	for i := 0; i < nq; i++ {
		src := x.RowView(rng.Intn(n))
		row := queries.RowView(i)
		for j := range row {
			row[j] = src[j] + 0.05*rng.NormFloat64()
		}
	}

	flat := NewFlatIndex(x)
	hnsw, err := NewHNSWIndex(x, HNSWConfig{M: 12, EfConstruction: 80, EfSearch: 64, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	ivf, err := NewIVFIndex(x, IVFConfig{NLists: 512, NProbe: 4, MaxIter: 30, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}

	flatNS := queryNS(flat, queries, k)
	for _, tc := range []struct {
		name string
		idx  Index
	}{
		{"hnsw", hnsw},
		{"ivf", ivf},
	} {
		r, err := Recall(flat, tc.idx, queries, k)
		if err != nil {
			t.Fatal(err)
		}
		if r < 0.9 {
			t.Errorf("%s: recall@%d = %.3f on n=%d, want ≥ 0.9", tc.name, k, r, n)
		}
		approxNS := queryNS(tc.idx, queries, k)
		speedup := float64(flatNS) / float64(approxNS)
		t.Logf("%s: n=%d recall@%d=%.3f flat=%v approx=%v speedup=%.1f×",
			tc.name, n, k, r, time.Duration(flatNS), time.Duration(approxNS), speedup)
		if speedup < minSpeedup {
			t.Errorf("%s: query speedup %.1f× over FlatIndex, want ≥ %.0f×", tc.name, speedup, minSpeedup)
		}
	}
}

// queryNS times one warmed SearchInto pass over the query rows.
func queryNS(idx Index, queries *linalg.Dense, k int) int64 {
	var sc Scratch
	var dst []Neighbor
	for q := 0; q < queries.Rows(); q++ { // warmup pass
		dst = idx.SearchInto(queries.RowView(q), k, dst, &sc)
	}
	start := time.Now()
	for q := 0; q < queries.Rows(); q++ {
		dst = idx.SearchInto(queries.RowView(q), k, dst, &sc)
	}
	return time.Since(start).Nanoseconds()
}
