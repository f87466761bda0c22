package ann

// Shared conformance suite for every Index implementation: deterministic
// rebuilds at a fixed seed, SearchInto ≡ Search, alloc-free SearchInto
// steady state, hit-ordering invariants, and degenerate inputs.

import (
	"math"
	"testing"

	"collabscope/internal/linalg"
)

// builders enumerates every backend under its conformance parameters.
func builders(t *testing.T) map[string]func(x *linalg.Dense) Index {
	t.Helper()
	mk := func(cfg Config) func(x *linalg.Dense) Index {
		return func(x *linalg.Dense) Index {
			idx, err := Build(x, cfg)
			if err != nil {
				t.Fatalf("Build(%+v): %v", cfg, err)
			}
			return idx
		}
	}
	return map[string]func(x *linalg.Dense) Index{
		"flat": mk(Config{}),
		"lsh":  mk(Config{Kind: KindLSH, Tables: 6, Bits: 8, Seed: 11}),
		"hnsw": mk(Config{Kind: KindHNSW, M: 8, EfConstruction: 60, EfSearch: 40, Seed: 11}),
		"ivf":  mk(Config{Kind: KindIVF, NLists: 12, NProbe: 4, Seed: 11}),
	}
}

func TestIndexConformanceSearchIntoMatchesSearch(t *testing.T) {
	x := randomData(250, 12, 17)
	queries := randomData(20, 12, 18)
	for name, build := range builders(t) {
		idx := build(x)
		var sc Scratch
		var dst []Neighbor
		for q := 0; q < queries.Rows(); q++ {
			row := queries.RowView(q)
			want := idx.Search(row, 7)
			dst = idx.SearchInto(row, 7, dst, &sc)
			if len(dst) != len(want) {
				t.Fatalf("%s query %d: SearchInto len %d, Search len %d", name, q, len(dst), len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("%s query %d hit %d: SearchInto %+v, Search %+v", name, q, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestIndexConformanceDeterministicRebuild(t *testing.T) {
	x := randomData(300, 10, 23)
	queries := randomData(25, 10, 24)
	for name, build := range builders(t) {
		a, b := build(x), build(x)
		for q := 0; q < queries.Rows(); q++ {
			row := queries.RowView(q)
			ha, hb := a.Search(row, 10), b.Search(row, 10)
			if len(ha) != len(hb) {
				t.Fatalf("%s query %d: rebuild lengths %d vs %d", name, q, len(ha), len(hb))
			}
			for i := range ha {
				if ha[i] != hb[i] {
					t.Fatalf("%s query %d hit %d: rebuild %+v vs %+v — build must be seed-deterministic",
						name, q, i, ha[i], hb[i])
				}
			}
		}
	}
}

func TestIndexConformanceAllocFreeSearchInto(t *testing.T) {
	x := randomData(400, 16, 29)
	queries := randomData(8, 16, 30)
	for name, build := range builders(t) {
		idx := build(x)
		var sc Scratch
		var dst []Neighbor
		// Warm every query's buffers, then demand a 0-alloc steady state.
		for q := 0; q < queries.Rows(); q++ {
			dst = idx.SearchInto(queries.RowView(q), 10, dst, &sc)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			for q := 0; q < queries.Rows(); q++ {
				dst = idx.SearchInto(queries.RowView(q), 10, dst, &sc)
			}
		}); allocs != 0 {
			t.Errorf("%s: SearchInto allocs/op = %v, want 0 after warmup", name, allocs)
		}
	}
}

func TestIndexConformanceHitInvariants(t *testing.T) {
	x := randomData(180, 8, 31)
	queries := randomData(15, 8, 32)
	for name, build := range builders(t) {
		idx := build(x)
		if idx.Len() != 180 {
			t.Fatalf("%s: Len = %d", name, idx.Len())
		}
		for q := 0; q < queries.Rows(); q++ {
			row := queries.RowView(q)
			hits := idx.Search(row, 9)
			if len(hits) > 9 {
				t.Fatalf("%s: %d hits for k=9", name, len(hits))
			}
			seen := map[int]bool{}
			for i, h := range hits {
				if h.Index < 0 || h.Index >= 180 {
					t.Fatalf("%s: hit index %d out of range", name, h.Index)
				}
				if seen[h.Index] {
					t.Fatalf("%s: duplicate hit index %d", name, h.Index)
				}
				seen[h.Index] = true
				if want := linalg.SquaredDistance(row, x.RowView(h.Index)); h.Distance != want {
					t.Fatalf("%s: hit %d distance %v, exact %v", name, i, h.Distance, want)
				}
				if i > 0 && (hits[i-1].Distance > h.Distance ||
					(hits[i-1].Distance == h.Distance && hits[i-1].Index > h.Index)) {
					t.Fatalf("%s: hits not in ascending (distance, index) order at %d: %+v", name, i, hits)
				}
			}
		}
	}
}

func TestIndexConformanceDegenerateInputs(t *testing.T) {
	small := randomData(5, 4, 37)
	empty := linalg.NewDense(0, 4)
	for name, build := range builders(t) {
		idx := build(small)
		if got := idx.Search(small.Row(0), 0); len(got) != 0 {
			t.Fatalf("%s: k=0 returned %d hits", name, len(got))
		}
		if got := idx.Search(small.Row(0), -3); len(got) != 0 {
			t.Fatalf("%s: negative k returned %d hits", name, len(got))
		}
		// k > n: approximate indexes may legitimately return fewer hits,
		// but at n=5 every backend's candidate set covers all rows.
		if got := idx.Search(small.Row(0), 99); len(got) != 5 {
			t.Fatalf("%s: k>n returned %d hits, want 5", name, len(got))
		}
		eidx := build(empty)
		if eidx.Len() != 0 {
			t.Fatalf("%s: empty Len = %d", name, eidx.Len())
		}
		if got := eidx.Search(small.Row(0), 3); len(got) != 0 {
			t.Fatalf("%s: empty index returned %d hits", name, len(got))
		}
	}
}

// TestIndexConformanceSelfRecall: querying with the indexed vectors
// themselves, every backend must find the identical row as the top hit and
// keep high recall at k=10 on clustered data.
func TestIndexConformanceSelfRecall(t *testing.T) {
	x := clusteredData(t, 1200, 16, 20, 41)
	flat := NewFlatIndex(x)
	queries := linalg.NewDense(60, 16)
	for i := 0; i < 60; i++ {
		copy(queries.RowView(i), x.RowView(i*20))
	}
	for name, build := range builders(t) {
		idx := build(x)
		r, err := Recall(flat, idx, queries, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r < 0.9 {
			t.Errorf("%s: recall@10 = %.3f, want ≥ 0.9", name, r)
		}
	}
}

// TestNaNFreeDistancePrecondition pins the documented precondition of the
// package: for NaN-free inputs, every distance an index ranks is NaN-free
// (±Inf included), so the linalg.TopKInto ordering contract holds at all
// ann call sites.
func TestNaNFreeDistancePrecondition(t *testing.T) {
	x := linalg.FromRows([][]float64{
		{0, 0}, {1, math.MaxFloat64}, {-math.MaxFloat64, 2}, {3, 4}, {5, 6},
	})
	q := []float64{math.MaxFloat64, -math.MaxFloat64} // distances overflow to +Inf
	for name, build := range builders(t) {
		idx := build(x)
		for _, h := range idx.Search(q, 5) {
			if math.IsNaN(h.Distance) {
				t.Fatalf("%s: NaN distance from finite inputs — TopKInto precondition violated", name)
			}
		}
	}
}

// clusteredData draws points around c Gaussian centroids — the regime ANN
// indexes are built for (and what signature sets look like).
func clusteredData(t testing.TB, n, dim, c int, seed int64) *linalg.Dense {
	t.Helper()
	x, err := clusteredDense(n, dim, c, 0.15, seed)
	if err != nil {
		t.Fatal(err)
	}
	return x
}
