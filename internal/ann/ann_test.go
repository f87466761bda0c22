package ann

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"collabscope/internal/linalg"
	"collabscope/internal/obs"
)

// Recall computes the fraction of exact top-k neighbours that an index
// retrieves, averaged over the rows of queries — a quality probe for
// approximate indexes. Degenerate measurements (no queries, k ≤ 0, an
// empty exact index) return an error instead of NaN, so a recall number is
// always a finite, comparable value.
func Recall(exact, approx Index, queries *linalg.Dense, k int) (float64, error) {
	if queries == nil || queries.Rows() == 0 {
		return 0, fmt.Errorf("ann: recall needs at least one query row")
	}
	if k <= 0 {
		return 0, fmt.Errorf("ann: recall needs k > 0, got %d", k)
	}
	if exact.Len() == 0 {
		return 0, fmt.Errorf("ann: recall against an empty exact index")
	}
	var hits, total int
	var sc Scratch
	var exactDst, approxDst []Neighbor
	truth := map[int]bool{}
	for q := 0; q < queries.Rows(); q++ {
		row := queries.RowView(q)
		clear(truth)
		exactDst = exact.SearchInto(row, k, exactDst, &sc)
		for _, n := range exactDst {
			truth[n.Index] = true
		}
		approxDst = approx.SearchInto(row, k, approxDst, &sc)
		for _, n := range approxDst {
			if truth[n.Index] {
				hits++
			}
		}
		total += len(truth)
	}
	if total == 0 {
		return 0, nil
	}
	return float64(hits) / float64(total), nil
}

func randomData(n, dim int, seed int64) *linalg.Dense {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewDense(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	return x
}

func TestFlatIndexExactness(t *testing.T) {
	x := linalg.FromRows([][]float64{{0, 0}, {1, 0}, {5, 5}, {0.5, 0}})
	idx := NewFlatIndex(x)
	if idx.Len() != 4 {
		t.Fatalf("Len = %d", idx.Len())
	}
	hits := idx.Search([]float64{0.1, 0}, 2)
	if len(hits) != 2 || hits[0].Index != 0 || hits[1].Index != 3 {
		t.Fatalf("hits = %+v", hits)
	}
	if hits[0].Distance > hits[1].Distance {
		t.Fatal("hits not sorted by distance")
	}
}

func TestFlatIndexEdgeCases(t *testing.T) {
	x := randomData(3, 2, 1)
	idx := NewFlatIndex(x)
	if got := idx.Search([]float64{0, 0}, 0); got != nil {
		t.Fatalf("k=0 hits = %v", got)
	}
	if got := idx.Search([]float64{0, 0}, 10); len(got) != 3 {
		t.Fatalf("k>n hits = %d", len(got))
	}
	empty := NewFlatIndex(linalg.NewDense(0, 2))
	if got := empty.Search([]float64{0, 0}, 5); got != nil {
		t.Fatalf("empty index hits = %v", got)
	}
}

func TestLSHIndexFindsNearDuplicates(t *testing.T) {
	x := randomData(200, 16, 2)
	idx, err := NewLSHIndex(x, LSHConfig{Tables: 10, Bits: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 200 {
		t.Fatalf("Len = %d", idx.Len())
	}
	// Query with a tiny perturbation of an indexed vector: the original
	// must be the top hit.
	q := x.Row(42)
	q[0] += 1e-6
	hits := idx.Search(q, 1)
	if len(hits) != 1 || hits[0].Index != 42 {
		t.Fatalf("hits = %+v, want row 42", hits)
	}
}

func TestLSHValidation(t *testing.T) {
	x := randomData(5, 4, 1)
	if _, err := NewLSHIndex(x, LSHConfig{Bits: 100}); err == nil {
		t.Fatal(">64 bits should fail")
	}
	idx, err := NewLSHIndex(x, LSHConfig{}) // defaults
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Search(x.Row(0), 0); got != nil {
		t.Fatalf("k=0 = %v", got)
	}
}

func TestLSHFallbackGuaranteesK(t *testing.T) {
	// With very selective hashes most buckets are singletons; the fallback
	// must still return k results — and every degradation must be counted.
	x := randomData(50, 8, 4)
	reg := obs.NewRegistry()
	idx, _ := NewLSHIndex(x, LSHConfig{Tables: 1, Bits: 20, Seed: 9, Metrics: reg})
	hits := idx.Search(x.Row(0), 10)
	if len(hits) != 10 {
		t.Fatalf("got %d hits, want 10", len(hits))
	}
	if got := reg.Counter("ann.lsh.fallbacks").Value(); got != 1 {
		t.Fatalf("ann.lsh.fallbacks = %d, want 1: a sparse-bucket query must register as a fallback", got)
	}
	// A well-populated query must not count as a fallback.
	dense := obs.NewRegistry()
	idx2, _ := NewLSHIndex(x, LSHConfig{Tables: 8, Bits: 2, Seed: 9, Metrics: dense})
	idx2.Search(x.Row(0), 2)
	if got := dense.Counter("ann.lsh.fallbacks").Value(); got != 0 {
		t.Fatalf("dense-bucket ann.lsh.fallbacks = %d, want 0", got)
	}
}

func TestLSHRecallReasonable(t *testing.T) {
	x := randomData(300, 24, 5)
	flat := NewFlatIndex(x)
	lsh, _ := NewLSHIndex(x, LSHConfig{Tables: 16, Bits: 6, Seed: 6})
	queries := randomData(40, 24, 7)
	r, err := Recall(flat, lsh, queries, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(r) || r < 0.5 {
		t.Fatalf("LSH recall = %v, want ≥ 0.5", r)
	}
}

func TestRecallSelfIsOne(t *testing.T) {
	x := randomData(50, 8, 8)
	flat := NewFlatIndex(x)
	r, err := Recall(flat, flat, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Fatalf("self recall = %v", r)
	}
}

func TestRecallDegenerateCasesError(t *testing.T) {
	x := randomData(50, 8, 8)
	flat := NewFlatIndex(x)
	if _, err := Recall(flat, flat, linalg.NewDense(0, 8), 3); err == nil {
		t.Fatal("no queries must error, not NaN")
	}
	if _, err := Recall(flat, flat, nil, 3); err == nil {
		t.Fatal("nil queries must error")
	}
	if _, err := Recall(flat, flat, x, 0); err == nil {
		t.Fatal("k = 0 must error, not NaN")
	}
	if _, err := Recall(flat, flat, x, -2); err == nil {
		t.Fatal("negative k must error")
	}
	empty := NewFlatIndex(linalg.NewDense(0, 8))
	if _, err := Recall(empty, empty, x, 3); err == nil {
		t.Fatal("empty exact index must error")
	}
	// The error contract exists so a recall value is always finite, and so
	// JSON-encodable.
	if r, err := Recall(flat, flat, x, 3); err != nil || math.IsNaN(r) {
		t.Fatalf("healthy recall = (%v, %v), want finite and nil", r, err)
	}
}

// Property: flat search results are sorted by distance and contain no
// duplicate indices.
func TestFlatSearchInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, dim := 1+r.Intn(40), 1+r.Intn(8)
		x := randomData(n, dim, seed)
		idx := NewFlatIndex(x)
		q := make([]float64, dim)
		for j := range q {
			q[j] = r.NormFloat64()
		}
		k := 1 + r.Intn(n+3)
		hits := idx.Search(q, k)
		seen := map[int]bool{}
		for i, h := range hits {
			if seen[h.Index] {
				return false
			}
			seen[h.Index] = true
			if i > 0 && hits[i-1].Distance > h.Distance {
				return false
			}
		}
		want := k
		if want > n {
			want = n
		}
		return len(hits) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSearchIntoMatchesSearch(t *testing.T) {
	x := randomData(120, 16, 3)
	q := x.RowView(7)
	var sc Scratch
	var dst []Neighbor
	for _, idx := range []Index{NewFlatIndex(x), mustLSH(t, x)} {
		want := idx.Search(q, 9)
		dst = idx.SearchInto(q, 9, dst, &sc)
		if len(dst) != len(want) {
			t.Fatalf("SearchInto len = %d, Search len = %d", len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("hit %d: SearchInto %+v, Search %+v", i, dst[i], want[i])
			}
		}
	}
}

func mustLSH(t *testing.T, x *linalg.Dense) *LSHIndex {
	t.Helper()
	idx, err := NewLSHIndex(x, LSHConfig{Tables: 4, Bits: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestSearchIntoAllocFree(t *testing.T) {
	x := randomData(200, 24, 5)
	q := x.RowView(0)
	flat := NewFlatIndex(x)
	var sc Scratch
	dst := flat.SearchInto(q, 10, nil, &sc) // warm scratch and dst
	if allocs := testing.AllocsPerRun(100, func() {
		dst = flat.SearchInto(q, 10, dst, &sc)
	}); allocs != 0 {
		t.Fatalf("FlatIndex.SearchInto allocs/op = %v, want 0", allocs)
	}

	lsh := mustLSH(t, x)
	dst = lsh.SearchInto(q, 10, dst, &sc)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = lsh.SearchInto(q, 10, dst, &sc)
	}); allocs != 0 {
		t.Fatalf("LSHIndex.SearchInto allocs/op = %v, want 0", allocs)
	}
}
