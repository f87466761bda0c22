// Package ann provides nearest-neighbour indexes over signature vectors:
// an exact flat L2 index (the behaviour of FAISS IndexFlatL2, which the
// paper's "LSH" matcher actually uses), a random-hyperplane
// locality-sensitive-hashing index, an HNSW graph index, and an IVF
// coarse-quantizer index. The approximate indexes trade recall for
// sublinear per-query work, which is what makes 10⁵–10⁶-element signature
// sets searchable at all (ROADMAP item 2).
//
// All indexes run on the internal/linalg kernel layer: per-query distance
// panels plus bounded-heap top-k selection instead of a full sort, and a
// SearchInto variant with caller-owned result and scratch storage so batch
// query loops allocate nothing in steady state.
//
// NaN precondition: indexed vectors and queries must be NaN-free. Every
// index ranks hits through linalg.TopKInto (or the equivalent heap order),
// whose ordering is unspecified for NaN values; a NaN coordinate produces
// NaN distances and therefore unspecified results. ±Inf coordinates are
// fine (distances saturate to +Inf and rank last). The embed encoders only
// emit finite signatures, so pipeline callers satisfy this by construction;
// TestNaNFreeDistancePrecondition pins the finite-input guarantee.
package ann

import (
	"fmt"
	"math/rand"
	"sort"

	"collabscope/internal/linalg"
	"collabscope/internal/obs"
)

// Neighbor is one search hit.
type Neighbor struct {
	// Index is the row index of the hit in the indexed matrix.
	Index int
	// Distance is the squared L2 distance to the query.
	Distance float64
}

// hit is the internal (distance, id) pair the graph and quantizer searches
// rank. The ascending (d, id) order matches linalg.TopKInto's stable
// (value, index) tie-break.
type hit struct {
	d  float64
	id int32
}

// Scratch holds the reusable buffers of SearchInto: the per-row distance
// panel, the top-k heap, candidate lists, and the graph-search heaps and
// visited stamps. The zero value is ready; buffers grow on demand and are
// retained across calls. A Scratch must not be shared between concurrent
// searches.
type Scratch struct {
	dists  []float64
	heap   []int
	cand   []int
	cdists []float64 // coarse-quantizer (centroid) distance panel

	// Graph-search state (HNSW): epoch-stamped visited marks plus the
	// candidate min-heap and result max-heap.
	visited  []uint32
	visitGen uint32
	candH    []hit
	resH     []hit
}

// markVisited stamps id as visited in the current generation, reporting
// whether it was already stamped.
func (sc *Scratch) markVisited(id int32) bool {
	if sc.visited[id] == sc.visitGen {
		return true
	}
	sc.visited[id] = sc.visitGen
	return false
}

// resetVisited prepares the visited stamps for a new search over n nodes.
func (sc *Scratch) resetVisited(n int) {
	if cap(sc.visited) < n {
		sc.visited = make([]uint32, n)
		sc.visitGen = 0
	}
	sc.visited = sc.visited[:n]
	sc.visitGen++
	if sc.visitGen == 0 { // generation wrapped: clear stale stamps once
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.visitGen = 1
	}
}

// Index answers top-k nearest-neighbour queries.
type Index interface {
	// Search returns up to k nearest neighbours of the query, nearest
	// first. Approximate indexes may return fewer than min(k, Len()) hits.
	Search(query []float64, k int) []Neighbor
	// SearchInto is Search with caller-owned storage: hits are appended
	// into dst (reused when capacity allows) and working memory comes from
	// sc. Both may be nil. The returned slice is valid until the next call
	// that reuses dst.
	SearchInto(query []float64, k int, dst []Neighbor, sc *Scratch) []Neighbor
	// Len returns the number of indexed vectors.
	Len() int
}

// FlatIndex is an exact L2 index — a brute-force scan, like FAISS
// IndexFlatL2.
type FlatIndex struct {
	data *linalg.Dense
}

// NewFlatIndex indexes the rows of x. The matrix is referenced, not copied.
func NewFlatIndex(x *linalg.Dense) *FlatIndex {
	return &FlatIndex{data: x}
}

// Len implements Index.
func (f *FlatIndex) Len() int { return f.data.Rows() }

// Search implements Index.
func (f *FlatIndex) Search(query []float64, k int) []Neighbor {
	return f.SearchInto(query, k, nil, nil)
}

// SearchInto implements Index. One kernel distance panel over the indexed
// rows followed by bounded-heap top-k selection; ties break toward the
// smaller row index, matching a stable sort by distance.
func (f *FlatIndex) SearchInto(query []float64, k int, dst []Neighbor, sc *Scratch) []Neighbor {
	n := f.data.Rows()
	if k <= 0 || n == 0 {
		return dst[:0]
	}
	if sc == nil {
		sc = &Scratch{}
	}
	if cap(sc.dists) < n {
		sc.dists = make([]float64, n)
	}
	dists := sc.dists[:n]
	linalg.RowSquaredDistancesInto(dists, f.data, query)
	sc.heap = linalg.TopKInto(dists, k, sc.heap)
	if k > n {
		k = n
	}
	dst = growHits(dst, k)
	for r, i := range sc.heap[:k] {
		dst[r] = Neighbor{Index: i, Distance: dists[i]}
	}
	return dst
}

// growHits returns dst resized to k entries, reusing capacity.
func growHits(dst []Neighbor, k int) []Neighbor {
	if cap(dst) < k {
		return make([]Neighbor, k)
	}
	return dst[:k]
}

// rerankInto ranks the candidate row ids in cand — which must be unique and
// in ascending order, so positional ties under TopKInto equal index ties —
// by exact distance to the query and writes the top-k into dst.
func rerankInto(data *linalg.Dense, query []float64, cand []int, k int, dst []Neighbor, sc *Scratch) []Neighbor {
	if cap(sc.dists) < len(cand) {
		sc.dists = make([]float64, len(cand))
	}
	dists := sc.dists[:len(cand)]
	for p, i := range cand {
		dists[p] = linalg.SquaredDistance(query, data.RowView(i))
	}
	sc.heap = linalg.TopKInto(dists, k, sc.heap)
	if k > len(cand) {
		k = len(cand)
	}
	dst = growHits(dst, k)
	for r, p := range sc.heap[:k] {
		dst[r] = Neighbor{Index: cand[p], Distance: dists[p]}
	}
	return dst
}

// LSHConfig configures the random-hyperplane LSH index.
type LSHConfig struct {
	// Tables is the number of hash tables; 8 if zero.
	Tables int
	// Bits is the number of hyperplanes (hash bits) per table; 12 if zero.
	Bits int
	// Seed makes hyperplane generation deterministic.
	Seed int64
	// Metrics, when non-nil, registers the ann.lsh.fallbacks counter so
	// exact-scan degradations surface in metrics snapshots.
	Metrics *obs.Registry
}

// LSHIndex hashes vectors by the sign pattern of random hyperplane
// projections; candidates from matching buckets are re-ranked exactly.
// Queries whose buckets yield fewer than k candidates fall back to a full
// exact scan so callers always receive k results — the fallback is counted
// (the ann.lsh.fallbacks counter, when a Metrics registry is configured)
// because each one costs O(n) and scores perfect recall, masking poor hash
// selectivity.
type LSHIndex struct {
	data   *linalg.Dense
	tables []map[uint64][]int
	planes [][][]float64 // [table][bit][dim]

	fallbackCtr *obs.Counter
}

// NewLSHIndex builds the index over the rows of x.
func NewLSHIndex(x *linalg.Dense, cfg LSHConfig) (*LSHIndex, error) {
	if cfg.Tables <= 0 {
		cfg.Tables = 8
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 12
	}
	if cfg.Bits > 64 {
		return nil, fmt.Errorf("ann: %d bits exceeds 64", cfg.Bits)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := &LSHIndex{
		data:        x,
		tables:      make([]map[uint64][]int, cfg.Tables),
		planes:      make([][][]float64, cfg.Tables),
		fallbackCtr: cfg.Metrics.Counter("ann.lsh.fallbacks"),
	}
	for t := 0; t < cfg.Tables; t++ {
		idx.tables[t] = map[uint64][]int{}
		idx.planes[t] = make([][]float64, cfg.Bits)
		for b := 0; b < cfg.Bits; b++ {
			plane := make([]float64, x.Cols())
			for j := range plane {
				plane[j] = rng.NormFloat64()
			}
			idx.planes[t][b] = plane
		}
	}
	for i := 0; i < x.Rows(); i++ {
		row := x.RowView(i)
		for t := range idx.tables {
			h := idx.hash(t, row)
			idx.tables[t][h] = append(idx.tables[t][h], i)
		}
	}
	return idx, nil
}

// Len implements Index.
func (l *LSHIndex) Len() int { return l.data.Rows() }

func (l *LSHIndex) hash(table int, v []float64) uint64 {
	var h uint64
	for b, plane := range l.planes[table] {
		if linalg.Dot(plane, v) >= 0 {
			h |= 1 << uint(b)
		}
	}
	return h
}

// Search implements Index: it gathers candidates from all tables whose
// bucket matches the query hash and re-ranks them by exact distance. If
// fewer than k candidates surface, it falls back to an exact scan so
// callers always receive k results when k ≤ Len(); the fallback is counted.
func (l *LSHIndex) Search(query []float64, k int) []Neighbor {
	return l.SearchInto(query, k, nil, nil)
}

// SearchInto implements Index. Bucket candidates are gathered into the
// scratch, sorted and deduplicated (replacing a per-query set allocation),
// then re-ranked with the top-k kernel; equal distances break toward the
// smaller row index, exactly as the previous full sort did.
func (l *LSHIndex) SearchInto(query []float64, k int, dst []Neighbor, sc *Scratch) []Neighbor {
	if k <= 0 || l.data.Rows() == 0 {
		return dst[:0]
	}
	if sc == nil {
		sc = &Scratch{}
	}
	cand := sc.cand[:0]
	for t := range l.tables {
		cand = append(cand, l.tables[t][l.hash(t, query)]...)
	}
	sort.Ints(cand)
	// Dedupe in place; buckets from different tables overlap heavily.
	uniq := cand[:0]
	for i, v := range cand {
		if i == 0 || v != cand[i-1] {
			uniq = append(uniq, v)
		}
	}
	sc.cand = cand[:cap(cand)][:0]
	if len(uniq) < k {
		l.fallbackCtr.Inc()
		return (&FlatIndex{data: l.data}).SearchInto(query, k, dst, sc)
	}
	return rerankInto(l.data, query, uniq, k, dst, sc)
}
