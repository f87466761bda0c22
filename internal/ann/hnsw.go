package ann

// Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2016): a
// layered proximity graph whose greedy descent gives logarithmic-ish query
// cost, replacing the O(n) per-query scan of FlatIndex at 10⁵–10⁶ rows.
//
// Determinism contract (pinned by the conformance tests): level assignment
// comes from a seeded RNG drawn in row order before any insertion, inserts
// proceed in row order, and every ordering decision — candidate heaps,
// greedy descent, the neighbour-selection heuristic — breaks distance ties
// by ascending row index. Two builds over the same matrix with the same
// config therefore produce identical graphs and identical search results.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"collabscope/internal/linalg"
)

// HNSWConfig configures the HNSW graph index.
type HNSWConfig struct {
	// M is the maximum number of bidirectional links per node on the upper
	// layers (layer 0 allows 2·M); 16 if zero. Must be ≥ 2.
	M int
	// EfConstruction is the candidate-beam width during insertion; 128 if
	// zero. Larger builds a better graph, slower.
	EfConstruction int
	// EfSearch is the default candidate-beam width during search (clamped
	// up to k per query); 64 if zero.
	EfSearch int
	// Seed drives the level-assignment RNG.
	Seed int64
}

func (c HNSWConfig) withDefaults() HNSWConfig {
	if c.M == 0 {
		c.M = 16
	}
	if c.EfConstruction == 0 {
		c.EfConstruction = 128
	}
	if c.EfSearch == 0 {
		c.EfSearch = 64
	}
	return c
}

func (c HNSWConfig) validate() error {
	if c.M < 0 || c.M == 1 {
		return fmt.Errorf("ann: hnsw M must be ≥ 2, got %d", c.M)
	}
	if c.EfConstruction < 0 || c.EfSearch < 0 {
		return fmt.Errorf("ann: hnsw ef values must be ≥ 0 (efConstruction %d, efSearch %d)",
			c.EfConstruction, c.EfSearch)
	}
	return nil
}

// maxHNSWLevel caps the geometric level draw; levels beyond this are
// astronomically unlikely (p ≈ M^-32) and would only waste memory.
const maxHNSWLevel = 32

// HNSWIndex is a hierarchical navigable small-world graph over the rows of
// a matrix. Build is O(n·M·efConstruction)-ish; queries touch a small,
// data-dependent fraction of the rows.
type HNSWIndex struct {
	data *linalg.Dense
	cfg  HNSWConfig

	// links[i][l] holds the neighbours of node i on layer l, for
	// l ≤ levels[i]. Neighbour lists are bounded by 2M (layer 0) or M.
	links    [][][]int32
	levels   []int
	entry    int32
	maxLevel int
}

// NewHNSWIndex builds the graph over the rows of x. The matrix is
// referenced, not copied. The build is deterministic in (x, cfg).
func NewHNSWIndex(x *linalg.Dense, cfg HNSWConfig) (*HNSWIndex, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := x.Rows()
	h := &HNSWIndex{
		data:   x,
		cfg:    cfg,
		links:  make([][][]int32, n),
		levels: make([]int, n),
		entry:  -1,
	}
	// Draw all levels up front in row order: the level sequence depends
	// only on (seed, n), never on insertion internals.
	rng := rand.New(rand.NewSource(cfg.Seed))
	mL := 1 / math.Log(float64(cfg.M))
	for i := 0; i < n; i++ {
		l := int(-math.Log(1-rng.Float64()) * mL)
		if l > maxHNSWLevel {
			l = maxHNSWLevel
		}
		h.levels[i] = l
	}
	b := &hnswBuilder{h: h}
	for i := 0; i < n; i++ {
		b.insert(int32(i))
	}
	return h, nil
}

// Len implements Index.
func (h *HNSWIndex) Len() int { return h.data.Rows() }

func (h *HNSWIndex) dist(q []float64, id int32) float64 {
	return linalg.SquaredDistance(q, h.data.RowView(int(id)))
}

// Search implements Index.
func (h *HNSWIndex) Search(query []float64, k int) []Neighbor {
	return h.SearchInto(query, k, nil, nil)
}

// SearchInto implements Index: greedy descent from the entry point through
// the upper layers, then a beam search with ef = max(EfSearch, k) on layer
// 0. Hits come back in ascending (distance, index) order. Steady state is
// alloc-free once dst and sc have warmed up.
func (h *HNSWIndex) SearchInto(query []float64, k int, dst []Neighbor, sc *Scratch) []Neighbor {
	if k <= 0 || h.entry < 0 {
		return dst[:0]
	}
	if sc == nil {
		sc = &Scratch{}
	}
	ef := h.cfg.EfSearch
	if ef < k {
		ef = k
	}
	ep := h.entry
	epD := h.dist(query, ep)
	for layer := h.maxLevel; layer > 0; layer-- {
		ep, epD = h.greedyClosest(query, ep, epD, layer)
	}
	h.searchLayer(query, ep, epD, ef, 0, sc)
	// sc.resH is a max-heap of up to ef hits; shrink to k, then pop worst
	// first to fill dst in ascending (distance, index) order.
	for len(sc.resH) > k {
		popMax(&sc.resH)
	}
	m := len(sc.resH)
	dst = growHits(dst, m)
	for i := m - 1; i >= 0; i-- {
		top := popMax(&sc.resH)
		dst[i] = Neighbor{Index: int(top.id), Distance: top.d}
	}
	return dst
}

// greedyClosest walks layer links greedily from ep toward the query until
// no neighbour improves on (distance, index) order; equal distances move
// toward the smaller index, which strictly decreases and cannot cycle.
func (h *HNSWIndex) greedyClosest(q []float64, ep int32, epD float64, layer int) (int32, float64) {
	for {
		improved := false
		for _, nb := range h.links[ep][layer] {
			d := h.dist(q, nb)
			if d < epD || (d == epD && nb < ep) {
				ep, epD = nb, d
				improved = true
			}
		}
		if !improved {
			return ep, epD
		}
	}
}

// searchLayer runs the beam search of the HNSW paper on one layer: expand
// the closest unexpanded candidate until no candidate can improve the
// ef-bounded result set. Results are left in sc.resH (a max-heap of at
// most ef hits); sc.candH and the visited stamps are consumed.
func (h *HNSWIndex) searchLayer(q []float64, ep int32, epD float64, ef, layer int, sc *Scratch) {
	sc.resetVisited(h.data.Rows())
	sc.markVisited(ep)
	sc.candH = sc.candH[:0]
	sc.resH = sc.resH[:0]
	pushMin(&sc.candH, hit{d: epD, id: ep})
	pushMax(&sc.resH, hit{d: epD, id: ep})
	for len(sc.candH) > 0 {
		c := popMin(&sc.candH)
		if len(sc.resH) >= ef && worseHit(c, sc.resH[0]) {
			break
		}
		for _, nb := range h.links[c.id][layer] {
			if sc.markVisited(nb) {
				continue
			}
			d := h.dist(q, nb)
			cand := hit{d: d, id: nb}
			if len(sc.resH) < ef {
				pushMin(&sc.candH, cand)
				pushMax(&sc.resH, cand)
				continue
			}
			if worseHit(cand, sc.resH[0]) {
				continue
			}
			pushMin(&sc.candH, cand)
			pushMax(&sc.resH, cand)
			popMax(&sc.resH)
		}
	}
}

// hnswBuilder holds the build-time scratch of one NewHNSWIndex call.
type hnswBuilder struct {
	h      *HNSWIndex
	sc     Scratch
	cands  []hit
	sel    []hit
	pruned []hit
	// linked is a stable copy of the selected neighbours: linkBack reruns
	// the selection heuristic, which overwrites b.sel/b.cands in place.
	linked []hit
}

// insert adds node i to the graph (standard HNSW insert: greedy descent to
// the node's level, beam search plus heuristic neighbour selection per
// layer, bidirectional linking with bounded-degree shrinking).
func (b *hnswBuilder) insert(i int32) {
	h := b.h
	l := h.levels[i]
	h.links[i] = make([][]int32, l+1)
	if h.entry < 0 {
		h.entry = i
		h.maxLevel = l
		return
	}
	q := h.data.RowView(int(i))
	ep := h.entry
	epD := h.dist(q, ep)
	for layer := h.maxLevel; layer > l; layer-- {
		ep, epD = h.greedyClosest(q, ep, epD, layer)
	}
	top := l
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for layer := top; layer >= 0; layer-- {
		h.searchLayer(q, ep, epD, h.cfg.EfConstruction, layer, &b.sc)
		// Drain the result heap into an ascending (distance, index) slice.
		b.cands = append(b.cands[:0], b.sc.resH...)
		sort.Slice(b.cands, func(x, y int) bool { return worseHit(b.cands[y], b.cands[x]) })
		m := h.maxDegree(layer)
		b.selectNeighbors(b.cands, h.cfg.M)
		h.links[i][layer] = appendIDs(h.links[i][layer], b.sel)
		// Next layer starts from the best candidate found on this one; read
		// it now — linkBack reuses b.cands/b.sel as shrink scratch.
		ep, epD = b.cands[0].id, b.cands[0].d
		b.linked = append(b.linked[:0], b.sel...)
		for _, s := range b.linked {
			h.linkBack(s.id, i, layer, m, b)
		}
	}
	if l > h.maxLevel {
		h.entry = i
		h.maxLevel = l
	}
}

// maxDegree is the neighbour-list bound of a layer: 2M on layer 0, M above.
func (h *HNSWIndex) maxDegree(layer int) int {
	if layer == 0 {
		return 2 * h.cfg.M
	}
	return h.cfg.M
}

// selectNeighbors applies the HNSW selection heuristic to cands (ascending
// (distance, index) order): a candidate is kept iff it is closer to the
// base point than to every already-kept neighbour — keeping directionally
// diverse edges — and pruned slots are backfilled with the nearest pruned
// candidates (keepPrunedConnections). The result lands in b.sel.
func (b *hnswBuilder) selectNeighbors(cands []hit, m int) {
	b.sel = b.sel[:0]
	b.pruned = b.pruned[:0]
	for _, e := range cands {
		if len(b.sel) >= m {
			break
		}
		keep := true
		for _, s := range b.sel {
			if b.h.dist(b.h.data.RowView(int(e.id)), s.id) < e.d {
				keep = false
				break
			}
		}
		if keep {
			b.sel = append(b.sel, e)
		} else {
			b.pruned = append(b.pruned, e)
		}
	}
	for _, e := range b.pruned {
		if len(b.sel) >= m {
			break
		}
		b.sel = append(b.sel, e)
	}
}

// linkBack adds the reverse edge nb→i and shrinks nb's neighbour list with
// the same selection heuristic when it exceeds the layer's degree bound.
func (h *HNSWIndex) linkBack(nb, i int32, layer, maxDeg int, b *hnswBuilder) {
	links := append(h.links[nb][layer], i)
	if len(links) <= maxDeg {
		h.links[nb][layer] = links
		return
	}
	base := h.data.RowView(int(nb))
	b.cands = b.cands[:0]
	for _, e := range links {
		b.cands = append(b.cands, hit{d: h.dist(base, e), id: e})
	}
	sort.Slice(b.cands, func(x, y int) bool { return worseHit(b.cands[y], b.cands[x]) })
	b.selectNeighbors(b.cands, maxDeg)
	h.links[nb][layer] = appendIDs(links[:0], b.sel)
}

func appendIDs(dst []int32, hits []hit) []int32 {
	for _, s := range hits {
		dst = append(dst, s.id)
	}
	return dst
}

// worseHit reports whether a ranks after b in ascending (distance, index)
// order — the tie-break of linalg.TopKInto.
func worseHit(a, b hit) bool {
	return a.d > b.d || (a.d == b.d && a.id > b.id)
}

// pushMin/popMin maintain *h as a binary min-heap in (distance, index)
// order; pushMax/popMax the mirror-image max-heap (worst hit on top).

func pushMin(h *[]hit, x hit) {
	*h = append(*h, x)
	s := *h
	for at := len(s) - 1; at > 0; {
		parent := (at - 1) / 2
		if !worseHit(s[parent], s[at]) {
			break
		}
		s[at], s[parent] = s[parent], s[at]
		at = parent
	}
}

func popMin(h *[]hit) hit {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for at := 0; ; {
		l := 2*at + 1
		if l >= len(s) {
			break
		}
		best := l
		if r := l + 1; r < len(s) && worseHit(s[l], s[r]) {
			best = r
		}
		if !worseHit(s[at], s[best]) {
			break
		}
		s[at], s[best] = s[best], s[at]
		at = best
	}
	return top
}

func pushMax(h *[]hit, x hit) {
	*h = append(*h, x)
	s := *h
	for at := len(s) - 1; at > 0; {
		parent := (at - 1) / 2
		if !worseHit(s[at], s[parent]) {
			break
		}
		s[at], s[parent] = s[parent], s[at]
		at = parent
	}
}

func popMax(h *[]hit) hit {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for at := 0; ; {
		l := 2*at + 1
		if l >= len(s) {
			break
		}
		worst := l
		if r := l + 1; r < len(s) && worseHit(s[r], s[l]) {
			worst = r
		}
		if !worseHit(s[worst], s[at]) {
			break
		}
		s[at], s[worst] = s[worst], s[at]
		at = worst
	}
	return top
}
