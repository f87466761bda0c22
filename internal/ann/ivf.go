package ann

// IVF (inverted-file) index: a k-means coarse quantizer from
// internal/cluster partitions the rows into nlist cells; a query scans only
// the nprobe cells whose centroids are nearest, re-ranking their members
// exactly. Per-query cost is O(nlist·d + n·nprobe/nlist·d) instead of the
// flat scan's O(n·d) — the FAISS IVFFlat design.
//
// Determinism: the quantizer trains on a fixed strided sample with the
// seeded k-means++ of internal/cluster, assignments scan rows in ascending
// order, and search re-ranks candidates in ascending row order so distance
// ties break by index exactly like FlatIndex. With NProbe ≥ the number of
// lists, results are bit-identical to FlatIndex (pinned by tests).

import (
	"fmt"
	"math"
	"sort"

	"collabscope/internal/cluster"
	"collabscope/internal/linalg"
)

// IVFConfig configures the IVF coarse-quantizer index.
type IVFConfig struct {
	// NLists is the number of k-means cells; ⌈√n⌉ (clamped to [1, n]) if
	// zero.
	NLists int
	// NProbe is the number of nearest cells scanned per query;
	// max(1, NLists/8) if zero. NProbe ≥ NLists degenerates to an exact
	// scan with FlatIndex-identical results.
	NProbe int
	// TrainSample caps the number of rows the quantizer trains on (a
	// deterministic strided sample); 64·NLists if zero. Assignment always
	// covers every row.
	TrainSample int
	// MaxIter bounds the Lloyd iterations of the quantizer; 10 if zero.
	MaxIter int
	// Seed drives the deterministic k-means++ initialisation.
	Seed int64
}

func (c IVFConfig) withDefaults(n int) IVFConfig {
	if c.NLists == 0 {
		c.NLists = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if c.NLists > n {
		c.NLists = n
	}
	if c.NLists < 1 {
		c.NLists = 1
	}
	if c.NProbe == 0 {
		c.NProbe = c.NLists / 8
	}
	if c.NProbe < 1 {
		c.NProbe = 1
	}
	if c.TrainSample == 0 {
		c.TrainSample = 64 * c.NLists
	}
	if c.MaxIter == 0 {
		c.MaxIter = 10
	}
	return c
}

func (c IVFConfig) validate() error {
	if c.NLists < 0 || c.NProbe < 0 || c.TrainSample < 0 || c.MaxIter < 0 {
		return fmt.Errorf("ann: ivf config values must be ≥ 0 (nlists %d, nprobe %d, sample %d, iter %d)",
			c.NLists, c.NProbe, c.TrainSample, c.MaxIter)
	}
	return nil
}

// IVFIndex is an inverted-file index over the rows of a matrix.
type IVFIndex struct {
	data      *linalg.Dense
	cfg       IVFConfig
	centroids *linalg.Dense
	lists     [][]int32 // members per cell, in ascending row order
}

// NewIVFIndex builds the index over the rows of x. The matrix is
// referenced, not copied. The build is deterministic in (x, cfg).
func NewIVFIndex(x *linalg.Dense, cfg IVFConfig) (*IVFIndex, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := x.Rows()
	idx := &IVFIndex{data: x, cfg: cfg}
	if n == 0 {
		idx.cfg = cfg.withDefaults(1)
		return idx, nil
	}
	cfg = cfg.withDefaults(n)
	idx.cfg = cfg

	// Train the quantizer on a deterministic subsample — training on all
	// rows would make the build quadratic in practice at 10⁵+ rows. The
	// sample steps through row indices by a fixed large prime (a permutation
	// of [0, n) whenever the prime doesn't divide n), so it cannot alias
	// against periodic structure in the row order the way a plain stride
	// does (e.g. generators that deal rows out round-robin).
	train := x
	if cfg.TrainSample < n {
		const step = 982451653
		sample := linalg.NewDense(cfg.TrainSample, x.Cols())
		pos := 0
		for i := 0; i < cfg.TrainSample; i++ {
			copy(sample.RowView(i), x.RowView(pos))
			pos = (pos + step) % n
		}
		train = sample
	}
	k := cfg.NLists
	if k > train.Rows() {
		k = train.Rows()
	}
	res, err := cluster.KMeans(train, cluster.Config{K: k, MaxIter: cfg.MaxIter, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("ann: ivf quantizer: %w", err)
	}
	idx.centroids = res.Centroids
	idx.lists = make([][]int32, res.K())

	// Assign every row to its nearest centroid (ascending-centroid
	// tie-break, matching the k-means argmin scan). Ascending row order
	// keeps each list sorted, which the search tie-break relies on.
	dists := make([]float64, res.K())
	for i := 0; i < n; i++ {
		linalg.RowSquaredDistancesInto(dists, idx.centroids, x.RowView(i))
		best, bestD := 0, math.Inf(1)
		for c, d := range dists {
			if d < bestD {
				best, bestD = c, d
			}
		}
		idx.lists[best] = append(idx.lists[best], int32(i))
	}
	return idx, nil
}

// Len implements Index.
func (v *IVFIndex) Len() int { return v.data.Rows() }

// Search implements Index.
func (v *IVFIndex) Search(query []float64, k int) []Neighbor {
	return v.SearchInto(query, k, nil, nil)
}

// SearchInto implements Index: one distance panel over the centroids picks
// the nprobe nearest cells, whose members are gathered, sorted ascending,
// and re-ranked exactly. Approximate semantics: rows outside the probed
// cells are invisible, so fewer than min(k, Len()) hits may come back.
func (v *IVFIndex) SearchInto(query []float64, k int, dst []Neighbor, sc *Scratch) []Neighbor {
	n := v.data.Rows()
	if k <= 0 || n == 0 {
		return dst[:0]
	}
	if sc == nil {
		sc = &Scratch{}
	}
	nlists := v.centroids.Rows()
	if cap(sc.cdists) < nlists {
		sc.cdists = make([]float64, nlists)
	}
	cdists := sc.cdists[:nlists]
	linalg.RowSquaredDistancesInto(cdists, v.centroids, query)
	// k ≥ n asks for every row: probe all cells so the scan is exact.
	nprobe := v.cfg.NProbe
	if nprobe > nlists || k >= n {
		nprobe = nlists
	}
	sc.heap = linalg.TopKInto(cdists, nprobe, sc.heap)
	cand := sc.cand[:0]
	for _, c := range sc.heap {
		for _, id := range v.lists[c] {
			cand = append(cand, int(id))
		}
	}
	sc.cand = cand[:cap(cand)][:0]
	if len(cand) == 0 {
		return dst[:0]
	}
	// Lists are individually ascending but probed in centroid-distance
	// order; restore global ascending order so ties break by row index.
	sort.Ints(cand)
	return rerankInto(v.data, query, cand, k, dst, sc)
}
