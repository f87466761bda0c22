package cluster

import (
	"container/heap"
	"fmt"
	"math"

	"collabscope/internal/linalg"
)

// Linkage selects the inter-cluster distance definition for hierarchical
// agglomerative clustering.
type Linkage int

// Linkage criteria. The zero value is AverageLink, the documented default.
const (
	// AverageLink merges by the mean pairwise distance (UPGMA).
	AverageLink Linkage = iota // lintobs:allow the zero Linkage: HACConfig and match.Holistic default to it without naming it
	// SingleLink merges by the minimum pairwise distance.
	SingleLink
	// CompleteLink merges by the maximum pairwise distance.
	CompleteLink
)

// String names the linkage criterion.
func (l Linkage) String() string {
	switch l {
	case SingleLink:
		return "single"
	case CompleteLink:
		return "complete"
	default:
		return "average"
	}
}

// HACConfig controls hierarchical agglomerative clustering — the
// multi-source grouping strategy of Saeedi et al. that the paper cites
// (§1, [36]).
type HACConfig struct {
	// Linkage is the merge criterion (default AverageLink).
	Linkage Linkage
	// Cutoff stops merging when the next merge distance exceeds it. Set
	// K instead to cut at a cluster count.
	Cutoff float64
	// K, when positive, stops at exactly K clusters (overrides Cutoff).
	K int
}

// HAC clusters the rows of x bottom-up with the Lance-Williams update and
// returns per-row cluster assignments in [0, clusters).
func HAC(x *linalg.Dense, cfg HACConfig) ([]int, error) {
	n := x.Rows()
	if n == 0 {
		return nil, fmt.Errorf("cluster: empty input")
	}
	if cfg.K > n {
		cfg.K = n
	}
	if cfg.K <= 0 && cfg.Cutoff <= 0 {
		return nil, fmt.Errorf("cluster: HAC needs a positive Cutoff or K")
	}

	// Pairwise distance matrix from the symmetric blocked kernel, updated
	// in place via Lance-Williams through row views of the same storage.
	distM := linalg.PairwiseDistancesInto(linalg.NewDense(n, n), x, x)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = distM.RowView(i)
	}

	active := make([]bool, n)
	size := make([]int, n)
	parent := make([]int, n)
	for i := range active {
		active[i] = true
		size[i] = 1
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}

	pq := &mergeHeap{}
	heap.Init(pq)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			heap.Push(pq, merge{i, j, dist[i][j]})
		}
	}

	clusters := n
	targetK := cfg.K
	if targetK <= 0 {
		targetK = 1
	}
	for clusters > targetK && pq.Len() > 0 {
		m := heap.Pop(pq).(merge)
		if !active[m.a] || !active[m.b] || dist[m.a][m.b] != m.d {
			continue // stale entry
		}
		if cfg.K <= 0 && m.d > cfg.Cutoff {
			break
		}
		// Merge b into a with the Lance-Williams distance update.
		for c := 0; c < n; c++ {
			if !active[c] || c == m.a || c == m.b {
				continue
			}
			var d float64
			switch cfg.Linkage {
			case SingleLink:
				d = math.Min(dist[m.a][c], dist[m.b][c])
			case CompleteLink:
				d = math.Max(dist[m.a][c], dist[m.b][c])
			default: // AverageLink (UPGMA)
				na, nb := float64(size[m.a]), float64(size[m.b])
				d = (na*dist[m.a][c] + nb*dist[m.b][c]) / (na + nb)
			}
			dist[m.a][c] = d
			dist[c][m.a] = d
			heap.Push(pq, merge{minInt(m.a, c), maxIntHAC(m.a, c), d})
		}
		active[m.b] = false
		size[m.a] += size[m.b]
		parent[find(m.b)] = find(m.a)
		clusters--
	}

	// Densify cluster ids.
	idOf := map[int]int{}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		root := find(i)
		id, ok := idOf[root]
		if !ok {
			id = len(idOf)
			idOf[root] = id
		}
		out[i] = id
	}
	return out, nil
}

type merge struct {
	a, b int
	d    float64
}

type mergeHeap []merge

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(merge)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxIntHAC(a, b int) int {
	if a > b {
		return a
	}
	return b
}
