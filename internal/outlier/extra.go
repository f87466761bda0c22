package outlier

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"collabscope/internal/linalg"
	"collabscope/internal/parallel"
)

// This file adds outlier detectors beyond the paper's four baselines,
// drawn from the outlier-analysis literature the paper cites (Aggarwal
// 2017; Ruff et al. 2021): k-NN distance, Mahalanobis distance, and
// Isolation Forest. They extend the scoping baseline suite and feed the
// repository's extended ablations.

// KNNDistance scores each row by its mean distance to its k nearest
// neighbours — a simple, strong distance-based detector.
type KNNDistance struct {
	// K is the neighbourhood size; 10 if zero.
	K int
}

// Name implements Detector.
func (d KNNDistance) Name() string { return fmt.Sprintf("kNN(k=%d)", d.k()) }

func (d KNNDistance) k() int {
	if d.K <= 0 {
		return 10
	}
	return d.K
}

// Scores implements Detector. The distance matrix comes from
// the symmetric pairwise kernel; per point, the k nearest neighbours are
// selected with the bounded-heap top-k kernel over the full row — the k+1
// smallest entries necessarily include the point itself (distance 0), which
// is dropped, or, when k+1 exact duplicates rank ahead of it, the worst
// survivor is dropped instead. Either way the summed values are exactly the
// k smallest neighbour distances in ascending order, so the scores are
// bit-identical to the sort-based formulation and identical for any worker
// count.
func (d KNNDistance) Scores(ctx context.Context, workers int, x *linalg.Dense) ([]float64, error) {
	n := x.Rows()
	out := make([]float64, n)
	if n <= 1 {
		return out, ctx.Err()
	}
	k := d.k()
	if k >= n {
		k = n - 1
	}
	dist := linalg.NewDense(n, n)
	if err := linalg.ParallelPairwiseDistancesInto(ctx, workers, dist, x, x); err != nil {
		return nil, err
	}
	err := parallel.ForEach(ctx, workers, n, func(i int) error {
		row := dist.RowView(i)
		sel := linalg.TopKInto(row, k+1, nil)
		var sum float64
		kept := 0
		for _, j := range sel {
			if j == i || kept == k {
				continue
			}
			sum += row[j]
			kept++
		}
		out[i] = sum / float64(k)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Mahalanobis scores each row by its Mahalanobis distance to the data mean,
// with the covariance regularised towards a scaled identity so
// high-dimensional signature sets (d ≫ n) stay well-conditioned.
type Mahalanobis struct {
	// Shrinkage λ ∈ [0, 1] blends the covariance with its average
	// variance times identity; 0.1 if zero.
	Shrinkage float64
}

// Name implements Detector.
func (m Mahalanobis) Name() string { return "Mahalanobis" }

// Scores implements Detector. The shared decomposition runs once; the
// per-row distance accumulation fans out over the pool.
func (m Mahalanobis) Scores(ctx context.Context, workers int, x *linalg.Dense) ([]float64, error) {
	n, d := x.Rows(), x.Cols()
	out := make([]float64, n)
	if n == 0 || d == 0 {
		return out, ctx.Err()
	}
	lambda := m.Shrinkage
	if lambda <= 0 {
		lambda = 0.1
	}

	// Work in the PCA basis: for d ≫ n the covariance has rank < n, so
	// compute distances from the singular values of the centred matrix
	// (variance per component) with shrinkage on the eigenvalues.
	mean := x.ColMean()
	centered := x.SubRow(mean)
	dec := linalg.ComputeSVD(centered)
	// n×r scores in the principal basis, via the blocked GEMM kernel.
	proj := linalg.MulInto(linalg.NewDense(centered.Rows(), dec.V.Cols()), centered, dec.V)

	avgVar := 0.0
	vars := make([]float64, len(dec.S))
	for i, s := range dec.S {
		vars[i] = s * s / float64(maxInt(n-1, 1))
		avgVar += vars[i]
	}
	if len(vars) > 0 {
		avgVar /= float64(len(vars))
	}
	if avgVar == 0 {
		return out, ctx.Err()
	}
	for i := range vars {
		vars[i] = (1-lambda)*vars[i] + lambda*avgVar
	}
	err := parallel.ForEach(ctx, workers, n, func(i int) error {
		var sum float64
		row := proj.RowView(i)
		for j, v := range row {
			if vars[j] > 0 {
				sum += v * v / vars[j]
			}
		}
		out[i] = math.Sqrt(sum)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// IsolationForest scores rows by how easily random axis-aligned splits
// isolate them (Liu, Ting, Zhou 2008): anomalies have short average path
// lengths. Scores follow the standard 2^(−E[h]/c(n)) formulation, in
// (0, 1), higher = more anomalous.
type IsolationForest struct {
	// Trees is the ensemble size; 100 if zero.
	Trees int
	// SampleSize per tree; min(256, n) if zero.
	SampleSize int
	// Seed makes the forest deterministic.
	Seed int64
}

// Name implements Detector.
func (f IsolationForest) Name() string { return "IsolationForest" }

type isoNode struct {
	feature     int
	split       float64
	left, right *isoNode
	size        int // leaf size
}

// Scores implements Detector. The forest is grown and walked
// sequentially from Seed, so the scores are trivially identical for any
// worker count.
func (f IsolationForest) Scores(ctx context.Context, _ int, x *linalg.Dense) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := x.Rows()
	out := make([]float64, n)
	if n == 0 || x.Cols() == 0 {
		return out, nil
	}
	trees := f.Trees
	if trees <= 0 {
		trees = 100
	}
	sample := f.SampleSize
	if sample <= 0 || sample > n {
		sample = n
		if sample > 256 {
			sample = 256
		}
	}
	rng := rand.New(rand.NewSource(f.Seed))
	maxDepth := int(math.Ceil(math.Log2(float64(sample)))) + 1

	forest := make([]*isoNode, trees)
	for t := range forest {
		idx := rng.Perm(n)[:sample]
		forest[t] = buildIsoTree(x, idx, rng, 0, maxDepth)
	}

	cn := avgPathLength(sample)
	if cn == 0 {
		cn = 1
	}
	for i := 0; i < n; i++ {
		var sum float64
		for _, tree := range forest {
			sum += pathLength(tree, x.RowView(i), 0)
		}
		out[i] = math.Pow(2, -(sum/float64(trees))/cn)
	}
	return out, nil
}

func buildIsoTree(x *linalg.Dense, idx []int, rng *rand.Rand, depth, maxDepth int) *isoNode {
	if len(idx) <= 1 || depth >= maxDepth {
		return &isoNode{size: len(idx)}
	}
	feature := rng.Intn(x.Cols())
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		v := x.At(i, feature)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi <= lo {
		return &isoNode{size: len(idx)}
	}
	split := lo + rng.Float64()*(hi-lo)
	var left, right []int
	for _, i := range idx {
		if x.At(i, feature) < split {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &isoNode{size: len(idx)}
	}
	return &isoNode{
		feature: feature,
		split:   split,
		left:    buildIsoTree(x, left, rng, depth+1, maxDepth),
		right:   buildIsoTree(x, right, rng, depth+1, maxDepth),
	}
}

func pathLength(node *isoNode, v []float64, depth int) float64 {
	if node.left == nil {
		return float64(depth) + avgPathLength(node.size)
	}
	if v[node.feature] < node.split {
		return pathLength(node.left, v, depth+1)
	}
	return pathLength(node.right, v, depth+1)
}

// avgPathLength is c(n), the average unsuccessful-search path length of a
// BST with n nodes.
func avgPathLength(n int) float64 {
	if n <= 1 {
		return 0
	}
	h := math.Log(float64(n-1)) + 0.5772156649015329 // Euler–Mascheroni
	return 2*h - 2*float64(n-1)/float64(n)
}
