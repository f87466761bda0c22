// Package outlier implements the outlier detection algorithms (ODAs) that
// the global scoping baseline ranks schema-element signatures with
// (Section 2.4 of the paper): Z-score, Local Outlier Factor, PCA
// reconstruction error, and an ensemble-trained neural autoencoder.
//
// Every detector maps a signature matrix to one non-negative outlier score
// per row; higher means more anomalous (less linkable).
package outlier

import (
	"context"
	"fmt"
	"math"
	"sort"

	"collabscope/internal/linalg"
	"collabscope/internal/nn"
	"collabscope/internal/parallel"
)

// Detector scores each row of a signature matrix; higher is more anomalous.
type Detector interface {
	// Name identifies the detector, e.g. "PCA(v=0.50)".
	Name() string
	// Scores returns one outlier score per row of x. It stops with
	// ctx.Err() once ctx is done, fans out over up to workers goroutines
	// (≤ 0 means GOMAXPROCS), and must return bit-identical scores for any
	// worker count.
	Scores(ctx context.Context, workers int, x *linalg.Dense) ([]float64, error)
}

// ZScore scores each row by the Euclidean norm of its per-dimension
// standardised values — the straightforward mean-deviation method the paper
// implements with SciPy.
type ZScore struct{}

// Name implements Detector.
func (ZScore) Name() string { return "Z-Score" }

// Scores implements Detector. The scan is sequential, so the scores are
// trivially identical for any worker count.
func (ZScore) Scores(ctx context.Context, _ int, x *linalg.Dense) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, cols := x.Rows(), x.Cols()
	out := make([]float64, rows)
	if rows == 0 || cols == 0 {
		return out, nil
	}
	mean := x.ColMean()
	std := make([]float64, cols)
	for j := 0; j < cols; j++ {
		var s float64
		for i := 0; i < rows; i++ {
			d := x.At(i, j) - mean[j]
			s += d * d
		}
		std[j] = math.Sqrt(s / float64(rows))
	}
	for i := 0; i < rows; i++ {
		var s float64
		row := x.RowView(i)
		for j, v := range row {
			if std[j] == 0 {
				continue
			}
			z := (v - mean[j]) / std[j]
			s += z * z
		}
		out[i] = math.Sqrt(s / float64(cols))
	}
	return out, nil
}

// LOF is the density-based Local Outlier Factor of Breunig et al. (2000)
// with the scikit-learn default of 20 neighbours used in the paper.
type LOF struct {
	// Neighbors is the k of the k-distance neighbourhood; 20 if zero.
	Neighbors int
}

// Name implements Detector.
func (l LOF) Name() string { return fmt.Sprintf("LOF(n=%d)", l.k()) }

func (l LOF) k() int {
	if l.Neighbors <= 0 {
		return 20
	}
	return l.Neighbors
}

// Scores implements Detector. Points in dense neighbourhoods score ≈ 1;
// isolated points score higher. Each phase — the pairwise distance matrix,
// the k-neighbourhoods, the reachability densities, and the final factors —
// fans out per point; every worker owns disjoint rows, so the scores are
// identical for any worker count.
func (l LOF) Scores(ctx context.Context, workers int, x *linalg.Dense) ([]float64, error) {
	n := x.Rows()
	out := make([]float64, n)
	if n == 0 {
		return out, ctx.Err()
	}
	k := l.k()
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		// A single point has no neighbourhood; score 1 (perfectly normal).
		for i := range out {
			out[i] = 1
		}
		return out, ctx.Err()
	}

	// Pairwise distances through the symmetric row-blocked kernel: worker i
	// fills the upper-triangle row i and mirrors it; each (i, j) cell is
	// written exactly once, with values identical to per-pair
	// linalg.Distance.
	distM := linalg.NewDense(n, n)
	if err := linalg.ParallelPairwiseDistancesInto(ctx, workers, distM, x, x); err != nil {
		return nil, err
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = distM.RowView(i)
	}

	// k-distance and k-neighbourhood (all points within k-distance,
	// honouring ties as in the original definition).
	kdist := make([]float64, n)
	neigh := make([][]int, n)
	err := parallel.ForEach(ctx, workers, n, func(i int) error {
		idx := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				idx = append(idx, j)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return dist[i][idx[a]] < dist[i][idx[b]] })
		kd := dist[i][idx[k-1]]
		kdist[i] = kd
		var nb []int
		for _, j := range idx {
			if dist[i][j] <= kd {
				nb = append(nb, j)
			} else {
				break
			}
		}
		neigh[i] = nb
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Local reachability density.
	lrd := make([]float64, n)
	err = parallel.ForEach(ctx, workers, n, func(i int) error {
		var sum float64
		for _, j := range neigh[i] {
			reach := dist[i][j]
			if kdist[j] > reach {
				reach = kdist[j]
			}
			sum += reach
		}
		if sum == 0 {
			lrd[i] = math.Inf(1)
		} else {
			lrd[i] = float64(len(neigh[i])) / sum
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// LOF = mean neighbour-lrd over own lrd.
	err = parallel.ForEach(ctx, workers, n, func(i int) error {
		var sum float64
		for _, j := range neigh[i] {
			if math.IsInf(lrd[i], 1) {
				sum += 1 // duplicate clusters: ratio defined as 1
			} else {
				sum += lrd[j] / lrd[i]
			}
		}
		out[i] = sum / float64(len(neigh[i]))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PCA scores rows by their reconstruction error under a principal-component
// encoder-decoder retaining the given explained variance.
type PCA struct {
	// Variance is the cumulative explained-variance target in (0, 1].
	Variance float64
}

// Name implements Detector.
func (p PCA) Name() string { return fmt.Sprintf("PCA(v=%.2f)", p.Variance) }

func (p PCA) variance() float64 {
	if p.Variance <= 0 || p.Variance > 1 {
		return 0.5
	}
	return p.Variance
}

// Scores implements Detector through the checked PCA fit: non-finite
// signatures and Jacobi non-convergence surface as typed errors
// (linalg.ErrNonFinite, linalg.ErrSVDNoConvergence) instead of silently
// producing garbage scores. The fit itself is sequential, so the scores are
// trivially identical for any worker count.
func (p PCA) Scores(ctx context.Context, _ int, x *linalg.Dense) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if x.Rows() == 0 {
		return nil, nil
	}
	fit, err := linalg.FitPCAChecked(1, x, p.variance())
	if err != nil {
		return nil, fmt.Errorf("outlier: %s: %w", p.Name(), err)
	}
	return fit.ReconstructionErrors(x), nil
}

// Autoencoder scores rows by summed reconstruction error over an ensemble
// of independently initialised dense autoencoders — the paper's Keras
// baseline (768|100|10|100|768, ReLU, Adam, MSE, 100 models × 50 epochs).
type Autoencoder struct {
	// Hidden are the hidden layer sizes; defaults to 100|10|100 scaled to
	// the input if unset.
	Hidden []int
	// Models is the ensemble size (paper: 100). Defaults to 10, which is
	// ample for the ensemble-stabilisation effect at Go test speed.
	Models int
	// Epochs per model (paper: 50).
	Epochs int
	// Seed makes the ensemble deterministic.
	Seed int64
}

// Name implements Detector.
func (a Autoencoder) Name() string { return "Autoencoder" }

// Scores implements Detector. Ensemble members train in parallel — each already derives its own RNG seeds from Seed, so member m
// trains identically wherever it runs — and the per-member errors are
// summed in member order, keeping the scores bit-identical for any worker
// count.
func (a Autoencoder) Scores(ctx context.Context, workers int, x *linalg.Dense) ([]float64, error) {
	n := x.Rows()
	out := make([]float64, n)
	if n == 0 {
		return out, ctx.Err()
	}
	hidden := a.Hidden
	if len(hidden) == 0 {
		hidden = defaultHidden(x.Cols())
	}
	models := a.Models
	if models <= 0 {
		models = 10
	}
	epochs := a.Epochs
	if epochs <= 0 {
		epochs = 50
	}
	members := make([]int, models)
	for m := range members {
		members[m] = m
	}
	perMember, err := parallel.Map(ctx, workers, members, func(_ int, m int) ([]float64, error) {
		ae := nn.NewAutoencoder(x.Cols(), a.Seed+int64(m)*7919, hidden...)
		cfg := nn.DefaultTrainConfig()
		cfg.Epochs = epochs
		cfg.Seed = a.Seed + int64(m)
		ae.Fit(x, cfg)
		return ae.ReconstructionErrors(x), nil
	})
	if err != nil {
		return nil, err
	}
	for _, errs := range perMember {
		for i, e := range errs {
			out[i] += e
		}
	}
	return out, nil
}

// defaultHidden scales the paper's 100|10|100 architecture to the input
// dimensionality (768 → 100|10|100; smaller inputs shrink proportionally).
func defaultHidden(dim int) []int {
	h1 := dim * 100 / 768
	if h1 < 8 {
		h1 = 8
	}
	h2 := dim * 10 / 768
	if h2 < 2 {
		h2 = 2
	}
	return []int{h1, h2, h1}
}
