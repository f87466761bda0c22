package linalg

import (
	"math/rand"
)

// RandomizedSVD computes an approximate rank-k SVD via the Halko–
// Martinsson–Tropp randomized range finder with power iterations: project
// onto a random Gaussian sketch, orthonormalise, run the exact
// decomposition on the much smaller projected matrix. For signature
// matrices whose interesting spectrum is in the leading components — the
// collaborative-scoping case — it gives near-exact leading singular
// vectors at a fraction of the full Jacobi cost, and makes the library
// practical for record-level corpora (entity resolution) with thousands
// of rows.
//
// rank is clamped to min(rows, cols). oversample (extra sketch columns,
// e.g. 8) and powerIters (subspace iterations, e.g. 2) trade accuracy for
// speed. The result has exactly min(rank, min(rows, cols)) components.
func RandomizedSVD(x *Dense, rank, oversample, powerIters int, seed int64) *SVD {
	r, c := x.Rows(), x.Cols()
	minDim := r
	if c < minDim {
		minDim = c
	}
	if rank <= 0 || rank >= minDim {
		// No savings possible; fall back to the exact decomposition.
		return ComputeSVD(x)
	}
	if oversample < 0 {
		oversample = 8
	}
	sketch := rank + oversample
	if sketch > minDim {
		sketch = minDim
	}

	rng := rand.New(rand.NewSource(seed))

	// Y = X · Ω with Ω ∈ c×sketch Gaussian.
	omega := NewDense(c, sketch)
	for i := 0; i < c; i++ {
		for j := 0; j < sketch; j++ {
			omega.Set(i, j, rng.NormFloat64())
		}
	}
	y := x.Mul(omega)
	q := orthonormalize(y)

	// Power iterations sharpen the captured subspace: Y ← X·(Xᵀ·Q).
	for p := 0; p < powerIters; p++ {
		z := x.T().Mul(q)
		z = orthonormalize(z)
		q = orthonormalize(x.Mul(z))
	}

	// B = Qᵀ·X is sketch×c; its exact SVD lifts back through Q.
	b := q.T().Mul(x)
	small := decompose(1, b) // b is a private copy: no clone needed

	n := rank
	if n > len(small.S) {
		n = len(small.S)
	}
	u := NewDense(r, n)
	qu := q.Mul(small.U) // r×len(S)
	for i := 0; i < r; i++ {
		copy(u.RowView(i), qu.RowView(i)[:n])
	}
	v := NewDense(c, n)
	for i := 0; i < c; i++ {
		copy(v.RowView(i), small.V.RowView(i)[:n])
	}
	return &SVD{U: u, S: small.S[:n], V: v}
}

// orthonormalize returns an orthonormal basis of the columns of y via
// modified Gram–Schmidt, dropping numerically dependent columns.
func orthonormalize(y *Dense) *Dense {
	r, c := y.Rows(), y.Cols()
	cols := make([][]float64, 0, c)
	for j := 0; j < c; j++ {
		v := y.Col(j)
		for _, u := range cols {
			AxpyInPlace(-Dot(u, v), u, v)
		}
		if Normalize(v) > 1e-10 {
			cols = append(cols, v)
		}
	}
	q := NewDense(r, len(cols))
	for j, col := range cols {
		for i := 0; i < r; i++ {
			q.Set(i, j, col[i])
		}
	}
	return q
}

// FitPCAApprox is FitPCA with a randomized decomposition capped at maxRank
// components — for corpora too large for the exact Jacobi SVD. The
// explained-variance bookkeeping covers only the computed components, so
// ComponentsForVariance saturates at maxRank.
func FitPCAApprox(x *Dense, variance float64, maxRank int, seed int64) *PCA {
	mean := x.ColMean()
	return pcaFromSVD(mean, RandomizedSVD(x.SubRow(mean), maxRank, 8, 2, seed), variance)
}
