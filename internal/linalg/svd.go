package linalg

import (
	"math"
	"sort"
)

// SVD holds a thin singular value decomposition X = U·diag(S)·Vᵀ where X is
// r×c, U is r×n, S has n entries in non-increasing order, and V is c×n with
// orthonormal columns. n = min(r, c).
//
// The rows of Components (the transpose of V, n×c) are the right singular
// vectors, i.e. the principal components when X is mean-centred — matching
// the convention of Algorithm 1 in the paper, where signatures are encoded
// as X·PCᵀ and decoded as Z·PC.
type SVD struct {
	U *Dense    // r×n left singular vectors
	S []float64 // n singular values, descending
	V *Dense    // c×n right singular vectors (columns)
	// Converged reports whether the Jacobi iteration drove the
	// off-diagonal mass below tolerance within its sweep budget. ComputeSVD
	// still returns the best-effort factors when false; ComputeSVDChecked
	// turns false into ErrSVDNoConvergence.
	Converged bool
}

// Components returns the principal components as an n×c matrix whose rows
// are the right singular vectors in order of decreasing singular value.
func (d *SVD) Components() *Dense { return d.V.T() }

// leadingComponents returns the first n rows of Components, filled straight
// from the first n columns of V without transposing the rest.
func (d *SVD) leadingComponents(n int) *Dense {
	c, k := d.V.rows, d.V.cols
	out := NewDense(n, c)
	for i := 0; i < c; i++ {
		for j, x := range d.V.data[i*k : i*k+n] {
			out.data[j*c+i] = x
		}
	}
	return out
}

// ComputeSVD computes a thin SVD of x using the one-sided Jacobi method on
// the side with fewer columns. It is accurate for the small dense matrices
// used in schema scoping. x is not modified.
func ComputeSVD(x *Dense) *SVD {
	if x.Rows() < x.Cols() {
		x = x.Clone()
	}
	return decompose(x)
}

// decompose is ComputeSVD for a matrix the caller hands over: a wide x
// becomes the Jacobi working set and is overwritten.
func decompose(x *Dense) *SVD {
	r, c := x.Rows(), x.Cols()
	if r == 0 || c == 0 {
		return &SVD{U: NewDense(r, 0), S: nil, V: NewDense(c, 0), Converged: true}
	}
	if r >= c {
		// The working rows are the columns of x: transpose once.
		s, left, right, ok := jacobiSVD(x.T())
		return &SVD{U: left.T(), S: s, V: right.T(), Converged: ok}
	}
	// For wide matrices decompose the transpose: Xᵀ = U'·S·V'ᵀ implies
	// X = V'·S·U'ᵀ, so U = V' and V = U'. The columns of Xᵀ are the rows of
	// x, so x itself is the working set.
	s, left, right, ok := jacobiSVD(x)
	return &SVD{U: right.T(), S: s, V: left.T(), Converged: ok}
}

// maxJacobiSweeps bounds the one-sided Jacobi iteration; small dense
// schema-scoping matrices converge in a handful of sweeps, so exhausting
// the budget signals a numerically pathological input rather than a matrix
// that merely needs patience.
const maxJacobiSweeps = 60

// jacobiSVD computes the thin SVD of the tall m×n matrix A (m ≥ n) whose
// columns are the n rows of w, rotating the rows of w in place, so every
// working column and every column of V is one contiguous slice. It returns
// the singular values in descending order, the matching left (n×m) and
// right (n×n) singular vectors of A as rows, and whether a full sweep
// finished without rotations inside the budget. The cyclic pair order, the
// ascending accumulation of each inner product and the rotation formulas
// fix the result bit for bit (TestComputeSVDGoldenBits).
func jacobiSVD(w *Dense) (s []float64, left, right *Dense, converged bool) {
	n, m := w.Rows(), w.Cols()
	vt := NewDense(n, n) // row j accumulates column j of V
	for j := 0; j < n; j++ {
		vt.data[j*n+j] = 1
	}

	const tol = 1e-12
	for sweep := 0; sweep < maxJacobiSweeps && !converged; sweep++ {
		converged = true // until a rotation proves otherwise
		for p := 0; p < n-1; p++ {
			ap := w.data[p*m : (p+1)*m]
			for q := p + 1; q < n; q++ {
				aq := w.data[q*m : (q+1)*m]
				aq = aq[:len(ap)]
				var alpha, beta, gamma float64
				for i, x := range ap {
					y := aq[i]
					alpha += x * x
					beta += y * y
					gamma += x * y
				}
				if alpha == 0 || beta == 0 || math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
					continue
				}
				converged = false
				// Jacobi rotation zeroing the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				var t float64
				if zeta > 0 {
					t = 1 / (zeta + math.Sqrt(1+zeta*zeta))
				} else {
					t = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
				}
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t
				rotate(ap, aq, cs, sn)
				rotate(vt.data[p*n:(p+1)*n], vt.data[q*n:(q+1)*n], cs, sn)
			}
		}
	}

	// Singular values are the norms of the rotated columns; normalising the
	// columns gives U. Sort descending, permuting U and V accordingly.
	norms, idx := make([]float64, n), make([]int, n)
	for j := range norms {
		var sq float64
		for _, x := range w.data[j*m : (j+1)*m] {
			sq += x * x
		}
		norms[j], idx[j] = math.Sqrt(sq), j
	}
	sort.SliceStable(idx, func(a, b int) bool { return norms[idx[a]] > norms[idx[b]] })
	s = make([]float64, n)
	left, right = NewDense(n, m), NewDense(n, n)
	for k, j := range idx {
		s[k] = norms[j]
		copy(right.data[k*n:(k+1)*n], vt.data[j*n:(j+1)*n])
		if norms[j] > 0 {
			inv := 1 / norms[j]
			dst := left.data[k*m : (k+1)*m]
			for i, x := range w.data[j*m : (j+1)*m] {
				dst[i] = x * inv
			}
		}
	}
	return s, left, right, converged
}

// rotate applies the plane rotation (cs, sn) to the column pair (x, y).
func rotate(x, y []float64, cs, sn float64) {
	y = y[:len(x)]
	for i, a := range x {
		b := y[i]
		x[i] = cs*a - sn*b
		y[i] = sn*a + cs*b
	}
}

// ExplainedVariance returns the per-component explained-variance ratios
// ev_i = s_i² / Σ s_j² for singular values s (Algorithm 1, lines 6-7).
func ExplainedVariance(s []float64) []float64 {
	out := make([]float64, len(s))
	var sum float64
	for _, v := range s {
		sum += v * v
	}
	if sum == 0 {
		return out
	}
	for i, v := range s {
		out[i] = v * v / sum
	}
	return out
}

// CumulativeSum returns the running sum of v (Algorithm 1, line 8).
func CumulativeSum(v []float64) []float64 {
	out := make([]float64, len(v))
	var s float64
	for i, x := range v {
		s += x
		out[i] = s
	}
	return out
}

// ComponentsForVariance returns the number of leading principal components
// needed so that the cumulative explained variance reaches at least v
// (Algorithm 1, line 9). It always returns at least 1 when any component
// exists, and never more than len(cev).
func ComponentsForVariance(cev []float64, v float64) int {
	if len(cev) == 0 {
		return 0
	}
	for i, c := range cev {
		if c >= v {
			return i + 1
		}
	}
	return len(cev)
}
