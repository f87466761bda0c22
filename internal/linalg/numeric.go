package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Numeric-failure taxonomy. Sentinel errors wrapped (with location detail)
// by the checked decomposition entry points, so callers can classify
// failures with errors.Is instead of string matching.
var (
	// ErrNonFinite marks NaN or ±Inf values entering a numeric stage.
	ErrNonFinite = errors.New("linalg: non-finite value")
	// ErrSVDNoConvergence marks a Jacobi SVD that exhausted its sweep
	// budget before the off-diagonal mass fell below tolerance.
	ErrSVDNoConvergence = errors.New("linalg: SVD did not converge")
)

// FirstNonFinite returns the index of the first NaN or ±Inf entry of v, or
// -1 if every entry is finite.
func FirstNonFinite(v []float64) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// WorstOverflow returns the index of the row of x whose squared distance
// from c, Σ_j (x_ij − c_j)², is not finite, or -1 if every row's is. A NaN
// or ±Inf entry makes the sum not finite, and so do finite entries too
// large to square. When several rows overflow it returns the one with the
// largest |x_ij − c_j|, the lowest index on ties: one huge row drags a
// mean far enough that every row's centred squares overflow, and the huge
// row is the one to name.
func WorstOverflow(x *Dense, c []float64) int {
	worst, worstFar := -1, 0.0
	for i := 0; i < x.rows; i++ {
		var sq, far float64
		for j, v := range x.data[i*x.cols : (i+1)*x.cols] {
			v -= c[j]
			sq += v * v
			far = max(far, math.Abs(v))
		}
		if (math.IsNaN(sq) || math.IsInf(sq, 0)) && (worst < 0 || far > worstFar) {
			worst, worstFar = i, far
		}
	}
	return worst
}

// CheckFinite returns a wrapped ErrNonFinite naming the first offending
// cell of x, or nil if the whole matrix is finite.
func CheckFinite(x *Dense) error {
	for i := 0; i < x.Rows(); i++ {
		if j := FirstNonFinite(x.RowView(i)); j >= 0 {
			return fmt.Errorf("%w at row %d, column %d: %v", ErrNonFinite, i, j, x.At(i, j))
		}
	}
	return nil
}

// checkConverged turns a decomposition of an r×c matrix (U is r×n, V is
// c×n) that exhausted the Jacobi sweep budget into ErrSVDNoConvergence.
func checkConverged(d *SVD) (*SVD, error) {
	if !d.Converged {
		return nil, fmt.Errorf("%w within %d sweeps on a %d×%d matrix",
			ErrSVDNoConvergence, maxJacobiSweeps, d.U.Rows(), d.V.Rows())
	}
	return d, nil
}

// FitPCAChecked is FitPCA with the numeric-failure taxonomy enforced:
// non-finite input fails with ErrNonFinite before any work, and a
// decomposition that exhausts the Jacobi sweep budget fails with
// ErrSVDNoConvergence instead of silently returning a half-converged
// result. The centred copy is private to the fit, so it is handed to the
// decomposition as its working set rather than cloned again. The sweeps
// run on up to workers goroutines; the fit is the same bits at any count.
func FitPCAChecked(workers int, x *Dense, variance float64) (*PCA, error) {
	if err := CheckFinite(x); err != nil {
		return nil, err
	}
	mean := x.ColMean()
	centred := x.SubRow(mean)
	// A finite x can still centre to ±Inf when its column sums overflow.
	if err := CheckFinite(centred); err != nil {
		return nil, err
	}
	dec, err := checkConverged(decompose(workers, centred))
	if err != nil {
		return nil, err
	}
	return pcaFromSVD(mean, dec, variance), nil
}
