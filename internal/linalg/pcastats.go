package linalg

import (
	"fmt"
	"math"
)

// PCAStats holds the mergeable sufficient statistics of a PCA fit: the row
// count n, the column sum Σx, and the uncentered scatter Σ xᵀx. Everything
// a PCA needs — mean, covariance, principal components — is a pure function
// of these three, so partial fits computed on disjoint row sets combine by
// componentwise addition (Merge), elements can be added (Update) or removed
// (Downdate) without revisiting the remaining rows, and the accumulated
// state serialises to exact decimal floats, making a persisted-and-reloaded
// accumulator bit-identical to the in-memory one.
//
// # Accumulation order
//
// Every entry point accumulates rows in ascending index order with one
// plain float64 accumulator per cell and no reduction splits, mirroring the
// determinism contract of the kernel layer (DESIGN.md §11). Two
// accumulators fed the same rows in the same order are therefore
// bit-identical; Merge(a, b) is the single reassociation (Σ_a) + (Σ_b) of
// the joint left-to-right sum, so a merged accumulator may differ from a
// one-shot accumulator by ordinary floating-point reassociation — bounded
// by the fit tolerance below, never by order nondeterminism.
//
// # Exactness contract
//
// FitPCAFromStats(AccumulateStats(x), v) reproduces FitPCAChecked(x, v) up
// to the documented StatsFitTolerance: the two paths retain the same number
// of components and agree on explained-variance ratios, per-row
// reconstruction errors, and the derived linkability range within
// StatsFitTolerance relative error (principal components individually are
// only defined up to sign and rotation within ties, so the contract is
// stated on the invariants assessment consumes, not on raw component
// entries). The incremental-exactness suite (make incremental-exactness)
// pins this over seeded random add/remove/merge grids; drift is a red
// build, not a silent quality regression.
type PCAStats struct {
	// N is the number of accumulated rows.
	N int
	// Sum is the per-column sum Σx of the accumulated rows.
	Sum []float64
	// Scatter is the d×d uncentered scatter Σ xᵀx. It is exactly symmetric
	// by construction: cell (j,k) and cell (k,j) accumulate the identical
	// product sequence.
	Scatter *Dense
}

// StatsFitTolerance is the documented relative tolerance within which a
// stats-path fit (FitPCAFromStats) reproduces the from-scratch fit
// (FitPCAChecked): explained-variance ratios, reconstruction errors, and
// the linkability range agree to this relative error (with an equal
// absolute floor for values near zero). The CI exactness gate pins it.
//
// The stats path squares the data's condition number — it decomposes the
// scatter Σxᵀx whose eigenvalues are the squared singular values — so it
// carries roughly half the digits of the direct SVD; 1e-6 leaves two
// decades of headroom over the error observed on the pinned grids.
const StatsFitTolerance = 1e-6

// NewPCAStats returns an empty accumulator for d-dimensional rows.
func NewPCAStats(d int) *PCAStats {
	if d <= 0 {
		panic(fmt.Sprintf("linalg: non-positive stats dimension %d", d))
	}
	return &PCAStats{Sum: make([]float64, d), Scatter: NewDense(d, d)}
}

// AccumulateStats folds every row of x, in ascending index order, into a
// fresh accumulator.
func AccumulateStats(x *Dense) *PCAStats {
	s := NewPCAStats(x.Cols())
	s.UpdateRows(x)
	return s
}

// Dim returns the row dimensionality the accumulator was built for.
func (s *PCAStats) Dim() int { return len(s.Sum) }

// Clone returns a deep copy.
func (s *PCAStats) Clone() *PCAStats {
	out := &PCAStats{N: s.N, Sum: make([]float64, len(s.Sum)), Scatter: s.Scatter.Clone()}
	copy(out.Sum, s.Sum)
	return out
}

// Update folds one row into the accumulator.
func (s *PCAStats) Update(row []float64) {
	s.apply(row, +1)
	s.N++
}

// Downdate removes one previously accumulated row. Removing a row that was
// never accumulated is not detectable here — the caller owns membership —
// but an empty accumulator refuses to go negative.
func (s *PCAStats) Downdate(row []float64) error {
	if s.N == 0 {
		return fmt.Errorf("linalg: downdate of an empty accumulator")
	}
	s.apply(row, -1)
	s.N--
	return nil
}

// UpdateRows folds every row of x in ascending index order.
func (s *PCAStats) UpdateRows(x *Dense) {
	for i := 0; i < x.Rows(); i++ {
		s.Update(x.RowView(i))
	}
}

// DowndateRows removes every row of x in ascending index order.
func (s *PCAStats) DowndateRows(x *Dense) error {
	for i := 0; i < x.Rows(); i++ {
		if err := s.Downdate(x.RowView(i)); err != nil {
			return err
		}
	}
	return nil
}

// apply adds (sign=+1) or subtracts (sign=-1) one row's contribution. The
// j≤k triangle is computed once and mirrored, keeping the scatter exactly
// symmetric under both update and downdate.
func (s *PCAStats) apply(row []float64, sign float64) {
	d := len(s.Sum)
	if len(row) != d {
		panic(fmt.Sprintf("linalg: stats row has %d values, accumulator is %d-dimensional", len(row), d))
	}
	for j := 0; j < d; j++ {
		s.Sum[j] += sign * row[j]
		base := j * d
		for k := j; k < d; k++ {
			v := sign * row[j] * row[k]
			s.Scatter.data[base+k] += v
			if k != j {
				s.Scatter.data[k*d+j] += v
			}
		}
	}
}

// MergePCAStats returns the componentwise sum of two accumulators built
// over disjoint row sets — the distributed-training merge: shards
// accumulate locally and only the (n, Σx, Σxᵀx) triple travels, never rows.
func MergePCAStats(a, b *PCAStats) (*PCAStats, error) {
	if a.Dim() != b.Dim() {
		return nil, fmt.Errorf("linalg: merge of %d-dimensional stats with %d-dimensional stats", a.Dim(), b.Dim())
	}
	out := a.Clone()
	out.N += b.N
	for j := range out.Sum {
		out.Sum[j] += b.Sum[j]
	}
	for i := range out.Scatter.data {
		out.Scatter.data[i] += b.Scatter.data[i]
	}
	return out, nil
}

// Mean returns the column mean Σx / n. It errors on an empty accumulator.
func (s *PCAStats) Mean() ([]float64, error) {
	if s.N == 0 {
		return nil, fmt.Errorf("linalg: mean of an empty accumulator")
	}
	mean := make([]float64, len(s.Sum))
	inv := 1 / float64(s.N)
	for j, v := range s.Sum {
		mean[j] = v * inv
	}
	return mean, nil
}

// FitPCAFromStats fits a PCA from sufficient statistics alone: the centered
// scatter Σxᵀx − n·μμᵀ is eigendecomposed (via the Jacobi SVD, exact for a
// symmetric PSD matrix), its eigenvalues are the squared singular values of
// the mean-centred data, and its eigenvectors are the principal components.
// The fit obeys the numeric-failure taxonomy: non-finite accumulated state
// fails with ErrNonFinite, a non-converging decomposition with
// ErrSVDNoConvergence, and an empty accumulator or out-of-range variance
// target with a plain validation error.
//
// The result matches FitPCAChecked over the same rows within
// StatsFitTolerance (see the type comment for the exact contract).
func FitPCAFromStats(s *PCAStats, variance float64) (*PCA, error) {
	if s.N == 0 {
		return nil, fmt.Errorf("linalg: cannot fit a PCA from an empty accumulator")
	}
	if variance <= 0 || variance > 1 {
		return nil, fmt.Errorf("linalg: explained variance %v outside (0, 1]", variance)
	}
	if j := FirstNonFinite(s.Sum); j >= 0 {
		return nil, fmt.Errorf("%w in accumulated sum at dimension %d", ErrNonFinite, j)
	}
	if err := CheckFinite(s.Scatter); err != nil {
		return nil, fmt.Errorf("accumulated scatter: %w", err)
	}
	mean, err := s.Mean()
	if err != nil {
		return nil, err
	}
	d := s.Dim()
	centered := NewDense(d, d)
	n := float64(s.N)
	for j := 0; j < d; j++ {
		srow := s.Scatter.RowView(j)
		crow := centered.RowView(j)
		for k := 0; k < d; k++ {
			crow[k] = srow[k] - n*mean[j]*mean[k]
		}
	}
	dec := ComputeSVD(centered)
	if !dec.Converged {
		return nil, fmt.Errorf("%w within %d sweeps on the %d×%d centered scatter",
			ErrSVDNoConvergence, maxJacobiSweeps, d, d)
	}
	// The thin SVD of the n×d centred data has min(n, d) singular values;
	// mirror that count so explained-variance ratios line up with the
	// from-scratch fit. Cancellation can leave tiny negative eigenvalues on
	// a rank-deficient scatter; clamp before the square root.
	r := d
	if s.N < r {
		r = s.N
	}
	sing := make([]float64, r)
	for i := 0; i < r; i++ {
		if dec.S[i] > 0 {
			sing[i] = math.Sqrt(dec.S[i])
		}
	}
	ev := ExplainedVariance(sing)
	cev := CumulativeSum(ev)
	nc := ComponentsForVariance(cev, variance)
	return &PCA{
		Mean:       mean,
		Components: dec.leadingComponents(nc),
		Singular:   sing,
		Explained:  ev,
		Cumulative: cev,
		NComp:      nc,
	}, nil
}
