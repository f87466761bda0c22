package linalg

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
	// still returns the best-effort factors when false; FitPCAChecked
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
	return decompose(1, x)
}

// decompose is ComputeSVD for a matrix the caller hands over: a wide x
// becomes the Jacobi working set and is overwritten. The sweeps run on up
// to workers goroutines, and the result is the same bits at any count
// (see jacobiSVD).
func decompose(workers int, x *Dense) *SVD {
	r, c := x.Rows(), x.Cols()
	if r == 0 || c == 0 {
		return &SVD{U: NewDense(r, 0), S: nil, V: NewDense(c, 0), Converged: true}
	}
	if r >= c {
		// The working rows are the columns of x: transpose once.
		s, left, right, ok := jacobiSVD(workers, x.T())
		return &SVD{U: left.T(), S: s, V: right.T(), Converged: ok}
	}
	// For wide matrices decompose the transpose: Xᵀ = U'·S·V'ᵀ implies
	// X = V'·S·U'ᵀ, so U = V' and V = U'. The columns of Xᵀ are the rows of
	// x, so x itself is the working set.
	s, left, right, ok := jacobiSVD(workers, x)
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
// finished without rotations inside the budget. The cyclic-by-rows pair
// order, the ascending accumulation of each inner product and the rotation
// formulas fix the result bit for bit (TestComputeSVDGoldenBits); each
// sweep applies that order as a wavefront on up to workers goroutines
// (jacobiTeam), which keeps every bit.
func jacobiSVD(workers int, w *Dense) (s []float64, left, right *Dense, converged bool) {
	n, m := w.Rows(), w.Cols()
	vt := NewDense(n, n) // row j accumulates column j of V
	for j := 0; j < n; j++ {
		vt.data[j*n+j] = 1
	}
	team := newJacobiTeam(workers, w, vt)
	for sweep := 0; sweep < maxJacobiSweeps && !converged; sweep++ {
		converged = !team.sweep()
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

// jacobiTeam applies the rotations of one Jacobi sweep to the rows of the
// working set w and of vt (Vᵀ) on a team of goroutines.
//
// Rotation (p, q) reads and writes rows p and q only. The cyclic-by-rows
// order visits row r's pairs as (0,r), (1,r), …, (r−1,r), (r,r+1), …,
// (r,n−1), whose levels p+q rise strictly along that list. So the pairs of
// one level share no row, and a sweep that walks the levels 1 … 2n−3 in
// order applies the same rotations to every row in the same order as the
// cyclic-by-rows loop: the wavefront form of that ordering (Luk and Park,
// "On parallel Jacobi orderings", SIAM J. Sci. Stat. Comput. 10(1), 1989).
// The bits are the same at any member count.
//
// Member k takes the k-th contiguous block of every level's pairs. Instead
// of a barrier per level, pair (p, q) waits until row p has finished q−1
// pair operations in this sweep and row q has finished p: each row's
// previous operation, (p, q−1) or (p−1, p) on row p and (p−1, q) on row q,
// has then been applied. Joining the members is the sweep's one barrier,
// where the convergence decision is taken.
type jacobiTeam struct {
	w, vt   *Dense
	workers int
	// done[r] counts the pair operations row r has finished in the
	// current sweep; nil for a team of one, which needs no ordering.
	done []rowCount
	// abort tells waiting members to give up: another member panicked.
	abort atomic.Bool
}

// rowCount is a row's progress counter, padded to a cache line of its
// own so that members advancing neighbouring rows do not share one.
type rowCount struct {
	atomic.Int32
	_ [60]byte
}

// awaitSpins is how many times a member polls a row counter before it
// starts yielding the processor, so that members sharing one processor
// (GOMAXPROCS 1) still make progress.
const awaitSpins = 64

// newJacobiTeam sizes the team for n working rows: no level holds more
// than n/2 pairs, so no more members than that can all be busy.
func newJacobiTeam(workers int, w, vt *Dense) *jacobiTeam {
	t := &jacobiTeam{w: w, vt: vt, workers: max(1, min(workers, w.rows/2))}
	if t.workers > 1 {
		t.done = make([]rowCount, w.rows)
	}
	return t
}

// sweep applies one sweep and reports whether any pair rotated. Members
// 1 … workers−1 run on goroutines of their own and member 0 on the
// caller's; a team of one starts no goroutine. A member that panics
// releases the members waiting on its rows, and the panic is raised
// again on the caller's goroutine once every member has returned.
func (t *jacobiTeam) sweep() bool {
	if t.workers == 1 {
		return t.member(0)
	}
	rotated := make([]bool, t.workers)
	fault := make([]any, t.workers)
	run := func(k int) {
		defer func() {
			if fault[k] = recover(); fault[k] != nil {
				t.abort.Store(true)
			}
		}()
		rotated[k] = t.member(k)
	}
	var wg sync.WaitGroup
	wg.Add(t.workers - 1)
	for k := 1; k < t.workers; k++ {
		go func(k int) {
			defer wg.Done()
			run(k)
		}(k)
	}
	run(0)
	wg.Wait()
	for _, v := range fault {
		if v != nil {
			panic(v)
		}
	}
	for r := range t.done {
		t.done[r].Store(0)
	}
	return slices.Contains(rotated, true)
}

// member applies member k's pairs of one sweep, level by level, and
// reports whether any of them rotated. Level L holds the pairs (p, L−p)
// with p < L−p < n.
func (t *jacobiTeam) member(k int) (rotated bool) {
	n := t.w.rows
	for level := 1; level <= 2*n-3; level++ {
		lo, hi := max(0, level-n+1), (level+1)/2
		span := hi - lo
		for p := lo + k*span/t.workers; p < lo+(k+1)*span/t.workers; p++ {
			q := level - p
			if t.done != nil && !(t.await(p, q-1) && t.await(q, p)) {
				return rotated
			}
			if t.rotatePair(p, q) {
				rotated = true
			}
			if t.done != nil {
				t.done[p].Add(1)
				t.done[q].Add(1)
			}
		}
	}
	return rotated
}

// await waits until row has finished want pair operations in this sweep.
// It reports false when the team is aborting.
func (t *jacobiTeam) await(row, want int) bool {
	for spin := 0; int(t.done[row].Load()) < want; spin++ {
		if t.abort.Load() {
			return false
		}
		if spin >= awaitSpins {
			runtime.Gosched()
		}
	}
	return true
}

// rotatePair applies the Jacobi rotation that zeroes the inner product of
// working rows p and q, unless it is already negligible, and reports
// whether it rotated.
//
// The tangent is t = sign(ζ)/(|ζ| + √(1+ζ²)). Past |ζ| = 1e150, where
// 1+ζ² rounds to ζ² and √(ζ²) to |ζ|, that formula gives the correctly
// rounded 1/(2ζ), which 0.5/ζ gives too, without squaring ζ: beyond
// 1.3e154 ζ² overflows, t becomes 0 and the identity "rotation" would
// count as one every sweep. A working row decayed to a null direction of
// a rank-deficient input (n ≥ d with a duplicated row) reaches such ζ.
func (t *jacobiTeam) rotatePair(p, q int) bool {
	const tol = 1e-12
	n, m := t.vt.cols, t.w.cols
	ap := t.w.data[p*m : (p+1)*m]
	aq := t.w.data[q*m : (q+1)*m]
	aq = aq[:len(ap)]
	var alpha, beta, gamma float64
	for i, x := range ap {
		y := aq[i]
		alpha += x * x
		beta += y * y
		gamma += x * y
	}
	if alpha == 0 || beta == 0 || math.Abs(gamma) <= tol*math.Sqrt(alpha*beta) {
		return false
	}
	zeta := (beta - alpha) / (2 * gamma)
	var tn float64
	switch {
	case math.Abs(zeta) > 1e150:
		tn = 0.5 / zeta
	case zeta > 0:
		tn = 1 / (zeta + math.Sqrt(1+zeta*zeta))
	default:
		tn = -1 / (-zeta + math.Sqrt(1+zeta*zeta))
	}
	cs := 1 / math.Sqrt(1+tn*tn)
	sn := cs * tn
	rotate(ap, aq, cs, sn)
	rotate(t.vt.data[p*n:(p+1)*n], t.vt.data[q*n:(q+1)*n], cs, sn)
	return true
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
