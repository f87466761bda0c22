package linalg

// This file is the blocked numeric kernel layer every compute-heavy stage
// of the pipeline runs on (DESIGN.md §11): GEMM, pairwise squared-distance
// and cosine-similarity panels, per-query row distances, row norms, and
// heap-based top-k selection.
//
// The contract, relied on by the golden tests and the bit-identical-at-any-
// worker-count pipeline invariant:
//
//   - Deterministic accumulation: every kernel accumulates each output cell
//     in ascending inner-dimension order — the exact order of the naive
//     Dot / SquaredDistance / Mul loops it replaces — so kernel results are
//     bit-identical to the pre-kernel implementations, not merely close.
//     Blocking only re-tiles the independent output cells, never the order
//     of additions within one cell.
//   - Caller-owned destinations and scratch: kernels never allocate. The
//     caller supplies dst (and, for top-k, the reusable index scratch), so
//     steady-state hot paths run at 0 allocs/op.
//   - No aliasing: dst must not share storage with an input matrix.
//
// Row-blocked parallel variants live in kernel_parallel.go.
import (
	"fmt"
	"math"
)

// kernelTile is the row-tile edge of the dot-product panels (MulTransInto,
// pairwise distance / cosine): an output tile revisits each input row
// kernelTile times while it is still cache-resident.
const kernelTile = 32

// kernelPanel is the column-panel width of MulInto: the k×kernelPanel
// panel of b streamed per output panel stays within L2 for the dimensions
// the pipeline uses.
const kernelPanel = 256

func checkDst(op string, dst *Dense, r, c int) {
	if dst.rows != r || dst.cols != c {
		panic(fmt.Sprintf("linalg: %s dst is %dx%d, want %dx%d", op, dst.rows, dst.cols, r, c))
	}
}

func checkNoAlias(op string, dst *Dense, srcs ...*Dense) {
	if len(dst.data) == 0 {
		return
	}
	for _, s := range srcs {
		if len(s.data) != 0 && &dst.data[0] == &s.data[0] {
			panic(fmt.Sprintf("linalg: %s dst aliases an input", op))
		}
	}
}

// MulInto computes dst = a·b with a column-panelled inner loop and returns
// dst. Each dst cell accumulates over k in ascending order, bit-identical
// to Dense.Mul. dst must be a.Rows()×b.Cols() and must not alias a or b.
func MulInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: MulInto dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	checkDst("MulInto", dst, a.rows, b.cols)
	checkNoAlias("MulInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	MulAccInto(dst, a, b)
	return dst
}

// MulAccInto computes dst += a·b, accumulating over k in ascending order on
// top of the existing dst values. Shapes as in MulInto.
func MulAccInto(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: MulAccInto dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	checkDst("MulAccInto", dst, a.rows, b.cols)
	checkNoAlias("MulAccInto", dst, a, b)
	for jb := 0; jb < b.cols; jb += kernelPanel {
		je := jb + kernelPanel
		if je > b.cols {
			je = b.cols
		}
		for i := 0; i < a.rows; i++ {
			ai := a.data[i*a.cols : (i+1)*a.cols]
			oi := dst.data[i*dst.cols+jb : i*dst.cols+je]
			for k, aik := range ai {
				if aik == 0 {
					continue
				}
				bk := b.data[k*b.cols+jb : k*b.cols+je]
				for j, bkj := range bk {
					oi[j] += aik * bkj
				}
			}
		}
	}
	return dst
}

// MulTransInto computes dst = a·bᵀ — dst[i][j] = ⟨a_i, b_j⟩ over the shared
// column dimension — with tiled row blocks. The dot accumulation is
// ascending, bit-identical to Dot. dst must be a.Rows()×b.Rows().
func MulTransInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("linalg: MulTransInto column mismatch %d vs %d", a.cols, b.cols))
	}
	checkDst("MulTransInto", dst, a.rows, b.rows)
	checkNoAlias("MulTransInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	MulTransAccInto(dst, a, b)
	return dst
}

// MulTransAccInto computes dst += a·bᵀ on top of the existing dst values —
// the batched affine form dst[i][j] = init[i][j] + ⟨a_i, b_j⟩ the neural
// layers use with a bias-filled dst. Shapes as in MulTransInto.
func MulTransAccInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("linalg: MulTransAccInto column mismatch %d vs %d", a.cols, b.cols))
	}
	checkDst("MulTransAccInto", dst, a.rows, b.rows)
	checkNoAlias("MulTransAccInto", dst, a, b)
	d := a.cols
	for ib := 0; ib < a.rows; ib += kernelTile {
		ie := ib + kernelTile
		if ie > a.rows {
			ie = a.rows
		}
		for jb := 0; jb < b.rows; jb += kernelTile {
			je := jb + kernelTile
			if je > b.rows {
				je = b.rows
			}
			for i := ib; i < ie; i++ {
				ai := a.data[i*d : (i+1)*d]
				oi := dst.data[i*dst.cols : (i+1)*dst.cols]
				for j := jb; j < je; j++ {
					bj := b.data[j*d : (j+1)*d]
					s := oi[j]
					for k, aik := range ai {
						s += aik * bj[k]
					}
					oi[j] = s
				}
			}
		}
	}
	return dst
}

// MulATBInto computes dst = aᵀ·b — dst[o][j] = Σ_s a[s][o]·b[s][j] — as a
// sequence of rank-1 updates in ascending row (s) order, the accumulation
// order of a per-sample gradient loop. No transpose is materialised. dst
// must be a.Cols()×b.Cols().
func MulATBInto(dst, a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic(fmt.Sprintf("linalg: MulATBInto row mismatch %d vs %d", a.rows, b.rows))
	}
	checkDst("MulATBInto", dst, a.cols, b.cols)
	checkNoAlias("MulATBInto", dst, a, b)
	for i := range dst.data {
		dst.data[i] = 0
	}
	for s := 0; s < a.rows; s++ {
		as := a.data[s*a.cols : (s+1)*a.cols]
		bs := b.data[s*b.cols : (s+1)*b.cols]
		for o, v := range as {
			if v == 0 {
				continue
			}
			do := dst.data[o*dst.cols : (o+1)*dst.cols]
			for j, bj := range bs {
				do[j] += v * bj
			}
		}
	}
	return dst
}

// RowNormsInto fills dst[i] with the Euclidean norm of row i of m — the
// one-pass-per-set precomputation the cosine kernel consumes — and returns
// dst. Each norm is √⟨row, row⟩, bit-identical to Norm.
func RowNormsInto(dst []float64, m *Dense) []float64 {
	if len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: RowNormsInto dst length %d, want %d", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for _, v := range row {
			s += v * v
		}
		dst[i] = math.Sqrt(s)
	}
	return dst
}

// RowSquaredDistancesInto fills dst[i] with the squared Euclidean distance
// between v and row i of m — the per-query panel of a flat nearest-
// neighbour scan — and returns dst. Accumulation matches SquaredDistance.
func RowSquaredDistancesInto(dst []float64, m *Dense, v []float64) []float64 {
	if len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: RowSquaredDistancesInto dst length %d, want %d", len(dst), m.rows))
	}
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: RowSquaredDistancesInto query length %d, want %d", len(v), m.cols))
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for k, rv := range row {
			d := v[k] - rv
			s += d * d
		}
		dst[i] = s
	}
	return dst
}

// PairwiseSquaredDistancesInto fills dst[i][j] with the squared Euclidean
// distance between row i of a and row j of b, tiled like MulTransInto.
// When a and b are the same matrix the symmetric half is computed once and
// mirrored ((x−y)² is exactly (y−x)², so the mirror is bit-identical to
// recomputation) with a zero diagonal. dst must be a.Rows()×b.Rows().
func PairwiseSquaredDistancesInto(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("linalg: pairwise distance column mismatch %d vs %d", a.cols, b.cols))
	}
	checkDst("PairwiseSquaredDistancesInto", dst, a.rows, b.rows)
	checkNoAlias("PairwiseSquaredDistancesInto", dst, a, b)
	if sameMatrix(a, b) {
		for i := 0; i < a.rows; i++ {
			di := dst.data[i*dst.cols : (i+1)*dst.cols]
			di[i] = 0
			pairRowSquared(di, a, b, i, i+1, b.rows)
			for j := i + 1; j < b.rows; j++ {
				dst.data[j*dst.cols+i] = di[j]
			}
		}
		return dst
	}
	for ib := 0; ib < a.rows; ib += kernelTile {
		ie := ib + kernelTile
		if ie > a.rows {
			ie = a.rows
		}
		for jb := 0; jb < b.rows; jb += kernelTile {
			je := jb + kernelTile
			if je > b.rows {
				je = b.rows
			}
			for i := ib; i < ie; i++ {
				pairRowSquared(dst.data[i*dst.cols:(i+1)*dst.cols], a, b, i, jb, je)
			}
		}
	}
	return dst
}

// pairRowSquared fills di[j] for j in [jb, je) with the squared distance
// between row i of a and row j of b. Four cells share each pass over ai,
// one accumulator each, so four independent add chains run side by side;
// every cell still sums its terms alone, in ascending k.
func pairRowSquared(di []float64, a, b *Dense, i, jb, je int) {
	d := a.cols
	ai := a.data[i*d : (i+1)*d]
	j := jb
	for ; j+4 <= je; j += 4 {
		b0 := b.data[j*d : (j+1)*d]
		b1 := b.data[(j+1)*d : (j+2)*d]
		b2 := b.data[(j+2)*d : (j+3)*d]
		b3 := b.data[(j+3)*d : (j+4)*d]
		var s0, s1, s2, s3 float64
		for k, aik := range ai {
			d0 := aik - b0[k]
			d1 := aik - b1[k]
			d2 := aik - b2[k]
			d3 := aik - b3[k]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
	}
	for ; j < je; j++ {
		bj := b.data[j*d : (j+1)*d]
		var s float64
		for k, aik := range ai {
			dk := aik - bj[k]
			s += dk * dk
		}
		di[j] = s
	}
}

// PairwiseDistancesInto is PairwiseSquaredDistancesInto followed by an
// element-wise square root — the Euclidean distance matrix the density and
// linkage algorithms consume.
func PairwiseDistancesInto(dst, a, b *Dense) *Dense {
	PairwiseSquaredDistancesInto(dst, a, b)
	for i := range dst.data {
		dst.data[i] = math.Sqrt(dst.data[i])
	}
	return dst
}

// CosineSimilaritiesInto fills dst[i][j] with the cosine similarity of row
// i of a and row j of b using the precomputed row norms (RowNormsInto), so
// the O(n·m) pair loop never recomputes a norm. A zero-norm row yields 0,
// matching CosineSimilarity. dst must be a.Rows()×b.Rows().
func CosineSimilaritiesInto(dst, a, b *Dense, aNorms, bNorms []float64) *Dense {
	if a.cols != b.cols {
		panic(fmt.Sprintf("linalg: cosine column mismatch %d vs %d", a.cols, b.cols))
	}
	if len(aNorms) != a.rows || len(bNorms) != b.rows {
		panic(fmt.Sprintf("linalg: cosine norm lengths %d/%d, want %d/%d", len(aNorms), len(bNorms), a.rows, b.rows))
	}
	checkDst("CosineSimilaritiesInto", dst, a.rows, b.rows)
	checkNoAlias("CosineSimilaritiesInto", dst, a, b)
	d := a.cols
	for ib := 0; ib < a.rows; ib += kernelTile {
		ie := ib + kernelTile
		if ie > a.rows {
			ie = a.rows
		}
		for jb := 0; jb < b.rows; jb += kernelTile {
			je := jb + kernelTile
			if je > b.rows {
				je = b.rows
			}
			for i := ib; i < ie; i++ {
				ai := a.data[i*d : (i+1)*d]
				oi := dst.data[i*dst.cols : (i+1)*dst.cols]
				na := aNorms[i]
				for j := jb; j < je; j++ {
					nb := bNorms[j]
					if na == 0 || nb == 0 {
						oi[j] = 0
						continue
					}
					bj := b.data[j*d : (j+1)*d]
					var s float64
					for k, aik := range ai {
						s += aik * bj[k]
					}
					oi[j] = s / (na * nb)
				}
			}
		}
	}
	return dst
}

// sameMatrix reports whether a and b are backed by the same storage, i.e.
// the pairwise kernels may exploit symmetry.
func sameMatrix(a, b *Dense) bool {
	return a == b || (len(a.data) > 0 && len(b.data) > 0 &&
		&a.data[0] == &b.data[0] && a.rows == b.rows && a.cols == b.cols)
}

// TopKInto selects the indices of the k smallest values in vals using a
// bounded max-heap — no sort of the full slice, no allocation once scratch
// has warmed up. Ties break toward the smaller index, matching a stable
// ascending sort. It returns the (possibly grown) scratch whose first
// min(k, len(vals)) entries are the selected indices in ascending
// (value, index) order; callers keep the returned slice for reuse. Values
// must not be NaN.
func TopKInto(vals []float64, k int, scratch []int) []int {
	if k > len(vals) {
		k = len(vals)
	}
	if k <= 0 {
		return scratch[:0]
	}
	if cap(scratch) < k {
		scratch = make([]int, 0, k)
	}
	h := scratch[:0]
	// worse reports whether index x ranks after index y: greater value, or
	// equal value at a greater index.
	worse := func(x, y int) bool {
		return vals[x] > vals[y] || (vals[x] == vals[y] && x > y)
	}
	siftDown := func(n, at int) {
		for {
			l := 2*at + 1
			if l >= n {
				return
			}
			top := l
			if r := l + 1; r < n && worse(h[r], h[l]) {
				top = r
			}
			if !worse(h[top], h[at]) {
				return
			}
			h[at], h[top] = h[top], h[at]
			at = top
		}
	}
	for i := range vals {
		if len(h) < k {
			h = append(h, i)
			// Sift up.
			for at := len(h) - 1; at > 0; {
				parent := (at - 1) / 2
				if !worse(h[at], h[parent]) {
					break
				}
				h[at], h[parent] = h[parent], h[at]
				at = parent
			}
			continue
		}
		if worse(h[0], i) {
			h[0] = i
			siftDown(k, 0)
		}
	}
	// Heap-sort in place: repeatedly move the worst survivor to the end,
	// leaving ascending (value, index) order.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(end, 0)
	}
	return h[:k]
}
