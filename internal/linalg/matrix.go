// Package linalg provides the dense linear-algebra substrate used by the
// scoping pipelines: matrices, vector operations, mean-centering, a
// one-sided Jacobi singular value decomposition, explained-variance
// bookkeeping, and PCA encode/decode with per-row reconstruction errors.
//
// The matrices involved in schema scoping are small (at most a few hundred
// rows of a few hundred columns). Speed comes from memory layout rather
// than from reordered arithmetic: the GEMM, distance and cosine kernels are
// blocked (kernel.go), and the Jacobi SVD keeps every working column in one
// contiguous slice (svd.go). Each reduction still accumulates in one fixed
// order, so every kernel is bit-identical to the plain loop it replaced
// (DESIGN.md §11).
package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
//
// The zero value is an empty matrix. Use NewDense, WrapDense or FromRows
// to construct a sized one.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// WrapDense returns an r×c matrix that adopts data as its row-major
// storage: nothing is copied, so a write through either shows in both. It
// panics unless len(data) == r*c.
func WrapDense(r, c int, data []float64) *Dense {
	if r < 0 || c < 0 || len(data) != r*c {
		panic(fmt.Sprintf("linalg: %d values for a %dx%d matrix", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return &Dense{}
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RowView returns row i backed by the matrix storage. Mutating the returned
// slice mutates the matrix.
func (m *Dense) RowView(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// LeadingRows returns a view of the first r rows backed by the same
// storage — the resizing trick batched hot paths use to reuse one scratch
// matrix for a final short batch. Mutating the view mutates m.
func (m *Dense) LeadingRows(r int) *Dense {
	if r < 0 || r > m.rows {
		panic(fmt.Sprintf("linalg: leading rows %d out of range %d", r, m.rows))
	}
	return &Dense{rows: r, cols: m.cols, data: m.data[:r*m.cols]}
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range %d", j, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out
}

// Add returns m + b element-wise.
func (m *Dense) Add(b *Dense) *Dense {
	m.sameShape(b)
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out
}

// Sub returns m − b element-wise.
func (m *Dense) Sub(b *Dense) *Dense {
	m.sameShape(b)
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

// Scale returns s·m.
func (m *Dense) Scale(s float64) *Dense {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

func (m *Dense) sameShape(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("linalg: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
}

// ColMean returns the per-column mean vector of the matrix.
func (m *Dense) ColMean() []float64 {
	mean := make([]float64, m.cols)
	if m.rows == 0 {
		return mean
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			mean[j] += v
		}
	}
	inv := 1 / float64(m.rows)
	for j := range mean {
		mean[j] *= inv
	}
	return mean
}

// SubRow returns a new matrix with vector v subtracted from every row.
func (m *Dense) SubRow(v []float64) *Dense {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: row vector length %d, want %d", len(v), m.cols))
	}
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j := range row {
			row[j] -= v[j]
		}
	}
	return out
}

// AddRow returns a new matrix with vector v added to every row.
func (m *Dense) AddRow(v []float64) *Dense {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: row vector length %d, want %d", len(v), m.cols))
	}
	out := m.Clone()
	for i := 0; i < out.rows; i++ {
		row := out.data[i*out.cols : (i+1)*out.cols]
		for j := range row {
			row[j] += v[j]
		}
	}
	return out
}

// RowMSE returns the per-row mean squared error between m and b.
func RowMSE(m, b *Dense) []float64 {
	m.sameShape(b)
	out := make([]float64, m.rows)
	if m.cols == 0 {
		return out
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		mr := m.data[i*m.cols : (i+1)*m.cols]
		br := b.data[i*m.cols : (i+1)*m.cols]
		for j := range mr {
			d := mr[j] - br[j]
			s += d * d
		}
		out[i] = s / float64(m.cols)
	}
	return out
}

// RowMSEInto is RowMSE writing into a caller-supplied slice of length
// m.Rows(), allocating nothing.
func RowMSEInto(dst []float64, m, b *Dense) []float64 {
	m.sameShape(b)
	if len(dst) != m.rows {
		panic(fmt.Sprintf("linalg: RowMSEInto dst length %d, want %d", len(dst), m.rows))
	}
	if m.cols == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		mr := m.data[i*m.cols : (i+1)*m.cols]
		br := b.data[i*m.cols : (i+1)*m.cols]
		for j := range mr {
			d := mr[j] - br[j]
			s += d * d
		}
		dst[i] = s / float64(m.cols)
	}
	return dst
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// two matrices, useful for approximate-equality assertions.
func MaxAbsDiff(a, b *Dense) float64 {
	a.sameShape(b)
	var max float64
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > max {
			max = d
		}
	}
	return max
}
