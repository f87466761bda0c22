package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestFromRowsAndAccess(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set failed: %v", m.At(0, 0))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	m.At(2, 0)
}

func TestRowColCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 99
	if m.At(1, 0) != 3 {
		t.Fatal("Row must return a copy")
	}
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1) = %v", c)
	}
	cl := m.Clone()
	cl.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must be deep")
	}
}

func TestRowViewAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.RowView(0)[1] = 7
	if m.At(0, 1) != 7 {
		t.Fatal("RowView must alias storage")
	}
}

func TestWrapDenseAdoptsStorage(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := WrapDense(2, 3, data)
	if m.Rows() != 2 || m.Cols() != 3 || m.At(1, 0) != 4 {
		t.Fatalf("shape %dx%d, At(1,0) = %v; want 2x3 and 4", m.Rows(), m.Cols(), m.At(1, 0))
	}
	m.Set(0, 2, 9)
	data[4] = 8
	if data[2] != 9 || m.At(1, 1) != 8 {
		t.Fatal("WrapDense must adopt data, not copy it")
	}
	for _, bad := range []struct{ r, c, n int }{{2, 3, 5}, {2, 3, 7}, {-1, -1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WrapDense(%d, %d) over %d values did not panic", bad.r, bad.c, bad.n)
				}
			}()
			WrapDense(bad.r, bad.c, make([]float64, bad.n))
		}()
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("T shape = %dx%d", mt.Rows(), mt.Cols())
	}
	if mt.At(2, 1) != 6 || mt.At(0, 0) != 1 {
		t.Fatalf("T values wrong: %v %v", mt.At(2, 1), mt.At(0, 0))
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(c, want) > 1e-12 {
		t.Fatalf("Mul = %+v", c)
	}
}

func TestMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	NewDense(2, 3).Mul(NewDense(2, 3))
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 5}})
	if got := a.Add(b); got.At(0, 1) != 7 {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); got.At(0, 0) != 2 {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(3); got.At(0, 1) != 6 {
		t.Fatalf("Scale = %v", got)
	}
}

func TestColMeanAndSubAddRow(t *testing.T) {
	m := FromRows([][]float64{{1, 10}, {3, 20}})
	mean := m.ColMean()
	if mean[0] != 2 || mean[1] != 15 {
		t.Fatalf("ColMean = %v", mean)
	}
	centered := m.SubRow(mean)
	if centered.At(0, 0) != -1 || centered.At(1, 1) != 5 {
		t.Fatalf("SubRow = %+v", centered)
	}
	back := centered.AddRow(mean)
	if MaxAbsDiff(back, m) > 1e-12 {
		t.Fatal("AddRow(SubRow(x)) != x")
	}
}

func TestColMeanEmpty(t *testing.T) {
	m := NewDense(0, 3)
	mean := m.ColMean()
	if len(mean) != 3 || mean[0] != 0 {
		t.Fatalf("empty ColMean = %v", mean)
	}
}

func TestRowMSE(t *testing.T) {
	a := FromRows([][]float64{{0, 0}, {1, 1}})
	b := FromRows([][]float64{{0, 2}, {1, 1}})
	mse := RowMSE(a, b)
	if !almostEqual(mse[0], 2, 1e-12) || mse[1] != 0 {
		t.Fatalf("RowMSE = %v", mse)
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random small matrices.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m, p := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randomMatrix(r, n, m)
		b := randomMatrix(r, m, p)
		left := a.Mul(b).T()
		right := b.T().Mul(a.T())
		return MaxAbsDiff(left, right) < 1e-10
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: mean of mean-centred matrix is zero.
func TestCenteringProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := 1+r.Intn(10), 1+r.Intn(10)
		x := randomMatrix(r, n, m)
		mean := x.ColMean()
		c := x.SubRow(mean).ColMean()
		for _, v := range c {
			if math.Abs(v) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(r *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, r.NormFloat64())
		}
	}
	return m
}
