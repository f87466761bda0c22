package linalg

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestFirstNonFinite(t *testing.T) {
	cases := []struct {
		v    []float64
		want int
	}{
		{nil, -1},
		{[]float64{0, 1, -2.5}, -1},
		{[]float64{0, math.NaN(), 1}, 1},
		{[]float64{math.Inf(1)}, 0},
		{[]float64{1, 2, math.Inf(-1)}, 2},
	}
	for _, c := range cases {
		if got := FirstNonFinite(c.v); got != c.want {
			t.Errorf("FirstNonFinite(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestWorstOverflow(t *testing.T) {
	x := NewDense(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, float64(i+j))
		}
	}
	zero := make([]float64, 3)
	if got := WorstOverflow(x, zero); got != -1 {
		t.Fatalf("finite rows: got %d, want -1", got)
	}
	x.Set(1, 2, math.NaN())
	if got := WorstOverflow(x, zero); got != 1 {
		t.Fatalf("NaN row: got %d, want 1", got)
	}
	x.Set(1, 2, 0)
	// Rows 2 and 3 both square past the float64 range; row 3 lies farther
	// from zero.
	x.Set(2, 0, 1e199)
	x.Set(3, 1, 1e200)
	if got := WorstOverflow(x, zero); got != 3 {
		t.Fatalf("huge rows: got %d, want 3", got)
	}
	// Centred on 9e199 in column 1 every row overflows: rows 0–2 lie about
	// 9e199 from the centre and row 3 only 1e199, so the lowest of the
	// farthest is named.
	if got := WorstOverflow(x, []float64{0, 9e199, 0}); got != 0 {
		t.Fatalf("centred on 9e199: got %d, want 0", got)
	}
}

func TestCheckFiniteNamesTheCell(t *testing.T) {
	x := NewDense(3, 2)
	if err := CheckFinite(x); err != nil {
		t.Fatalf("all-zero matrix: %v", err)
	}
	x.Set(2, 1, math.NaN())
	err := CheckFinite(x)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), "row 2") || !strings.Contains(err.Error(), "column 1") {
		t.Fatalf("err %q does not name the offending cell", err)
	}
}

func TestComputeSVDReportsConvergence(t *testing.T) {
	x := NewDense(4, 3)
	vals := []float64{1, 2, 0, 0.5, 1, 3, 2, 0.25, 1, 4, 1, 0}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, vals[i*3+j])
		}
	}
	d := ComputeSVD(x)
	if !d.Converged {
		t.Fatal("tall matrix not marked converged")
	}
	// Degenerate shapes converge trivially.
	if d := ComputeSVD(NewDense(0, 3)); !d.Converged {
		t.Fatal("empty matrix not marked converged")
	}
	if d := ComputeSVD(NewDense(3, 0)); !d.Converged {
		t.Fatal("zero-column matrix not marked converged")
	}
	// The wide-matrix transpose path must propagate the flag too.
	if d := ComputeSVD(x.T()); !d.Converged {
		t.Fatal("wide matrix not marked converged")
	}
}

// TestCheckConvergedNamesTheInputShape pins the no-convergence error: it
// wraps ErrSVDNoConvergence and names the sweep budget and the r×c shape of
// the decomposed matrix (U is r×n, V is c×n).
func TestCheckConvergedNamesTheInputShape(t *testing.T) {
	d := &SVD{U: NewDense(5, 3), S: make([]float64, 3), V: NewDense(7, 3)}
	_, err := checkConverged(d)
	if !errors.Is(err, ErrSVDNoConvergence) {
		t.Fatalf("err = %v, want ErrSVDNoConvergence", err)
	}
	want := "linalg: SVD did not converge within 60 sweeps on a 5×7 matrix"
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
	d.Converged = true
	if got, err := checkConverged(d); err != nil || got != d {
		t.Fatalf("converged decomposition: got %v, %v", got, err)
	}
}

func TestFitPCACheckedMatchesFitPCA(t *testing.T) {
	x := NewDense(5, 3)
	vals := []float64{
		1, 0.2, 0.1,
		0.3, 1, 0,
		0, 0.4, 1,
		1, 1, 0.5,
		0.2, 0, 0.9,
	}
	for i := 0; i < 5; i++ {
		copy(x.RowView(i), vals[i*3:(i+1)*3])
	}
	for _, v := range []float64{0.3, 0.7, 1} {
		want := FitPCA(x, v)
		got, err := FitPCAChecked(1, x, v)
		if err != nil {
			t.Fatalf("v=%v: %v", v, err)
		}
		if got.NComp != want.NComp {
			t.Fatalf("v=%v: NComp %d vs %d", v, got.NComp, want.NComp)
		}
		for i := range want.Singular {
			if got.Singular[i] != want.Singular[i] {
				t.Fatalf("v=%v: singular values diverge at %d", v, i)
			}
		}
	}
	x.Set(4, 2, math.NaN())
	if _, err := FitPCAChecked(1, x, 0.5); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

// TestComponentsForVarianceEdges pins the selection rule at the edges of
// the v range: v ≤ 0 still retains one component (Algorithm 1 keeps at
// least one), v > 1 retains everything, and an empty spectrum yields zero.
func TestComponentsForVarianceEdges(t *testing.T) {
	cev := []float64{0.6, 0.9, 1.0}
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 1},
		{0, 1},
		{0.6, 1},
		{0.61, 2},
		{1, 3},
		{1.5, 3}, // unreachable target: retain the full spectrum
	}
	for _, c := range cases {
		if got := ComponentsForVariance(cev, c.v); got != c.want {
			t.Errorf("ComponentsForVariance(%v, %v) = %d, want %d", cev, c.v, got, c.want)
		}
	}
	if got := ComponentsForVariance(nil, 0.5); got != 0 {
		t.Errorf("empty cev: got %d, want 0", got)
	}
	// Single component: any target selects it.
	for _, v := range []float64{-1, 0.01, 1, 2} {
		if got := ComponentsForVariance([]float64{1}, v); got != 1 {
			t.Errorf("single component, v=%v: got %d, want 1", v, got)
		}
	}
}

// TestExplainedVarianceEdges pins the all-zero spectrum (a matrix of
// identical rows mean-centres to zero; no component explains anything) and
// the ordinary normalisation.
func TestExplainedVarianceEdges(t *testing.T) {
	zero := ExplainedVariance([]float64{0, 0, 0})
	for i, v := range zero {
		if v != 0 {
			t.Fatalf("all-zero spectrum: ev[%d] = %v, want 0", i, v)
		}
	}
	if out := ExplainedVariance(nil); len(out) != 0 {
		t.Fatalf("nil spectrum: %v", out)
	}
	ev := ExplainedVariance([]float64{2, 1})
	if math.Abs(ev[0]-0.8) > 1e-15 || math.Abs(ev[1]-0.2) > 1e-15 {
		t.Fatalf("ev = %v, want [0.8 0.2]", ev)
	}
	var sum float64
	for _, v := range ev {
		sum += v
	}
	if math.Abs(sum-1) > 1e-15 {
		t.Fatalf("ratios sum to %v", sum)
	}
}

// TestFitPCAOnConstantRows covers the all-zero singular-value path end to
// end: identical rows mean-centre to the zero matrix, every explained
// ratio is 0, the variance target is unreachable so the full (null)
// spectrum is retained, and reconstruction is exact.
func TestFitPCAOnConstantRows(t *testing.T) {
	x := NewDense(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, 2.5)
		}
	}
	fit, err := FitPCAChecked(1, x, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if fit.NComp != 3 {
		t.Fatalf("NComp = %d, want the full spectrum for an unreachable target", fit.NComp)
	}
	for i, v := range fit.Explained {
		if v != 0 {
			t.Fatalf("Explained[%d] = %v, want 0", i, v)
		}
	}
	errs := fit.ReconstructionErrors(x)
	for i, e := range errs {
		if e != 0 {
			t.Fatalf("reconstruction error %d = %v, want 0 for constant rows", i, e)
		}
	}
}
