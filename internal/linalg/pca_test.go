package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reconstruct encodes and decodes the rows of x: (x − μ)·PCᵀ·PC + μ.
func reconstruct(p *PCA, x *Dense) *Dense {
	rec := MulInto(NewDense(x.Rows(), x.Cols()), p.Encode(x), p.Components)
	for i := 0; i < rec.Rows(); i++ {
		row := rec.RowView(i)
		for j := range row {
			row[j] += p.Mean[j]
		}
	}
	return rec
}

func TestPCAFullVarianceReconstructsExactly(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randomMatrix(r, 8, 5)
	p := FitPCA(x, 1.0)
	rec := reconstruct(p, x)
	if got := MaxAbsDiff(rec, x); got > 1e-8 {
		t.Fatalf("full-variance PCA should be lossless, err=%v", got)
	}
	for _, e := range p.ReconstructionErrors(x) {
		if e > 1e-12 {
			t.Fatalf("nonzero reconstruction error %v at full variance", e)
		}
	}
}

func TestPCALowVarianceKeepsFewComponents(t *testing.T) {
	// Data dominated by one direction: a single component should explain
	// almost everything.
	rows := make([][]float64, 40)
	r := rand.New(rand.NewSource(5))
	for i := range rows {
		t := r.NormFloat64() * 10
		rows[i] = []float64{t, 2 * t, -t + r.NormFloat64()*0.01}
	}
	p := FitPCA(FromRows(rows), 0.9)
	if p.NComp != 1 {
		t.Fatalf("NComp = %d, want 1 (cev=%v)", p.NComp, p.Cumulative)
	}
}

func TestPCAOutlierScoresHigherForAnomaly(t *testing.T) {
	// Inliers on a line, one point far off it.
	rows := [][]float64{}
	for i := 0; i < 20; i++ {
		v := float64(i)
		rows = append(rows, []float64{v, 2 * v, 3 * v})
	}
	rows = append(rows, []float64{10, -50, 40})
	x := FromRows(rows)
	p := FitPCA(x, 0.6)
	errs := p.ReconstructionErrors(x)
	anomaly := errs[len(errs)-1]
	for i := 0; i < len(errs)-1; i++ {
		if errs[i] >= anomaly {
			t.Fatalf("inlier %d error %v >= anomaly error %v", i, errs[i], anomaly)
		}
	}
}

func TestPCATruncate(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	x := randomMatrix(r, 10, 6)
	full := FitPCA(x, 1.0)
	for _, v := range []float64{0.2, 0.5, 0.8, 1.0} {
		direct := FitPCA(x, v)
		trunc := full.Truncate(v)
		if direct.NComp != trunc.NComp {
			t.Fatalf("v=%v: direct NComp=%d truncated NComp=%d", v, direct.NComp, trunc.NComp)
		}
		if MaxAbsDiff(reconstruct(direct, x), reconstruct(trunc, x)) > 1e-8 {
			t.Fatalf("v=%v: truncated reconstruction differs from direct fit", v)
		}
	}
}

// Property: PCA reconstruction error is non-increasing as variance target
// grows, for every row.
func TestPCAMonotoneErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 3+r.Intn(10), 2+r.Intn(6)
		x := randomMatrix(r, rows, cols)
		full := FitPCA(x, 1.0)
		prev := full.Truncate(0.1).ReconstructionErrors(x)
		for _, v := range []float64{0.3, 0.6, 0.9, 1.0} {
			cur := full.Truncate(v).ReconstructionErrors(x)
			for i := range cur {
				if cur[i] > prev[i]+1e-9 {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: encoding then decoding never increases the total variance of
// the data (projection is a contraction around the mean).
func TestPCAContractionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 3+r.Intn(8), 2+r.Intn(6)
		x := randomMatrix(r, rows, cols)
		p := FitPCA(x, 0.5)
		rec := reconstruct(p, x)
		varOf := func(m *Dense) float64 {
			mean := m.ColMean()
			c := m.SubRow(mean)
			var s float64
			for i := 0; i < c.Rows(); i++ {
				s += Dot(c.RowView(i), c.RowView(i))
			}
			return s
		}
		return varOf(rec) <= varOf(x)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
