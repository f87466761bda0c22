package linalg_test

import (
	"fmt"
	"testing"

	"collabscope/internal/linalg"
)

// OC3-FO scale: 287 union elements × 384 embedding dims — the shapes the
// matcher and detector hot paths run the kernels at.
const (
	benchRows = 287
	benchDim  = 384
)

func BenchmarkKernelGEMM(b *testing.B) {
	a := randDense(b, benchRows, benchDim, 1)
	w := randDense(b, benchDim, 64, 2)
	dst := linalg.NewDense(benchRows, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.MulInto(dst, a, w)
	}
}

func BenchmarkKernelMulTrans(b *testing.B) {
	a := randDense(b, benchRows, benchDim, 3)
	w := randDense(b, 64, benchDim, 4)
	dst := linalg.NewDense(benchRows, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.MulTransInto(dst, a, w)
	}
}

// BenchmarkKernelPairwiseSquared times the symmetric (a, a) path the
// detectors run and the general (a, b) path at the shape of one LSH match
// panel: two streamlined attribute sets at 768 dims.
func BenchmarkKernelPairwiseSquared(b *testing.B) {
	b.Run("symmetric", func(b *testing.B) {
		a := randDense(b, benchRows, benchDim, 5)
		dst := linalg.NewDense(benchRows, benchRows)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			linalg.PairwiseSquaredDistancesInto(dst, a, a)
		}
	})
	b.Run("general-63x57x768", func(b *testing.B) {
		a := randDense(b, 63, 768, 5)
		c := randDense(b, 57, 768, 6)
		dst := linalg.NewDense(63, 57)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			linalg.PairwiseSquaredDistancesInto(dst, a, c)
		}
	})
}

func BenchmarkKernelCosine(b *testing.B) {
	a := randDense(b, benchRows, benchDim, 6)
	c := randDense(b, benchRows, benchDim, 7)
	an := linalg.RowNormsInto(make([]float64, benchRows), a)
	cn := linalg.RowNormsInto(make([]float64, benchRows), c)
	dst := linalg.NewDense(benchRows, benchRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.CosineSimilaritiesInto(dst, a, c, an, cn)
	}
}

// Sinks keep the measured calls from being optimised away.
var (
	svdSink *linalg.SVD
	pcaSink *linalg.PCA
)

// BenchmarkComputeSVD times the one-sided Jacobi SVD at the shapes the
// scoping pipeline fits: mean-centred wide schema signatures (fewer
// elements than dimensions) and a tall input that takes the transposed
// path. Run with -benchmem to record the decomposition's allocations.
func BenchmarkComputeSVD(b *testing.B) {
	for _, sh := range []struct {
		name string
		r, c int
	}{{"63x768", 63, 768}, {"127x768", 127, 768}, {"768x40", 768, 40}} {
		b.Run(sh.name, func(b *testing.B) {
			x := randDense(b, sh.r, sh.c, 9)
			x = x.SubRow(x.ColMean())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svdSink = linalg.ComputeSVD(x)
			}
		})
	}
}

// BenchmarkFitPCAChecked times the full per-schema fit of Algorithm 1
// (centre, decompose, truncate) at typical schema shapes, on one Jacobi
// worker and on the two a Scoper's refit uses on a 2-worker pool. Run it
// with -cpu 2 or more for the second to have a processor of its own.
func BenchmarkFitPCAChecked(b *testing.B) {
	for _, rows := range []int{63, 127} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dx768/workers=%d", rows, workers), func(b *testing.B) {
				x := randDense(b, rows, 768, 10)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := linalg.FitPCAChecked(workers, x, 0.8)
					if err != nil {
						b.Fatal(err)
					}
					pcaSink = p
				}
			})
		}
	}
}

// BenchmarkReconstructionErrors times one Algorithm 2 scoring pass at the
// shape of a serve_unique request, 69 signature rows of 768 dims against a
// 10-component model: the fused row-at-a-time pass, and the reference
// composition of the kernels it replaced (centre, MulTransInto, MulInto,
// add the mean, RowMSEInto), both on warm scratch.
func BenchmarkReconstructionErrors(b *testing.B) {
	const rows, dim, comps = 69, 768, 10
	x := randDense(b, rows, dim, 11)
	p := &linalg.PCA{Mean: randDense(b, 1, dim, 12).RowView(0), Components: randDense(b, comps, dim, 13), NComp: comps}
	dst := make([]float64, rows)
	b.Run("fused", func(b *testing.B) {
		var sc linalg.PCAScratch
		p.ReconstructionErrorsInto(x, dst, &sc)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.ReconstructionErrorsInto(x, dst, &sc)
		}
	})
	b.Run("reference", func(b *testing.B) {
		centred := linalg.NewDense(rows, dim)
		z := linalg.NewDense(rows, comps)
		rec := linalg.NewDense(rows, dim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				c, xr := centred.RowView(r), x.RowView(r)
				for j := range c {
					c[j] = xr[j] - p.Mean[j]
				}
			}
			linalg.MulTransInto(z, centred, p.Components)
			linalg.MulInto(rec, z, p.Components)
			for r := 0; r < rows; r++ {
				rr := rec.RowView(r)
				for j := range rr {
					rr[j] += p.Mean[j]
				}
			}
			linalg.RowMSEInto(dst, x, rec)
		}
	})
}

func BenchmarkKernelTopK(b *testing.B) {
	vals := randDense(b, 1, benchRows, 8).RowView(0)
	for i := range vals {
		if vals[i] < 0 {
			vals[i] = -vals[i]
		}
	}
	var scratch []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = linalg.TopKInto(vals, 10, scratch)
	}
}
