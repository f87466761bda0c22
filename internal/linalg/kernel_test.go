package linalg_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"collabscope/internal/linalg"
	"collabscope/internal/obs"
)

const goldenTol = 1e-9

func randDense(t testing.TB, r, c int, seed int64) *linalg.Dense {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := linalg.NewDense(r, c)
	for i := 0; i < r; i++ {
		row := m.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return m
}

// naiveMul is the reference i-k-j product the GEMM kernels must reproduce.
func naiveMul(a, b *linalg.Dense) *linalg.Dense {
	out := linalg.NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for k := 0; k < a.Cols(); k++ {
			aik := a.At(i, k)
			for j := 0; j < b.Cols(); j++ {
				out.Set(i, j, out.At(i, j)+aik*b.At(k, j))
			}
		}
	}
	return out
}

func requireMaxAbs(t *testing.T, name string, got, want *linalg.Dense, tol float64) {
	t.Helper()
	if d := linalg.MaxAbsDiff(got, want); d > tol {
		t.Fatalf("%s: max abs diff %g exceeds %g", name, d, tol)
	}
}

func TestMulIntoMatchesNaive(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {3, 5, 4}, {37, 64, 29}, {65, 300, 70}} {
		a := randDense(t, shape[0], shape[1], 1)
		b := randDense(t, shape[1], shape[2], 2)
		dst := linalg.NewDense(shape[0], shape[2])
		linalg.MulInto(dst, a, b)
		requireMaxAbs(t, "MulInto", dst, naiveMul(a, b), goldenTol)
		// Against the method implementation as well: bit-identical.
		if d := linalg.MaxAbsDiff(dst, a.Mul(b)); d != 0 {
			t.Fatalf("MulInto differs from Dense.Mul by %g; want bit-identical", d)
		}
	}
}

func TestMulAccIntoAccumulates(t *testing.T) {
	a := randDense(t, 9, 13, 3)
	b := randDense(t, 13, 8, 4)
	dst := randDense(t, 9, 8, 5)
	// Reference accumulates on top of the base value in ascending k order —
	// the bias-first contract the batched layers rely on.
	want := dst.Clone()
	for i := 0; i < 9; i++ {
		for k := 0; k < 13; k++ {
			aik := a.At(i, k)
			for j := 0; j < 8; j++ {
				want.Set(i, j, want.At(i, j)+aik*b.At(k, j))
			}
		}
	}
	linalg.MulAccInto(dst, a, b)
	if d := linalg.MaxAbsDiff(dst, want); d != 0 {
		t.Fatalf("MulAccInto differs from base-first accumulation by %g; want bit-identical", d)
	}
}

func TestMulTransIntoMatchesDotAndMul(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {7, 11, 5}, {40, 33, 64}, {100, 384, 90}} {
		a := randDense(t, shape[0], shape[2], 6)
		b := randDense(t, shape[1], shape[2], 7)
		dst := linalg.NewDense(shape[0], shape[1])
		linalg.MulTransInto(dst, a, b)
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < b.Rows(); j++ {
				if got, want := dst.At(i, j), linalg.Dot(a.RowView(i), b.RowView(j)); got != want {
					t.Fatalf("MulTransInto[%d][%d] = %v, Dot = %v; want bit-identical", i, j, got, want)
				}
			}
		}
		requireMaxAbs(t, "MulTransInto", dst, a.Mul(b.T()), goldenTol)
	}
}

func TestMulTransAccIntoAddsOnTop(t *testing.T) {
	a := randDense(t, 6, 17, 8)
	b := randDense(t, 9, 17, 9)
	dst := randDense(t, 6, 9, 10)
	base := dst.Clone()
	linalg.MulTransAccInto(dst, a, b)
	for i := 0; i < 6; i++ {
		for j := 0; j < 9; j++ {
			s := base.At(i, j)
			for k := 0; k < 17; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			if dst.At(i, j) != s {
				t.Fatalf("MulTransAccInto[%d][%d] = %v, want %v (bit-identical)", i, j, dst.At(i, j), s)
			}
		}
	}
}

func TestMulATBIntoMatchesSampleOrder(t *testing.T) {
	a := randDense(t, 21, 12, 11)
	b := randDense(t, 21, 7, 12)
	dst := linalg.NewDense(12, 7)
	linalg.MulATBInto(dst, a, b)
	// Reference: ascending-sample rank-1 accumulation, the gradient order.
	want := linalg.NewDense(12, 7)
	for s := 0; s < a.Rows(); s++ {
		for o := 0; o < a.Cols(); o++ {
			v := a.At(s, o)
			for j := 0; j < b.Cols(); j++ {
				want.Set(o, j, want.At(o, j)+v*b.At(s, j))
			}
		}
	}
	if d := linalg.MaxAbsDiff(dst, want); d != 0 {
		t.Fatalf("MulATBInto differs from sample-order accumulation by %g", d)
	}
	requireMaxAbs(t, "MulATBInto", dst, a.T().Mul(b), goldenTol)
}

func TestRowNormsInto(t *testing.T) {
	m := randDense(t, 23, 31, 13)
	norms := linalg.RowNormsInto(make([]float64, 23), m)
	for i := range norms {
		if want := linalg.Norm(m.RowView(i)); norms[i] != want {
			t.Fatalf("RowNormsInto[%d] = %v, Norm = %v; want bit-identical", i, norms[i], want)
		}
	}
}

func TestRowSquaredDistancesInto(t *testing.T) {
	m := randDense(t, 19, 24, 14)
	q := randDense(t, 1, 24, 15).RowView(0)
	dst := linalg.RowSquaredDistancesInto(make([]float64, 19), m, q)
	for i := range dst {
		if want := linalg.SquaredDistance(q, m.RowView(i)); dst[i] != want {
			t.Fatalf("RowSquaredDistancesInto[%d] = %v, want %v (bit-identical)", i, dst[i], want)
		}
	}
}

// requireSquaredDistances checks every cell of got against SquaredDistance
// of the matching rows, bit for bit.
func requireSquaredDistances(t *testing.T, name string, got, a, b *linalg.Dense) {
	t.Helper()
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Rows(); j++ {
			if want := linalg.SquaredDistance(a.RowView(i), b.RowView(j)); got.At(i, j) != want {
				t.Fatalf("%s: squared[%d][%d] = %v, want %v (bit-identical)", name, i, j, got.At(i, j), want)
			}
		}
	}
}

// TestPairwiseKernelsMatchNaive pins the pairwise kernels to the scalar
// SquaredDistance / Distance on the general path, the symmetric path and
// the parallel front at 1–4 workers. The kernel computes four cells per
// pass; the shapes {rows of a, rows of b, d} leave 1, 2 and 3 cells past
// the last 4-cell block of a 32-wide tile or a full row, at odd d.
func TestPairwiseKernelsMatchNaive(t *testing.T) {
	ctx := context.Background()
	for _, sh := range [][3]int{{30, 44, 21}, {1, 1, 1}, {1, 3, 5}, {7, 5, 3}, {9, 34, 11}, {30, 45, 21}, {33, 37, 17}} {
		n, m, d := sh[0], sh[1], sh[2]
		a := randDense(t, n, d, 16)
		b := randDense(t, m, d, 17)
		name := fmt.Sprintf("%dx%dx%d", n, m, d)
		sq := linalg.PairwiseSquaredDistancesInto(linalg.NewDense(n, m), a, b)
		requireSquaredDistances(t, name+" general", sq, a, b)
		eu := linalg.PairwiseDistancesInto(linalg.NewDense(n, m), a, b)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				if want := linalg.Distance(a.RowView(i), b.RowView(j)); eu.At(i, j) != want {
					t.Fatalf("%s: distance[%d][%d] = %v, want %v (bit-identical)", name, i, j, eu.At(i, j), want)
				}
			}
		}
		for _, x := range []*linalg.Dense{a, b} {
			r := x.Rows()
			sym := linalg.PairwiseSquaredDistancesInto(linalg.NewDense(r, r), x, x)
			requireSquaredDistances(t, fmt.Sprintf("%s symmetric %d", name, r), sym, x, x)
		}
		for workers := 1; workers <= 4; workers++ {
			par := linalg.NewDense(n, m)
			if err := linalg.ParallelPairwiseSquaredDistancesInto(ctx, workers, par, a, b); err != nil {
				t.Fatal(err)
			}
			requireSquaredDistances(t, fmt.Sprintf("%s parallel workers=%d", name, workers), par, a, b)
			parSym := linalg.NewDense(m, m)
			if err := linalg.ParallelPairwiseSquaredDistancesInto(ctx, workers, parSym, b, b); err != nil {
				t.Fatal(err)
			}
			requireSquaredDistances(t, fmt.Sprintf("%s parallel symmetric workers=%d", name, workers), parSym, b, b)
		}
	}
}

func TestPairwiseSymmetricMatchesGeneral(t *testing.T) {
	a := randDense(t, 41, 16, 18)
	// Duplicate rows to exercise exact-zero off-diagonal entries.
	copy(a.RowView(40), a.RowView(0))
	sym := linalg.PairwiseSquaredDistancesInto(linalg.NewDense(41, 41), a, a)
	gen := linalg.PairwiseSquaredDistancesInto(linalg.NewDense(41, 41), a, a.Clone())
	if d := linalg.MaxAbsDiff(sym, gen); d != 0 {
		t.Fatalf("symmetric fast path differs from general path by %g", d)
	}
	for i := 0; i < 41; i++ {
		if sym.At(i, i) != 0 {
			t.Fatalf("diagonal [%d][%d] = %v, want 0", i, i, sym.At(i, i))
		}
	}
	if sym.At(40, 0) != 0 || sym.At(0, 40) != 0 {
		t.Fatal("duplicate rows must have exactly zero distance")
	}
}

func TestCosineSimilaritiesInto(t *testing.T) {
	a := randDense(t, 26, 33, 19)
	b := randDense(t, 38, 33, 20)
	// A zero row exercises the zero-norm contract.
	zr := a.RowView(3)
	for j := range zr {
		zr[j] = 0
	}
	an := linalg.RowNormsInto(make([]float64, 26), a)
	bn := linalg.RowNormsInto(make([]float64, 38), b)
	dst := linalg.CosineSimilaritiesInto(linalg.NewDense(26, 38), a, b, an, bn)
	for i := 0; i < 26; i++ {
		for j := 0; j < 38; j++ {
			if want := linalg.CosineSimilarity(a.RowView(i), b.RowView(j)); dst.At(i, j) != want {
				t.Fatalf("cosine[%d][%d] = %v, want %v (bit-identical)", i, j, dst.At(i, j), want)
			}
		}
	}
}

func TestTopKIntoMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var scratch []int
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		vals := make([]float64, n)
		for i := range vals {
			// Coarse quantisation forces many exact ties.
			vals[i] = float64(rng.Intn(8))
		}
		k := rng.Intn(n + 3)
		scratch = linalg.TopKInto(vals, k, scratch)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(x, y int) bool { return vals[want[x]] < vals[want[y]] })
		if k > n {
			k = n
		}
		got := scratch[:k]
		for i := 0; i < k; i++ {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): TopKInto = %v, stable sort = %v", trial, n, k, got, want[:k])
			}
		}
	}
}

// TestTopKIntoPropertyKGrid pins the full ordering contract the ANN
// indexes build on — a stable ascending (value, index) sort prefix — on
// the boundary cardinalities k ∈ {0, 1, n, n+1} and under heavy ties
// (all-equal and two-value inputs), with the scratch slice reused across
// every call. The contract holds for NaN-free values only; the ann
// package pins that precondition at its call sites
// (TestNaNFreeDistancePrecondition).
func TestTopKIntoPropertyKGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var scratch []int
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		switch trial % 3 {
		case 0: // all equal — every position ties; order must be by index
			for i := range vals {
				vals[i] = 2.5
			}
		case 1: // two distinct values — long tie runs
			for i := range vals {
				vals[i] = float64(rng.Intn(2))
			}
		default:
			for i := range vals {
				vals[i] = rng.NormFloat64()
			}
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(x, y int) bool { return vals[want[x]] < vals[want[y]] })
		for _, k := range []int{0, 1, n, n + 1} {
			scratch = linalg.TopKInto(vals, k, scratch)
			kk := k
			if kk > n {
				kk = n
			}
			if len(scratch) != kk {
				t.Fatalf("trial %d (n=%d k=%d): len = %d, want %d", trial, n, k, len(scratch), kk)
			}
			for i := 0; i < kk; i++ {
				if scratch[i] != want[i] {
					t.Fatalf("trial %d (n=%d k=%d): TopKInto = %v, stable (value,index) sort = %v",
						trial, n, k, scratch, want[:kk])
				}
			}
		}
	}
}

func TestTopKIntoEdgeCases(t *testing.T) {
	if got := linalg.TopKInto([]float64{3, 1}, 0, nil); len(got) != 0 {
		t.Fatalf("k=0: got %v, want empty", got)
	}
	if got := linalg.TopKInto(nil, 4, nil); len(got) != 0 {
		t.Fatalf("empty vals: got %v, want empty", got)
	}
	got := linalg.TopKInto([]float64{2}, 9, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("k>n: got %v, want [0]", got)
	}
}

func TestParallelKernelsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	a := randDense(t, 57, 48, 22)
	b := randDense(t, 33, 48, 23)
	ctx := context.Background()

	refPair := linalg.PairwiseSquaredDistancesInto(linalg.NewDense(57, 33), a, b)
	refSym := linalg.PairwiseSquaredDistancesInto(linalg.NewDense(57, 57), a, a)

	for _, workers := range []int{1, 2, 3, 7, 16} {
		pair := linalg.NewDense(57, 33)
		if err := linalg.ParallelPairwiseSquaredDistancesInto(ctx, workers, pair, a, b); err != nil {
			t.Fatal(err)
		}
		sym := linalg.NewDense(57, 57)
		if err := linalg.ParallelPairwiseSquaredDistancesInto(ctx, workers, sym, a, a); err != nil {
			t.Fatal(err)
		}
		for name, pairing := range map[string][2]*linalg.Dense{
			"pairwise": {pair, refPair}, "symmetric": {sym, refSym},
		} {
			if d := linalg.MaxAbsDiff(pairing[0], pairing[1]); d != 0 {
				t.Fatalf("%s at workers=%d differs from sequential by %g; want bit-identical", name, workers, d)
			}
		}
	}
}

func TestParallelKernelCounters(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), reg, nil)
	a := randDense(t, 12, 9, 25)
	if err := linalg.ParallelPairwiseSquaredDistancesInto(ctx, 2, linalg.NewDense(12, 12), a, a); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("linalg.kernel.pairwise.rows").Value(); got != 12 {
		t.Fatalf("pairwise rows counter = %d, want 12", got)
	}
}

// composedErrors is the reconstruction pass composed from the kernels the
// fused PCA.ReconstructionErrorsInto replaces: centre, MulTransInto,
// MulInto, add the mean, RowMSEInto.
func composedErrors(p *linalg.PCA, x *linalg.Dense) []float64 {
	z := linalg.NewDense(x.Rows(), p.Components.Rows())
	linalg.MulTransInto(z, x.SubRow(p.Mean), p.Components)
	rec := linalg.MulInto(linalg.NewDense(x.Rows(), x.Cols()), z, p.Components)
	for i := 0; i < rec.Rows(); i++ {
		row := rec.RowView(i)
		for j := range row {
			row[j] += p.Mean[j]
		}
	}
	return linalg.RowMSEInto(make([]float64, x.Rows()), x, rec)
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: errors[%d] = %v, composed kernels give %v; want bit-identical", what, i, got[i], want[i])
		}
	}
}

func TestPCAReconstructionErrorsInto(t *testing.T) {
	x := randDense(t, 35, 20, 26)
	p := linalg.FitPCA(x, 0.9)
	want := composedErrors(p, x)
	requireSameBits(t, "ReconstructionErrors", p.ReconstructionErrors(x), want)
	var sc linalg.PCAScratch
	got := make([]float64, 35)
	for pass := 0; pass < 2; pass++ {
		requireSameBits(t, fmt.Sprintf("pass %d", pass), p.ReconstructionErrorsInto(x, got, &sc), want)
	}
	// Shrinking input reuses the scratch storage.
	xs := randDense(t, 10, 20, 27)
	requireSameBits(t, "short batch", p.ReconstructionErrorsInto(xs, make([]float64, 10), &sc), composedErrors(p, xs))
}

// TestReconstructionPassMatchesComposedKernels pins the fused pass to the
// composed kernels bit for bit on seeded models of 0 to 9 components,
// which covers every remainder of the four-wide encode and decode blocks,
// at odd and even widths and for one row alone. Component 1 of every
// model with more than two is all zeros, so its code is exactly 0 and the
// decode takes its zero-skip inside a four-wide block; the last row of
// each input equals the model mean, so all its codes are zero. One
// scratch serves every shape, growing as it goes.
func TestReconstructionPassMatchesComposedKernels(t *testing.T) {
	var sc linalg.PCAScratch
	seed := int64(40)
	for _, d := range []int{1, 7, 16, 33} {
		for c := 0; c <= 9; c++ {
			for _, n := range []int{1, 13} {
				seed++
				comp := randDense(t, c, d, seed)
				if c > 2 {
					clear(comp.RowView(1))
				}
				p := &linalg.PCA{Mean: randDense(t, 1, d, -seed).RowView(0), Components: comp, NComp: c}
				x := randDense(t, n, d, 1000+seed)
				copy(x.RowView(n-1), p.Mean)
				what := fmt.Sprintf("d=%d c=%d n=%d", d, c, n)
				want := composedErrors(p, x)
				requireSameBits(t, what, p.ReconstructionErrorsInto(x, make([]float64, n), &sc), want)
				requireSameBits(t, what+" nil scratch", p.ReconstructionErrorsInto(x, make([]float64, n), nil), want)
				if want[n-1] != 0 {
					t.Fatalf("%s: the row at the mean has error %v, want 0", what, want[n-1])
				}
			}
		}
	}
}

func TestRowMSEInto(t *testing.T) {
	a := randDense(t, 14, 9, 28)
	b := randDense(t, 14, 9, 29)
	want := linalg.RowMSE(a, b)
	got := linalg.RowMSEInto(make([]float64, 14), a, b)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("RowMSEInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Steady-state alloc pins: warmed-up kernel calls must not allocate.
func TestKernelAllocFree(t *testing.T) {
	a := randDense(t, 48, 32, 30)
	b := randDense(t, 40, 32, 31)
	bt := randDense(t, 32, 24, 32)
	an := linalg.RowNormsInto(make([]float64, 48), a)
	bn := linalg.RowNormsInto(make([]float64, 40), b)
	mul := linalg.NewDense(48, 24)
	tr := linalg.NewDense(48, 40)
	pair := linalg.NewDense(48, 40)
	cos := linalg.NewDense(48, 40)
	row := make([]float64, 40)
	scratch := linalg.TopKInto(pair.RowView(0), 10, nil)
	p := linalg.FitPCA(a, 0.9)
	var psc linalg.PCAScratch
	errs := make([]float64, 48)
	p.ReconstructionErrorsInto(a, errs, &psc)

	checks := map[string]func(){
		"MulInto":                 func() { linalg.MulInto(mul, a, bt) },
		"MulTransInto":            func() { linalg.MulTransInto(tr, a, b) },
		"Pairwise":                func() { linalg.PairwiseSquaredDistancesInto(pair, a, b) },
		"Cosine":                  func() { linalg.CosineSimilaritiesInto(cos, a, b, an, bn) },
		"RowNorms":                func() { linalg.RowNormsInto(an, a) },
		"RowSquaredDistances":     func() { linalg.RowSquaredDistancesInto(row, b, a.RowView(0)) },
		"TopK":                    func() { scratch = linalg.TopKInto(pair.RowView(0), 10, scratch) },
		"PCAReconstructionErrors": func() { p.ReconstructionErrorsInto(a, errs, &psc) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", name, allocs)
		}
	}
}

func TestKernelShapePanics(t *testing.T) {
	a := randDense(t, 4, 5, 33)
	b := randDense(t, 6, 5, 34)
	for name, fn := range map[string]func(){
		"MulInto dims":  func() { linalg.MulInto(linalg.NewDense(4, 6), a, b) },
		"MulTrans dst":  func() { linalg.MulTransInto(linalg.NewDense(3, 6), a, b) },
		"Pairwise dst":  func() { linalg.PairwiseSquaredDistancesInto(linalg.NewDense(4, 5), a, b) },
		"Cosine norms":  func() { linalg.CosineSimilaritiesInto(linalg.NewDense(4, 6), a, b, nil, nil) },
		"RowNorms len":  func() { linalg.RowNormsInto(make([]float64, 3), a) },
		"Alias":         func() { linalg.MulTransInto(a, a, b) },
		"RowMSEInto":    func() { linalg.RowMSEInto(make([]float64, 3), a, a.Clone()) },
		"RowSqDist len": func() { linalg.RowSquaredDistancesInto(make([]float64, 4), a, make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMulIntoSkipsNonFiniteSafely(t *testing.T) {
	// The zero-skip in the GEMM inner loop must not change finite results;
	// document that non-finite inputs are outside the kernel contract by
	// pinning the finite behaviour only.
	a := linalg.FromRows([][]float64{{0, 2}, {1, 0}})
	b := linalg.FromRows([][]float64{{3, 4}, {5, 6}})
	got := linalg.MulInto(linalg.NewDense(2, 2), a, b)
	want := linalg.FromRows([][]float64{{10, 12}, {3, 4}})
	if d := linalg.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("sparse MulInto differs by %g", d)
	}
	if math.IsNaN(got.At(0, 0)) {
		t.Fatal("unexpected NaN")
	}
}
