package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The digests below pin the exact bits of the one-sided Jacobi SVD and of
// the PCA fits built on it. They were captured before the decomposition's
// working set moved to a contiguous-column layout, so any change to the
// accumulation order, the rotation order or the rotation formulas shows up
// here as a digest mismatch rather than as a tolerance-sized drift.
//
// The Go specification lets a compiler fuse x*y+z into one rounding on
// architectures with a fused multiply-add; the digests are the amd64 bits,
// where the compiler does not contract.

// bitsDigest folds the IEEE-754 bits of every value, in order, into a
// sha256 hex digest.
type bitsDigest struct{ buf []byte }

func (d *bitsDigest) floats(v []float64) {
	for _, x := range v {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
	}
}

func (d *bitsDigest) dense(m *Dense) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(m.Rows()))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(m.Cols()))
	d.floats(m.data)
}

func (d *bitsDigest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:])
}

func svdDigest(dec *SVD) string {
	var d bitsDigest
	d.floats(dec.S)
	d.dense(dec.U)
	d.dense(dec.V)
	if dec.Converged {
		d.buf = append(d.buf, 1)
	} else {
		d.buf = append(d.buf, 0)
	}
	return d.sum()
}

func pcaDigest(p *PCA) string {
	var d bitsDigest
	d.dense(p.Components)
	d.floats(p.Singular)
	d.floats(p.Mean)
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(p.NComp))
	return d.sum()
}

// goldenMatrix returns a seeded r×c matrix of standard normal draws.
func goldenMatrix(seed int64, r, c int) *Dense {
	return randomMatrix(rand.New(rand.NewSource(seed)), r, c)
}

// centred returns x with its column mean subtracted — the shape FitPCA
// hands to the decomposition.
func centred(x *Dense) *Dense { return x.SubRow(x.ColMean()) }

// duplicateRow16 is a 16×16 matrix of standard normal draws whose last row
// copies row 3: square, so the working set is its 16 columns, and rank 15,
// rank 14 once centred. A working column that decays towards a null
// direction drives ζ past the range where ζ² is finite, so the sweep
// converges only if the rotation never squares it (see rotatePair).
func duplicateRow16() *Dense {
	x := goldenMatrix(10, 16, 16)
	copy(x.RowView(15), x.RowView(3))
	return x
}

// svdGoldenFixtures are the pinned inputs: the wide signature shapes the
// scoping pipeline fits (mean-centred), a tall and a square matrix, a
// rank-deficient input whose duplicated rows leave zero singular values,
// a square one with a duplicated row, all-zero columns on both the tall
// and the wide path, and the empty edge cases.
func svdGoldenFixtures() []struct {
	name string
	x    *Dense
} {
	rankDeficient := goldenMatrix(5, 24, 48)
	for i := 12; i < 24; i++ {
		copy(rankDeficient.RowView(i), rankDeficient.RowView(i-12))
	}
	zeroColTall := goldenMatrix(6, 50, 20)
	zeroColWide := goldenMatrix(7, 20, 50)
	for i := 0; i < 50; i++ {
		zeroColTall.Set(i, 7, 0)
	}
	for i := 0; i < 20; i++ {
		zeroColWide.Set(i, 7, 0)
	}
	return []struct {
		name string
		x    *Dense
	}{
		{"wide_63x768_centred", centred(goldenMatrix(1, 63, 768))},
		{"wide_127x768_centred", centred(goldenMatrix(2, 127, 768))},
		{"tall_768x40", goldenMatrix(3, 768, 40)},
		{"square_40x40", goldenMatrix(4, 40, 40)},
		{"rank_deficient_24x48", rankDeficient},
		{"duplicate_row_16x16", duplicateRow16()},
		{"zero_column_tall_50x20", zeroColTall},
		{"zero_column_wide_20x50", zeroColWide},
		{"empty_0x5", NewDense(0, 5)},
		{"empty_5x0", NewDense(5, 0)},
	}
}

var svdGoldenDigests = map[string]string{
	"wide_63x768_centred":    "8aafe56823bed45b51cdaf312e6b90a9ef64d87a643701d8324daa071ce7be1b",
	"wide_127x768_centred":   "881b7c9f0c66c158b31d67a5e5dbc3473cb5b25c27cc6aa50fc70c09b7bcc393",
	"tall_768x40":            "5aa68f6d4e7d3126c29fa5c2880db5922cc2281f8485debc51f2f3cf84ff0f6a",
	"square_40x40":           "ce8e2538962bc7dff52aee38907a71ab5fce9d5ad0a0df81980d75161726a1e2",
	"rank_deficient_24x48":   "a8330a1eb84df5737379a965d289a8b2aec51c751058f388e12c1d2557cd3390",
	"duplicate_row_16x16":    "d962f913c939efe250f7ad7b1590051b47d4c69852cf5eed519bb78f5b0e6f1f",
	"zero_column_tall_50x20": "e9020928bf3108a98826e5779aa169c2ede0357c0309a6ca711ffc6999a1572c",
	"zero_column_wide_20x50": "f22ead1b133111842b02568d1bc2efc3713fb918591468bf3d491745bf627683",
	"empty_0x5":              "a8e0ec3c025befcfe482e2982d77f7c52e44201b27d86ec798d8b2ff65d555fb",
	"empty_5x0":              "9036ce88667c4de31b6693b6cc71f5a10a340248c4fb6d54b8822876bf3922ea",
}

// TestComputeSVDGoldenBits pins S, U, V and Converged of ComputeSVD, bit
// for bit, on every fixture shape.
func TestComputeSVDGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are amd64 bits; %s may contract multiply-adds", runtime.GOARCH)
	}
	for _, f := range svdGoldenFixtures() {
		before := f.x.Clone()
		got := svdDigest(ComputeSVD(f.x))
		if got != svdGoldenDigests[f.name] {
			t.Errorf("%s: digest %s, want %s", f.name, got, svdGoldenDigests[f.name])
		}
		if MaxAbsDiff(before, f.x) != 0 {
			t.Errorf("%s: ComputeSVD modified its input", f.name)
		}
	}
}

var pcaGoldenDigests = map[string]string{
	"fit_wide_63x768_v0.8": "fa2ca151b6f3b28fa4918d4eef8c9aaf458ac1a849671c9857ebaa5a822f0423",
	"fit_tall_200x40_v0.9": "a3c24024b495869e8dc21a3a6074e0b15e7250c58deed097edd7f658548b1327",
	"fit_dup_16x16_v0.9":   "f3febaf4807c78ab4f05972b715a53f9d41e9f6f987b7066cf12960b3063b1ea",
}

// TestFitPCAGoldenBits pins the retained Components, the Singular spectrum,
// the mean and the component count of the checked and best-effort fits.
func TestFitPCAGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are amd64 bits; %s may contract multiply-adds", runtime.GOARCH)
	}
	check := func(name string, p *PCA) {
		t.Helper()
		if got := pcaDigest(p); got != pcaGoldenDigests[name] {
			t.Errorf("%s: digest %s, want %s", name, got, pcaGoldenDigests[name])
		}
	}
	fits := []struct {
		name string
		x    *Dense
		v    float64
	}{
		{"fit_wide_63x768_v0.8", goldenMatrix(1, 63, 768), 0.8},
		{"fit_tall_200x40_v0.9", goldenMatrix(8, 200, 40), 0.9},
		{"fit_dup_16x16_v0.9", duplicateRow16(), 0.9},
	}
	for _, f := range fits {
		p, err := FitPCAChecked(1, f.x, f.v)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		check(f.name, p)
		check(f.name, FitPCA(f.x, f.v))
	}
}

// TestJacobiWorkerCountsBitIdentical pins the wavefront sweep's claim: a
// decomposition on 2–8 workers is the 1-worker decomposition bit for bit
// (S, U, V and Converged). It covers the golden fixtures (the wide 768-dim
// signature shapes, the tall path, rank-deficient and zero-column inputs),
// n ∈ {1, 2, 3} working rows, where the members outnumber the pairs of every
// level, and a seeded sweep of narrow shapes. Under the race detector one
// 127×768 decomposition takes seconds, so the 768-dim shapes run at 2
// workers only, against their golden digests.
func TestJacobiWorkerCountsBitIdentical(t *testing.T) {
	type input struct {
		name string
		x    *Dense
	}
	var inputs []input
	for _, f := range svdGoldenFixtures() {
		inputs = append(inputs, input{f.name, f.x})
	}
	for n := 1; n <= 3; n++ {
		inputs = append(inputs,
			input{fmt.Sprintf("wide_%dx9", n), goldenMatrix(int64(10+n), n, 9)},
			input{fmt.Sprintf("tall_9x%d", n), goldenMatrix(int64(20+n), 9, n)})
	}
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 16; i++ {
		r, c := 1+rng.Intn(40), 1+rng.Intn(96)
		x := centred(randomMatrix(rng, r, c))
		if i%4 == 1 { // duplicated rows: rank-deficient
			for k := r / 2; k < r; k++ {
				copy(x.RowView(k), x.RowView(k-r/2))
			}
		}
		inputs = append(inputs, input{fmt.Sprintf("sweep_%d_%dx%d", i, r, c), x})
	}
	for _, in := range inputs {
		want, golden := svdGoldenDigests[in.name]
		if !golden || runtime.GOARCH != "amd64" {
			want = svdDigest(decompose(1, in.x.Clone()))
		}
		workers := []int{2, 3, 4, 5, 6, 7, 8}
		if in.x.Rows()*in.x.Cols() > 20000 {
			workers = workers[:1]
		}
		for _, w := range workers {
			if got := svdDigest(decompose(w, in.x.Clone())); got != want {
				t.Errorf("%s: %d workers: digest %s, 1 worker %s", in.name, w, got, want)
			}
		}
	}
}

// TestJacobiTeamPanicReleasesMembers checks that a member that panics
// mid-sweep releases the members waiting on its rows and that the panic
// reaches the caller: with Vᵀ one row short, every rotation of a pair
// (p, n−1) panics. A team that left a member waiting would hang here.
func TestJacobiTeamPanicReleasesMembers(t *testing.T) {
	w := goldenMatrix(9, 12, 40)
	team := newJacobiTeam(4, w, NewDense(11, 12))
	defer func() {
		if recover() == nil {
			t.Fatal("the sweep returned without raising the member's panic")
		}
	}()
	team.sweep()
}
