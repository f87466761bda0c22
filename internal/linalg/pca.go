package linalg

import "fmt"

// PCA is a fitted principal-component-analysis encoder-decoder: the mean of
// the training rows and the top-n principal components selected so that the
// cumulative explained variance reaches a target (Algorithm 1 of the paper).
//
// Encoding projects mean-centred rows onto the components; decoding maps
// latent codes back and re-adds the mean. The reconstruction MSE of a row is
// its outlier score.
type PCA struct {
	Mean       []float64 // μ: column mean of the training matrix
	Components *Dense    // n×d principal components (rows)
	Singular   []float64 // all singular values of the training matrix
	Explained  []float64 // per-component explained-variance ratios
	Cumulative []float64 // cumulative explained variance
	NComp      int       // number of retained components
}

// FitPCA computes the full SVD of the mean-centred rows of x and retains the
// leading components whose cumulative explained variance reaches at least
// variance ∈ (0, 1]. It implements lines 3-10 of Algorithm 1.
func FitPCA(x *Dense, variance float64) *PCA {
	mean := x.ColMean()
	return pcaFromSVD(mean, decompose(1, x.SubRow(mean)), variance)
}

// pcaFromSVD truncates a computed decomposition of mean-centred rows to the
// explained-variance target (lines 6-10 of Algorithm 1). Shared by the
// best-effort FitPCA and the checked FitPCAChecked.
func pcaFromSVD(mean []float64, dec *SVD, variance float64) *PCA {
	ev := ExplainedVariance(dec.S)
	cev := CumulativeSum(ev)
	n := ComponentsForVariance(cev, variance)
	return &PCA{
		Mean:       mean,
		Components: dec.leadingComponents(n),
		Singular:   dec.S,
		Explained:  ev,
		Cumulative: cev,
		NComp:      n,
	}
}

// Truncate returns a copy of the fitted PCA re-truncated to the number of
// components required for the given cumulative explained variance. The SVD
// is not recomputed, making variance sweeps cheap.
func (p *PCA) Truncate(variance float64) *PCA {
	n := ComponentsForVariance(p.Cumulative, variance)
	if n > p.Components.Rows() {
		n = p.Components.Rows()
	}
	comp := NewDense(n, len(p.Mean))
	for i := 0; i < n; i++ {
		copy(comp.RowView(i), p.Components.RowView(i))
	}
	return &PCA{
		Mean:       p.Mean,
		Components: comp,
		Singular:   p.Singular,
		Explained:  p.Explained,
		Cumulative: p.Cumulative,
		NComp:      n,
	}
}

// Encode projects the rows of x into the latent space: (x − μ)·PCᵀ. The
// projection runs on the MulTransInto kernel, so no transpose of the
// component matrix is materialised.
func (p *PCA) Encode(x *Dense) *Dense {
	out := NewDense(x.Rows(), p.Components.Rows())
	return MulTransInto(out, x.SubRow(p.Mean), p.Components)
}

// ReconstructionErrors returns the per-row MSE between x and its
// reconstruction — the outlier scores of Algorithm 1 line 14 and
// Definition 4.
func (p *PCA) ReconstructionErrors(x *Dense) []float64 {
	out := make([]float64, x.Rows())
	p.ReconstructionErrorsInto(x, out, nil)
	return out
}

// PCAScratch holds the one-row buffers of the fused reconstruction pass,
// so repeated scoring passes allocate nothing. The zero value is ready;
// the buffer grows on first use and whenever a model needs more room. A
// scratch must not be shared between concurrent calls.
type PCAScratch struct {
	buf []float64 // centred row (d), reconstruction row (d), codes (c)
}

// EnsureDense returns m if it already has the requested shape, reslices
// its storage when capacity allows (allocating only a new header), and
// otherwise allocates a fresh matrix — the scratch-resizing primitive of
// the kernel layer's caller-owned-memory contract. Contents are
// unspecified after a resize.
func EnsureDense(m *Dense, r, c int) *Dense {
	if m != nil && m.rows == r && m.cols == c {
		return m
	}
	if m != nil && cap(m.data) >= r*c {
		return &Dense{rows: r, cols: c, data: m.data[:r*c]}
	}
	return NewDense(r, c)
}

// ReconstructionErrorsInto writes the per-row reconstruction MSE of x into
// dst (length x.Rows()) and returns it. With a non-nil warm scratch the
// call allocates nothing.
//
// It scores one row at a time while the row sits in L1: centre it, encode
// four components per sweep over the centred row, decode four components
// per sweep into the reconstruction row, then add the mean and sum the
// squared error. Each output cell runs the IEEE operations of the
// composed kernels in the same order — a code sums its products in
// ascending column order as MulTransInto does, a reconstruction cell adds
// the terms of its non-zero codes in ascending component order as MulInto
// does, and the error is RowMSEInto's after adding the mean — so the
// errors are bit-identical to that composition (DESIGN.md §11,
// "Reconstruction pass").
func (p *PCA) ReconstructionErrorsInto(x *Dense, dst []float64, sc *PCAScratch) []float64 {
	mean, comp := p.Mean, p.Components.data
	d, c := len(mean), p.Components.rows
	if x.cols != d {
		panic(fmt.Sprintf("linalg: reconstruction input has %d columns, model has %d", x.cols, d))
	}
	if len(dst) != x.rows {
		panic(fmt.Sprintf("linalg: ReconstructionErrorsInto dst length %d, want %d", len(dst), x.rows))
	}
	if d == 0 {
		clear(dst)
		return dst
	}
	if sc == nil {
		sc = &PCAScratch{}
	}
	if cap(sc.buf) < 2*d+c {
		sc.buf = make([]float64, 2*d+c)
	}
	centred, rec, z := sc.buf[:d], sc.buf[d:2*d], sc.buf[2*d:2*d+c]
	for i := range dst {
		xi := x.data[i*d : (i+1)*d]
		for j, m := range mean {
			centred[j] = xi[j] - m
		}
		encodeRow(z, centred, comp)
		decodeRow(rec, z, comp)
		var s float64
		for j, m := range mean {
			e := xi[j] - (rec[j] + m)
			s += e * e
		}
		dst[i] = s / float64(d)
	}
	return dst
}

// encodeRow sets z[k] to the dot product of row and component k (row k of
// the len(z)×len(row) matrix comp). Four components share each sweep over
// row, one accumulator each, starting at 0 and adding in ascending j.
func encodeRow(z, row, comp []float64) {
	d := len(row)
	k := 0
	for ; k+4 <= len(z); k += 4 {
		c0 := comp[k*d : (k+1)*d]
		c1 := comp[(k+1)*d : (k+2)*d]
		c2 := comp[(k+2)*d : (k+3)*d]
		c3 := comp[(k+3)*d : (k+4)*d]
		var s0, s1, s2, s3 float64
		for j, v := range row {
			s0 += v * c0[j]
			s1 += v * c1[j]
			s2 += v * c2[j]
			s3 += v * c3[j]
		}
		z[k], z[k+1], z[k+2], z[k+3] = s0, s1, s2, s3
	}
	for ; k < len(z); k++ {
		ck := comp[k*d : (k+1)*d]
		var s float64
		for j, v := range row {
			s += v * ck[j]
		}
		z[k] = s
	}
}

// decodeRow sets rec to z·comp. Each cell starts at 0 and adds the terms
// of the non-zero codes in ascending k, four components per sweep; a
// block with an exactly-zero code adds its other terms one sweep each.
func decodeRow(rec, z, comp []float64) {
	d := len(rec)
	clear(rec)
	k := 0
	for ; k+4 <= len(z); k += 4 {
		z0, z1, z2, z3 := z[k], z[k+1], z[k+2], z[k+3]
		if z0 == 0 || z1 == 0 || z2 == 0 || z3 == 0 {
			for t := k; t < k+4; t++ {
				axpyRow(rec, z[t], comp[t*d:(t+1)*d])
			}
			continue
		}
		c0 := comp[k*d : (k+1)*d]
		c1 := comp[(k+1)*d : (k+2)*d]
		c2 := comp[(k+2)*d : (k+3)*d]
		c3 := comp[(k+3)*d : (k+4)*d]
		for j, r := range rec {
			r += z0 * c0[j]
			r += z1 * c1[j]
			r += z2 * c2[j]
			r += z3 * c3[j]
			rec[j] = r
		}
	}
	for ; k < len(z); k++ {
		axpyRow(rec, z[k], comp[k*d:(k+1)*d])
	}
}

// axpyRow adds a·row to dst cell by cell, and nothing when a is exactly
// zero, as MulAccInto skips a zero left-hand value.
func axpyRow(dst []float64, a float64, row []float64) {
	if a == 0 {
		return
	}
	dst = dst[:len(row)]
	for j, v := range row {
		dst[j] += a * v
	}
}
