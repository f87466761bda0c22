package linalg

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
// best-effort, checked and randomized fit entry points.
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

// Decode maps latent codes back to the original space: z·PC + μ.
func (p *PCA) Decode(z *Dense) *Dense {
	out := NewDense(z.Rows(), p.Components.Cols())
	MulInto(out, z, p.Components)
	addRowInPlace(out, p.Mean)
	return out
}

// ReconstructionErrors returns the per-row MSE between x and its
// reconstruction — the outlier scores of Algorithm 1 line 14 and
// Definition 4.
func (p *PCA) ReconstructionErrors(x *Dense) []float64 {
	out := make([]float64, x.Rows())
	p.ReconstructionErrorsInto(x, out, nil)
	return out
}

// PCAScratch holds the intermediate matrices of an encode–decode round
// trip so repeated scoring passes allocate nothing. The zero value is
// ready; matrices are (re)sized on first use and whenever shapes change.
// A scratch must not be shared between concurrent calls.
type PCAScratch struct {
	centered *Dense // x − μ
	z        *Dense // latent codes
	rec      *Dense // decoded reconstruction
}

// ensure resizes the scratch matrices for n input rows of d columns
// encoded into c components.
func (s *PCAScratch) ensure(n, d, c int) {
	s.centered = EnsureDense(s.centered, n, d)
	s.z = EnsureDense(s.z, n, c)
	s.rec = EnsureDense(s.rec, n, d)
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
// call allocates nothing; results are bit-identical to
// ReconstructionErrors.
func (p *PCA) ReconstructionErrorsInto(x *Dense, dst []float64, sc *PCAScratch) []float64 {
	if sc == nil {
		sc = &PCAScratch{}
	}
	sc.ensure(x.Rows(), x.Cols(), p.Components.Rows())
	copy(sc.centered.data, x.data)
	subRowInPlace(sc.centered, p.Mean)
	MulTransInto(sc.z, sc.centered, p.Components)
	MulInto(sc.rec, sc.z, p.Components)
	addRowInPlace(sc.rec, p.Mean)
	return RowMSEInto(dst, x, sc.rec)
}

func addRowInPlace(m *Dense, v []float64) {
	if len(v) != m.cols {
		panic("linalg: row vector length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] += v[j]
		}
	}
}

func subRowInPlace(m *Dense, v []float64) {
	if len(v) != m.cols {
		panic("linalg: row vector length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j := range row {
			row[j] -= v[j]
		}
	}
}
