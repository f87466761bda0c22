// Package nn is a small dense-feed-forward neural network substrate with
// backpropagation and the Adam optimiser, sufficient to reproduce the
// paper's autoencoder baseline (a fully dense 768|100|10|100|768 network
// with ReLU activations trained on mean-squared error).
//
// Everything is deterministic: weight initialisation and mini-batch
// shuffling derive from caller-provided seeds. Training and batch scoring
// run on the internal/linalg kernel layer — the forward pass is a
// bias-initialised GEMM per layer, the backward pass a pair of GEMMs whose
// accumulation order exactly matches per-sample backpropagation, so the
// batched implementation produces bit-identical weights and scores.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"collabscope/internal/linalg"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	Linear Activation = iota
	ReLU
)

type layer struct {
	in, out int
	act     Activation
	w       *linalg.Dense // out×in
	b       []float64     // out

	// Adam state.
	mw, vw *linalg.Dense
	mb, vb []float64
}

// Network is a feed-forward stack of dense layers.
type Network struct {
	layers []*layer
	step   int
	bsc    batchScratch
}

// LayerSpec describes one dense layer.
type LayerSpec struct {
	Out int
	Act Activation
}

// NewNetwork builds a network taking inputs of size in, with He-initialised
// weights drawn from the given seed.
func NewNetwork(in int, seed int64, specs ...LayerSpec) *Network {
	if in <= 0 {
		panic("nn: non-positive input size")
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Network{}
	prev := in
	for _, spec := range specs {
		if spec.Out <= 0 {
			panic("nn: non-positive layer size")
		}
		l := &layer{
			in: prev, out: spec.Out, act: spec.Act,
			w:  linalg.NewDense(spec.Out, prev),
			b:  make([]float64, spec.Out),
			mw: linalg.NewDense(spec.Out, prev),
			vw: linalg.NewDense(spec.Out, prev),
			mb: make([]float64, spec.Out),
			vb: make([]float64, spec.Out),
		}
		scale := math.Sqrt(2 / float64(prev))
		for o := 0; o < spec.Out; o++ {
			row := l.w.RowView(o)
			for i := range row {
				row[i] = rng.NormFloat64() * scale
			}
		}
		n.layers = append(n.layers, l)
		prev = spec.Out
	}
	return n
}

// InputSize returns the expected input length.
func (n *Network) InputSize() int {
	if len(n.layers) == 0 {
		return 0
	}
	return n.layers[0].in
}

// OutputSize returns the output length.
func (n *Network) OutputSize() int {
	if len(n.layers) == 0 {
		return 0
	}
	return n.layers[len(n.layers)-1].out
}

// Forward runs one input through the network.
func (n *Network) Forward(x []float64) []float64 { // lintobs:allow reference the batched reconstruction tests check against
	if len(x) != n.InputSize() {
		panic(fmt.Sprintf("nn: input length %d, want %d", len(x), n.InputSize()))
	}
	a := x
	for _, l := range n.layers {
		a = l.forward(a)
	}
	out := make([]float64, len(a))
	copy(out, a)
	return out
}

// forward computes the single-sample layer output.
func (l *layer) forward(x []float64) []float64 {
	out := make([]float64, l.out)
	for o := 0; o < l.out; o++ {
		s := l.b[o]
		row := l.w.RowView(o)
		for i, xi := range x {
			s += row[i] * xi
		}
		if l.act == ReLU && s < 0 {
			s = 0
		}
		out[o] = s
	}
	return out
}

// ForwardScratch holds the per-layer activation matrices of ForwardBatch
// so repeated batch scoring allocates nothing once warm. The zero value is
// ready. A scratch must not be shared between concurrent calls.
type ForwardScratch struct {
	acts []*linalg.Dense
}

func (s *ForwardScratch) ensure(n *Network, rows int) {
	if len(s.acts) != len(n.layers) {
		s.acts = make([]*linalg.Dense, len(n.layers))
	}
	for li, l := range n.layers {
		s.acts[li] = linalg.EnsureDense(s.acts[li], rows, l.out)
	}
}

// ForwardBatch runs every row of x through the network with one
// bias-initialised GEMM per layer and returns the final activation matrix
// (owned by the scratch; valid until the next call). Row r of the result
// is bit-identical to Forward(x.Row(r)).
func (n *Network) ForwardBatch(x *linalg.Dense, sc *ForwardScratch) *linalg.Dense {
	if x.Cols() != n.InputSize() {
		panic(fmt.Sprintf("nn: batch input width %d, want %d", x.Cols(), n.InputSize()))
	}
	if len(n.layers) == 0 {
		return x
	}
	if sc == nil {
		sc = &ForwardScratch{}
	}
	sc.ensure(n, x.Rows())
	in := x
	for li, l := range n.layers {
		out := sc.acts[li]
		fillRows(out, l.b)
		linalg.MulTransAccInto(out, in, l.w)
		if l.act == ReLU {
			clampNegative(out)
		}
		in = out
	}
	return in
}

// fillRows sets every row of m to v.
func fillRows(m *linalg.Dense, v []float64) {
	for r := 0; r < m.Rows(); r++ {
		copy(m.RowView(r), v)
	}
}

// clampNegative applies ReLU in place with the same s < 0 test as the
// single-sample path (−0 is preserved, matching it bit for bit).
func clampNegative(m *linalg.Dense) {
	for r := 0; r < m.Rows(); r++ {
		row := m.RowView(r)
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	}
}

// TrainConfig controls AutoencoderTrainer-style SGD with Adam.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LearnRate float64
	Seed      int64 // mini-batch shuffle seed
}

// DefaultTrainConfig mirrors the paper's Keras settings: Adam with its
// default learning rate, 50 epochs.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 50, BatchSize: 16, LearnRate: 1e-3, Seed: 1}
}

// Fit trains the network to map inputs x to targets y under MSE loss and
// returns the final epoch's mean loss. Rows of x and y correspond.
func (n *Network) Fit(x, y *linalg.Dense, cfg TrainConfig) float64 {
	if x.Rows() != y.Rows() {
		panic(fmt.Sprintf("nn: %d inputs vs %d targets", x.Rows(), y.Rows()))
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 1e-3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, x.Rows())
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			epochLoss += n.trainBatch(x, y, idx[start:end], cfg.LearnRate)
		}
		if x.Rows() > 0 {
			lastLoss = epochLoss / float64(x.Rows())
		}
	}
	return lastLoss
}

// batchScratch holds the reusable matrices of trainBatch: gathered batch
// rows, per-layer activations and deltas, and gradient accumulators. All
// are resized via EnsureDense, so steady-state batches allocate nothing.
type batchScratch struct {
	xb, yb *linalg.Dense
	acts   []*linalg.Dense // activation output of each layer
	deltas []*linalg.Dense // loss gradient w.r.t. each layer's output
	gw     []*linalg.Dense // weight gradients
	gb     [][]float64     // bias gradients
}

func (s *batchScratch) ensure(n *Network, bs int) {
	L := len(n.layers)
	if len(s.acts) != L {
		s.acts = make([]*linalg.Dense, L)
		s.deltas = make([]*linalg.Dense, L)
		s.gw = make([]*linalg.Dense, L)
		s.gb = make([][]float64, L)
	}
	s.xb = linalg.EnsureDense(s.xb, bs, n.InputSize())
	s.yb = linalg.EnsureDense(s.yb, bs, n.OutputSize())
	for li, l := range n.layers {
		s.acts[li] = linalg.EnsureDense(s.acts[li], bs, l.out)
		s.deltas[li] = linalg.EnsureDense(s.deltas[li], bs, l.out)
		if s.gw[li] == nil {
			s.gw[li] = linalg.NewDense(l.out, l.in)
			s.gb[li] = make([]float64, l.out)
		}
	}
}

// trainBatch accumulates gradients over the batch and applies one Adam
// step, returning the summed per-example MSE loss. The batch runs as three
// GEMM families per layer — bias-initialised forward (MulTransAccInto),
// weight gradients (MulATBInto, ascending-sample rank-1 updates), and
// delta back-projection (MulInto, ascending-unit accumulation) — each
// matching the accumulation order of per-sample backpropagation exactly,
// so losses, gradients, and updated weights are bit-identical to it.
func (n *Network) trainBatch(x, y *linalg.Dense, batch []int, lr float64) float64 {
	bs := len(batch)
	L := len(n.layers)
	sc := &n.bsc
	sc.ensure(n, bs)
	for r, row := range batch {
		copy(sc.xb.RowView(r), x.RowView(row))
		copy(sc.yb.RowView(r), y.RowView(row))
	}

	// Forward.
	in := sc.xb
	for li, l := range n.layers {
		out := sc.acts[li]
		fillRows(out, l.b)
		linalg.MulTransAccInto(out, in, l.w)
		if l.act == ReLU {
			clampNegative(out)
		}
		in = out
	}

	// Output delta and loss: dL/dout for MSE = 2(out − target)/d, folded in
	// ascending sample-then-dimension order.
	out := sc.acts[L-1]
	dOut := sc.deltas[L-1]
	invDim := 1 / float64(n.OutputSize())
	var loss float64
	for s := 0; s < bs; s++ {
		or, tr, dr := out.RowView(s), sc.yb.RowView(s), dOut.RowView(s)
		for i := range or {
			diff := or[i] - tr[i]
			loss += diff * diff * invDim
			dr[i] = 2 * diff * invDim
		}
	}

	// Backward.
	for li := L - 1; li >= 0; li-- {
		l := n.layers[li]
		d := sc.deltas[li]
		if l.act == ReLU {
			// Zero the delta where the unit was inactive. The clamped
			// activation is ≤ 0 exactly when the pre-activation was, so no
			// pre-activation storage is needed.
			a := sc.acts[li]
			for s := 0; s < bs; s++ {
				ar, dr := a.RowView(s), d.RowView(s)
				for o, v := range ar {
					if v <= 0 {
						dr[o] = 0
					}
				}
			}
		}
		inAct := sc.xb
		if li > 0 {
			inAct = sc.acts[li-1]
		}
		linalg.MulATBInto(sc.gw[li], d, inAct)
		gb := sc.gb[li]
		for o := range gb {
			gb[o] = 0
		}
		for s := 0; s < bs; s++ {
			for o, v := range d.RowView(s) {
				if v != 0 {
					gb[o] += v
				}
			}
		}
		if li > 0 {
			linalg.MulInto(sc.deltas[li-1], d, l.w)
		}
	}

	inv := 1 / float64(bs)
	n.step++
	for li, l := range n.layers {
		for o := 0; o < l.out; o++ {
			adamStep(l.w.RowView(o), sc.gw[li].RowView(o), l.mw.RowView(o), l.vw.RowView(o), lr, inv, n.step)
		}
		adamStep(l.b, sc.gb[li], l.mb, l.vb, lr, inv, n.step)
	}
	return loss
}

// adamStep applies one Adam update to params given accumulated gradients
// scaled by invBatch.
func adamStep(params, grad, m, v []float64, lr, invBatch float64, step int) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	c1 := 1 - math.Pow(beta1, float64(step))
	c2 := 1 - math.Pow(beta2, float64(step))
	for i := range params {
		g := grad[i] * invBatch
		m[i] = beta1*m[i] + (1-beta1)*g
		v[i] = beta2*v[i] + (1-beta2)*g*g
		params[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + eps)
	}
}

// Autoencoder is a network trained to reconstruct its input.
type Autoencoder struct {
	net *Network
}

// NewAutoencoder builds a symmetric dense autoencoder with the given hidden
// layer sizes (e.g. 100, 10, 100 for the paper's 768|100|10|100|768) using
// ReLU on hidden layers and a linear output.
func NewAutoencoder(dim int, seed int64, hidden ...int) *Autoencoder {
	specs := make([]LayerSpec, 0, len(hidden)+1)
	for _, h := range hidden {
		specs = append(specs, LayerSpec{Out: h, Act: ReLU})
	}
	specs = append(specs, LayerSpec{Out: dim, Act: Linear})
	return &Autoencoder{net: NewNetwork(dim, seed, specs...)}
}

// Fit trains the autoencoder to reconstruct the rows of x and returns the
// final epoch's mean loss.
func (a *Autoencoder) Fit(x *linalg.Dense, cfg TrainConfig) float64 {
	return a.net.Fit(x, x, cfg)
}

// ReconstructionErrors returns the per-row MSE between each row of x and
// its reconstruction.
func (a *Autoencoder) ReconstructionErrors(x *linalg.Dense) []float64 {
	return a.ReconstructionErrorsInto(x, make([]float64, x.Rows()), nil)
}

// ReconstructionErrorsInto scores every row with one batched forward pass,
// writing into dst (length x.Rows()). With a non-nil warm scratch the call
// allocates nothing; values are bit-identical to per-row Forward + MSE.
func (a *Autoencoder) ReconstructionErrorsInto(x *linalg.Dense, dst []float64, sc *ForwardScratch) []float64 {
	rec := a.net.ForwardBatch(x, sc)
	return linalg.RowMSEInto(dst, x, rec)
}
