// Package embed turns the textual serialisations of schema elements into
// fixed-size numeric signatures (Section 2.3 of the paper).
//
// The paper uses Sentence-BERT (all-mpnet-base-v2, 768 dimensions). Go has
// no transformer ecosystem, so this package substitutes a deterministic
// semantic hash encoder that preserves the three properties the evaluation
// depends on:
//
//  1. Semantic bridging: tokens in the same curated synonym group (CLIENT ≈
//     CUSTOMER, DELIVERY ≈ SHIPMENT, …) share a concept vector, so
//     differently labelled but synonymous metadata lands nearby — the
//     paper's "labeling conflict" robustness.
//  2. Lexical affinity: hashed character n-grams give sub-word overlap
//     (ORDERDATE vs ORDER_DATE) a similarity boost, mimicking the
//     tokenizer-level overlap a transformer sees.
//  3. Domain separation: tokens from unrelated vocabularies hash to
//     quasi-orthogonal directions in the 768-dimensional space, keeping
//     Formula-One terminology far from order-customer terminology.
//
// Every feature string maps to a deterministic pseudo-random Gaussian
// vector; a text sequence is the weighted average (average pooling) of its
// token-concept and n-gram vectors, L2-normalised. Encoding is pure: the
// same text always yields the same signature.
package embed

import (
	"context"
	"hash/fnv"
	"math"
	"sync"

	"collabscope/internal/parallel"
	"collabscope/internal/token"
)

// DefaultDim matches the Sentence-BERT all-mpnet-base-v2 signature length
// used in the paper.
const DefaultDim = 768

// Encoder transforms text sequences into fixed-size signatures. It is the
// global language model E that all schemas agree on in phase (I) of
// collaborative scoping.
//
// The contract is batch-first so remote backends (internal/encoder) can
// amortise round trips: one call encodes a whole schema. Implementations
// must return exactly len(texts) vectors of exactly Dim() entries each —
// EncodeElementsContext validates this at pipeline ingress and rejects
// violations with ErrDimMismatch — and must be deterministic: the same
// texts yield bit-identical signatures on every call, at any concurrency.
type Encoder interface {
	// EncodeBatch returns one signature per text, in input order.
	EncodeBatch(ctx context.Context, texts []string) ([][]float64, error)
	// Dim returns the signature length.
	Dim() int
}

// TextEncoder is the one-string-at-a-time contract local encoders
// implement; Batch adapts it to the batch-first Encoder interface.
type TextEncoder interface {
	// Encode returns the signature of a text sequence.
	Encode(text string) []float64
	// Dim returns the signature length.
	Dim() int
}

// Batch adapts a TextEncoder to the batch-first Encoder contract. Texts
// fan out over the worker pool (worker count from WithWorkers on the
// context, GOMAXPROCS otherwise) with the pool's full guarantees: results
// are bit-identical at any worker count, and a panicking Encode fails only
// the batch — recovered into a *parallel.PanicError naming the text index
// — never the process.
func Batch(e TextEncoder) Encoder { return batchAdapter{enc: e} }

type batchAdapter struct{ enc TextEncoder }

func (a batchAdapter) Dim() int { return a.enc.Dim() }

func (a batchAdapter) EncodeBatch(ctx context.Context, texts []string) ([][]float64, error) {
	return encodeTexts(ctx, a.enc, texts)
}

// workersKey carries the pipeline's worker count to batch adapters.
type workersKey struct{}

// WithWorkers arms the context with the worker count local batch encoders
// fan out over (n ≤ 0 means GOMAXPROCS). EncodeSchemaContext sets it from
// its workers argument; remote backends ignore it.
func WithWorkers(ctx context.Context, n int) context.Context {
	if n <= 0 {
		return ctx
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// WorkersFromContext reads the worker count armed with WithWorkers
// (0 — meaning GOMAXPROCS — when absent).
func WorkersFromContext(ctx context.Context) int {
	if n, ok := ctx.Value(workersKey{}).(int); ok {
		return n
	}
	return 0
}

// encodeTexts is the shared local batch path: per-text fan-out over the
// worker pool, preserving the pool's determinism and panic isolation.
func encodeTexts(ctx context.Context, enc TextEncoder, texts []string) ([][]float64, error) {
	out := make([][]float64, len(texts))
	err := parallel.ForEach(ctx, WorkersFromContext(ctx), len(texts), func(i int) error {
		out[i] = enc.Encode(texts[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// HashEncoder is the deterministic semantic hash encoder described in the
// package comment. The zero value is not usable; call NewHashEncoder.
type HashEncoder struct {
	dim         int
	ngramWeight float64
	ngramSize   int

	mu    sync.Mutex
	cache map[string][]float64 // feature string → unnormalised feature vector
}

// HashOption configures a HashEncoder. (Renamed from Option so the
// package-level option namespace is free for backend-level options.)
type HashOption func(*HashEncoder)

// WithDim sets the signature dimensionality (default DefaultDim).
func WithDim(d int) HashOption {
	return func(e *HashEncoder) { e.dim = d }
}

// WithNgramWeight sets the relative weight of the character-n-gram channel
// against the token-concept channel (default 0.35).
func WithNgramWeight(w float64) HashOption {
	return func(e *HashEncoder) { e.ngramWeight = w }
}

// NewHashEncoder returns an encoder with the given options.
func NewHashEncoder(opts ...HashOption) *HashEncoder {
	e := &HashEncoder{
		dim:         DefaultDim,
		ngramWeight: 0.35,
		ngramSize:   3,
		cache:       map[string][]float64{},
	}
	for _, o := range opts {
		o(e)
	}
	if e.dim <= 0 {
		panic("embed: non-positive dimension")
	}
	return e
}

// Dim returns the signature length.
func (e *HashEncoder) Dim() int { return e.dim }

// EncodeBatch encodes every text, fanning out over the worker pool — the
// batch-first Encoder contract, bit-identical to per-text Encode calls.
func (e *HashEncoder) EncodeBatch(ctx context.Context, texts []string) ([][]float64, error) {
	return encodeTexts(ctx, e, texts)
}

// Encode tokenizes the text, pools concept and n-gram feature vectors, and
// returns the L2-normalised signature. Empty or token-free text yields a
// zero vector.
func (e *HashEncoder) Encode(text string) []float64 {
	tokens := token.Normalize(text)
	sig := make([]float64, e.dim)
	if len(tokens) == 0 {
		return sig
	}

	invTok := 1 / float64(len(tokens))
	for _, tok := range tokens {
		// Concept channel: average pooling over token concepts.
		concept := token.Concept(tok)
		e.accumulate(sig, "c:"+concept, invTok)

		// N-gram channel: sub-word lexical affinity on the raw token.
		grams := ngrams(tok, e.ngramSize)
		if len(grams) == 0 {
			continue
		}
		w := e.ngramWeight * invTok / float64(len(grams))
		for _, g := range grams {
			e.accumulate(sig, "g:"+g, w)
		}
	}

	normalize(sig)
	return sig
}

// accumulate adds weight·featureVector(feature) into sig.
func (e *HashEncoder) accumulate(sig []float64, feature string, weight float64) {
	v := e.feature(feature)
	for i := range sig {
		sig[i] += weight * v[i]
	}
}

// feature returns the cached deterministic Gaussian vector for a feature.
// A missing vector is built outside the lock, so concurrent encodes of new
// features do not queue behind each other's Box–Muller draws; the vector is
// a pure function of the feature, so when two goroutines race to build the
// same one, keeping the first stored changes no result.
func (e *HashEncoder) feature(feature string) []float64 {
	e.mu.Lock()
	v, ok := e.cache[feature]
	e.mu.Unlock()
	if ok {
		return v
	}
	v = gaussianVector(feature, e.dim)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cached, ok := e.cache[feature]; ok {
		return cached
	}
	e.cache[feature] = v
	return v
}

// ngrams returns the padded character n-grams of a token: "name" with n=3
// yields ^na, nam, ame, me$.
func ngrams(tok string, n int) []string {
	padded := "^" + tok + "$"
	if len(padded) < n {
		return []string{padded}
	}
	out := make([]string, 0, len(padded)-n+1)
	for i := 0; i+n <= len(padded); i++ {
		out = append(out, padded[i:i+n])
	}
	return out
}

// gaussianVector derives a deterministic pseudo-random unit-variance
// Gaussian vector from a feature string via FNV seeding and splitmix64.
func gaussianVector(feature string, dim int) []float64 {
	h := fnv.New64a()
	h.Write([]byte(feature))
	state := h.Sum64()
	v := make([]float64, dim)
	for i := 0; i < dim; i += 2 {
		// Box–Muller from two uniform draws.
		var u1, u2 float64
		state, u1 = splitmix64(state)
		state, u2 = splitmix64(state)
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		r := math.Sqrt(-2 * math.Log(u1))
		v[i] = r * math.Cos(2*math.Pi*u2)
		if i+1 < dim {
			v[i+1] = r * math.Sin(2*math.Pi*u2)
		}
	}
	return v
}

// splitmix64 advances the state and returns a uniform float64 in [0, 1).
func splitmix64(state uint64) (uint64, float64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return state, float64(z>>11) / float64(1<<53)
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	inv := 1 / math.Sqrt(n)
	for i := range v {
		v[i] *= inv
	}
}
