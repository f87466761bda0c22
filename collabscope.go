package collabscope

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"

	"collabscope/internal/ann"
	"collabscope/internal/core"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/encoder"
	"collabscope/internal/enrich"
	"collabscope/internal/exchange"
	"collabscope/internal/integrate"
	"collabscope/internal/linalg"
	"collabscope/internal/match"
	"collabscope/internal/obs"
	"collabscope/internal/outlier"
	"collabscope/internal/parallel"
	"collabscope/internal/schema"
	"collabscope/internal/scoping"
)

// Re-exported schema model types. The schema package is internal; these
// aliases form the public surface.
type (
	// Schema is a named set of tables.
	Schema = schema.Schema
	// Table is a named set of attributes.
	Table = schema.Table
	// Attribute is a column described by metadata only.
	Attribute = schema.Attribute
	// ElementID identifies a table or attribute across schemas.
	ElementID = schema.ElementID
	// Linkage is an annotated semantic congruence between two elements.
	Linkage = schema.Linkage
	// GroundTruth is an annotated linkage set L(S).
	GroundTruth = schema.GroundTruth
	// SignatureSet couples element identifiers with signature vectors.
	SignatureSet = embed.SignatureSet
	// Encoder transforms element text into fixed-size signatures.
	Encoder = embed.Encoder
	// Detector is an outlier detection algorithm for global scoping.
	Detector = outlier.Detector
	// Matcher generates linkage candidates between two schemas.
	Matcher = match.Matcher
	// Pair is a generated linkage candidate.
	Pair = match.Pair
	// MatchEval holds PQ / PC / F1 / RR match quality.
	MatchEval = match.Eval
	// Model is a local collaborative-scoping encoder-decoder.
	Model = core.Model
	// Dataset is a named matching scenario with ground truth.
	Dataset = datasets.Dataset
)

// Data type and constraint constants of the schema model.
const (
	TypeText      = schema.TypeText
	TypeNumber    = schema.TypeNumber
	TypeDecimal   = schema.TypeDecimal
	TypeDate      = schema.TypeDate
	TypeTimestamp = schema.TypeTimestamp
	TypeBoolean   = schema.TypeBoolean
	TypeBinary    = schema.TypeBinary
	TypeUnknown   = schema.TypeUnknown

	PrimaryKey   = schema.PrimaryKey
	ForeignKey   = schema.ForeignKey
	NoConstraint = schema.NoConstraint

	InterIdentical = schema.InterIdentical
	InterSubTyped  = schema.InterSubTyped
)

// Failure taxonomy (DESIGN.md §9). Every pipeline stage wraps its failures
// around one of these sentinels, naming the offending schema and element,
// so callers can classify with errors.Is: bad input data (ErrNonFinite),
// numerically hopeless input (ErrSVDNoConvergence), unusable training
// output (ErrDegenerateModel), or a bug in stage code (PanicError).
var (
	// ErrNonFinite reports NaN/Inf contamination in signatures or matrices,
	// detected at pipeline ingress (signature encoding) and before every
	// model fit.
	ErrNonFinite = linalg.ErrNonFinite
	// ErrSVDNoConvergence reports that the Jacobi SVD exhausted its sweep
	// budget without converging, instead of silently returning a partial
	// decomposition.
	ErrSVDNoConvergence = linalg.ErrSVDNoConvergence
	// ErrDegenerateModel reports that training produced a model that cannot
	// assess anything (no components, or a non-finite linkability range).
	ErrDegenerateModel = core.ErrDegenerateModel
)

// PanicError reports a panic recovered inside a parallel pipeline stage.
// It identifies the offending element index and carries the panic value and
// stack; one malformed element fails one call, never the process.
type PanicError = parallel.PanicError

// ExplainError returns a one-line operator hint classifying a pipeline
// failure against the taxonomy, or "" when the error matches no class. The
// CLIs print it under the raw error.
func ExplainError(err error) string {
	var pe *PanicError
	switch {
	case err == nil:
		return ""
	case errors.As(err, &pe):
		return fmt.Sprintf("an element handler panicked on item %d — a bug in stage code, not bad input; the error carries the stack", pe.Index)
	case errors.Is(err, ErrNonFinite):
		return "a signature contains NaN/Inf — the error names the schema element and dimension; check the encoder input"
	case errors.Is(err, ErrDimMismatch):
		return "signatures of the wrong shape — the error names the element (check the encoder backend's dimension against WithDimension) or a foreign model trained at another dimension and both widths (retrain it at the shared dimension)"
	case errors.Is(err, ErrSVDNoConvergence):
		return "the SVD exhausted its sweep budget — the input matrix is numerically ill-conditioned"
	case errors.Is(err, ErrDegenerateModel):
		return "training produced an unusable model — the schema's signatures may be constant, empty, or contaminated"
	}
	return ""
}

// TableID returns the element identifier of a table.
func TableID(schemaName, table string) ElementID { return schema.TableID(schemaName, table) }

// AttributeID returns the element identifier of an attribute.
func AttributeID(schemaName, table, attr string) ElementID {
	return schema.AttributeID(schemaName, table, attr)
}

// NewGroundTruth returns an empty annotated linkage set.
func NewGroundTruth() *GroundTruth { return schema.NewGroundTruth() }

// ParseDDL parses CREATE TABLE statements into a schema.
func ParseDDL(name, ddl string) (*Schema, error) { return schema.ParseDDL(name, ddl) }

// ReadSchemaJSON decodes and validates a schema from JSON.
func ReadSchemaJSON(r io.Reader) (*Schema, error) { return schema.ReadJSON(r) }

// ReadGroundTruthJSON decodes an annotated linkage set from JSON.
func ReadGroundTruthJSON(r io.Reader) (*GroundTruth, error) {
	return schema.ReadGroundTruthJSON(r)
}

// ReadModelJSON deserialises a local model exchanged by another schema.
// Models serialise with (*Model).WriteJSON; only the mean, principal
// components, and linkability range travel — never schema elements.
func ReadModelJSON(r io.Reader) (*Model, error) { return core.ReadModelJSON(r) }

// Pipeline bundles the encoder shared by all schemas — the globally agreed
// language model E of collaborative scoping phase (I) — together with the
// worker-pool parallelism every stage fans out on.
//
// All stages are deterministic: the same inputs produce bit-identical
// results for any parallelism setting. Every method that runs a stage takes
// a context, stops promptly with ctx.Err() once it is done, and returns the
// error of every stage it runs: a failed encode or assessment is never
// reported as an empty result.
type Pipeline struct {
	enc     embed.Encoder
	workers int

	// Encoder backend selection (see encoders.go). A spec set with
	// WithEncoderBackend is resolved once in New, after all options, so it
	// composes with WithDimension/WithMetrics/WithRetryPolicy regardless of
	// order; a resolution failure is deferred into encErr and surfaces on
	// the first encode.
	encSpec    string
	hasEncSpec bool
	encDim     int
	encCache   string
	encErr     error

	// Enrichment stage between schema load and encoding (see encoders.go).
	enrichers []enrich.Enricher

	// Observability (see WithMetrics / WithTraceLog). Both nil by default:
	// instrumentation is zero-cost when disabled.
	reg   *obs.Registry
	trace *obs.TraceLog

	// Remote-exchange configuration (see remote.go).
	httpClient *http.Client
	retry      RetryPolicy
	hasRetry   bool
	exchOpts   []exchange.ClientOption
	exchOnce   sync.Once
	exch       *exchange.Client
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithEncoder replaces the default deterministic hash encoder.
func WithEncoder(e Encoder) Option {
	return func(p *Pipeline) { p.enc = e }
}

// WithDimension sets the signature dimensionality of the default encoder
// (768, the Sentence-BERT size of the paper, if unset). A backend chosen
// with WithEncoderBackend inherits the dimension in any option order.
func WithDimension(dim int) Option {
	return func(p *Pipeline) {
		p.encDim = dim
		p.enc = embed.NewHashEncoder(embed.WithDim(dim))
	}
}

// WithParallelism sets the worker count used by every pipeline stage
// (encoding, matching, training, assessment). n ≤ 0 restores the default,
// runtime.GOMAXPROCS(0). Results are identical for any setting; n only
// controls how many cores the work spreads over.
func WithParallelism(n int) Option {
	return func(p *Pipeline) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		p.workers = n
	}
}

// Metrics is a set of named instruments — atomic counters, gauges, and
// fixed-bucket latency histograms — that every instrumented layer reports
// into: pipeline stage spans, the worker pool, and the model-exchange
// client and server. Create one with NewMetrics, attach it with
// WithMetrics, and read it back with Pipeline.Metrics().Snapshot().
type Metrics = obs.Registry

// MetricsSnapshot is a point-in-time copy of a Metrics registry. It
// marshals to JSON (the /metrics wire format of model hubs) and
// pretty-prints with Fprint — what `collabscope stats -metrics` shows.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// ReadMetricsSnapshotJSON decodes a snapshot produced by
// MetricsSnapshot.WriteJSON or served by a hub's /metrics endpoint.
func ReadMetricsSnapshotJSON(r io.Reader) (MetricsSnapshot, error) {
	return obs.ReadSnapshotJSON(r)
}

// WithMetrics attaches a metrics registry to the pipeline. Every stage then
// records spans ("span.pipeline.scope", "span.core.assess", …), the worker
// pool its queue-wait/task latencies and panic count, and the remote
// exchange its per-peer request latencies, retries, and 304 cache hits.
// WithMetrics(nil) — the default — disables instrumentation entirely; the
// disabled path is a nil check that allocates nothing (pinned by
// TestDisabledPathAllocations and the obs benchmarks).
func WithMetrics(m *Metrics) Option {
	return func(p *Pipeline) { p.reg = m }
}

// WithTraceLog streams one JSON line per completed pipeline span to w
// (element counts included), nested spans carrying their depth. A nil
// writer disables tracing. Tracing works with or without WithMetrics.
func WithTraceLog(w io.Writer) Option {
	return func(p *Pipeline) { p.trace = obs.NewTraceLog(w) }
}

// Metrics returns the registry attached with WithMetrics (nil when
// instrumentation is disabled; a nil registry is safe to Snapshot).
func (p *Pipeline) Metrics() *Metrics { return p.reg }

// obsContext arms the context with the pipeline's registry and trace sink.
// Without instrumentation the context passes through untouched, and a
// context already carrying a scope (a nested pipeline call) keeps its span
// chain.
func (p *Pipeline) obsContext(ctx context.Context) context.Context {
	if p.reg == nil && p.trace == nil {
		return ctx
	}
	return obs.EnsureContext(ctx, p.reg, p.trace)
}

// New returns a pipeline with the default 768-dimensional encoder and
// GOMAXPROCS-wide parallelism.
func New(opts ...Option) *Pipeline {
	p := &Pipeline{enc: embed.NewHashEncoder(), workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(p)
	}
	if p.hasEncSpec {
		cfg := encoder.Config{
			Dim:        p.encDim,
			CachePath:  p.encCache,
			HTTPClient: p.httpClient,
			Metrics:    p.reg,
		}
		if p.hasRetry {
			cfg.Retry = p.retry
		}
		enc, err := encoder.New(p.encSpec, cfg)
		if err != nil {
			p.encErr = err
		} else {
			p.enc = enc
		}
	}
	return p
}

// Encoder returns the pipeline's signature encoder.
func (p *Pipeline) Encoder() Encoder { return p.enc }

// Parallelism returns the pipeline's worker count.
func (p *Pipeline) Parallelism() int { return p.workers }

// EncodeContext serialises and encodes every element of a schema. With
// enrichers attached (WithEnrichers), the elements pass through the
// enrichment stage before encoding.
func (p *Pipeline) EncodeContext(ctx context.Context, s *Schema) (*SignatureSet, error) {
	if p.encErr != nil {
		return nil, p.encErr
	}
	ctx = p.obsContext(ctx)
	if len(p.enrichers) == 0 {
		return embed.EncodeSchemaContext(ctx, p.workers, p.enc, s)
	}
	return embed.EncodeElementsContext(ctx, p.workers, p.enc, enrich.Schema(ctx, p.enrichers, s))
}

// EncodeAllContext encodes each schema independently with the shared
// encoder. Schemas encode sequentially while their elements fan out (or
// batch to a remote backend), keeping the worker pool saturated without
// nesting pools.
func (p *Pipeline) EncodeAllContext(ctx context.Context, schemas []*Schema) ([]*SignatureSet, error) {
	if p.encErr != nil {
		return nil, p.encErr
	}
	ctx = p.obsContext(ctx)
	out := make([]*SignatureSet, len(schemas))
	for i, s := range schemas {
		set, err := p.EncodeContext(ctx, s)
		if err != nil {
			return nil, err
		}
		out[i] = set
	}
	return out, nil
}

// ScopeResult is the outcome of a scoping run.
type ScopeResult struct {
	// Keep maps every element to its linkability verdict.
	Keep map[ElementID]bool
	// Streamlined holds the pruned schemas S′, aligned with the input.
	Streamlined []*Schema
	// Kept and Pruned count the verdicts.
	Kept, Pruned int
}

func newScopeResult(schemas []*Schema, keep map[ElementID]bool) *ScopeResult {
	res := &ScopeResult{Keep: keep}
	for _, s := range schemas {
		res.Streamlined = append(res.Streamlined, s.Subset(keep))
	}
	for _, ok := range keep {
		if ok {
			res.Kept++
		} else {
			res.Pruned++
		}
	}
	return res
}

// CollaborativeScopeContext runs the paper's contribution end-to-end:
// local signatures, local self-supervised models at the global explained
// variance v ∈ (0, 1], and the distributed linkability assessment. It
// returns the linkability verdicts and the streamlined schemas. Encoding,
// per-schema training, and the assessment all stop promptly once ctx is
// done, returning ctx.Err().
func (p *Pipeline) CollaborativeScopeContext(ctx context.Context, schemas []*Schema, v float64) (*ScopeResult, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.scope")
	sp.Annotate("schemas", int64(len(schemas)))
	defer sp.End()
	sets, err := p.EncodeAllContext(ctx, schemas)
	if err != nil {
		return nil, err
	}
	scoper, err := core.NewScoperContext(ctx, p.workers, sets, core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	keep, err := scoper.ScopeContext(ctx, v)
	if err != nil {
		return nil, err
	}
	return newScopeResult(schemas, keep), nil
}

// SuggestVarianceContext proposes an explained-variance setting
// label-free, by locating the saturation cliff of the kept-count curve over
// the grid (an extension; the paper leaves the ideal v scenario-dependent).
// A nil grid uses DefaultVarianceGrid. The grid points fan out over the
// worker pool.
func (p *Pipeline) SuggestVarianceContext(ctx context.Context, schemas []*Schema, grid []float64) (float64, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.sweep")
	sp.Annotate("schemas", int64(len(schemas)))
	defer sp.End()
	sets, err := p.EncodeAllContext(ctx, schemas)
	if err != nil {
		return 0, err
	}
	scoper, err := core.NewScoperContext(ctx, p.workers, sets, core.AssessConfig{})
	if err != nil {
		return 0, err
	}
	if grid == nil {
		grid = DefaultVarianceGrid()
	}
	return scoper.SuggestVarianceContext(ctx, grid)
}

// DefaultVarianceGrid returns the explained-variance grid
// SuggestVarianceContext sweeps when none is given: 1.00, 0.95, … 0.05 in
// exact 0.05 steps, with a final 0.01 probe. Points are generated from
// integer steps, so each value is the float64 nearest its decimal (no
// accumulated subtraction drift).
func DefaultVarianceGrid() []float64 {
	grid := make([]float64, 0, 21)
	for i := 20; i >= 1; i-- {
		grid = append(grid, float64(i)/20)
	}
	return append(grid, 0.01)
}

// TrainModelContext runs Algorithm 1 for a single schema, returning the
// local model that can be exchanged with other parties.
func (p *Pipeline) TrainModelContext(ctx context.Context, s *Schema, v float64) (*Model, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.train")
	defer sp.End()
	set, err := p.EncodeContext(ctx, s)
	if err != nil {
		return nil, err
	}
	sp.Annotate("elements", int64(set.Len()))
	return core.Train(set, v)
}

// AssessContext runs Algorithm 2 for a single schema against foreign
// models, returning the linkability verdict for each local element. A
// model published under the schema's own name is skipped, as Algorithm 2
// requires. The element-by-foreign-model passes fan out over the worker
// pool.
func (p *Pipeline) AssessContext(ctx context.Context, s *Schema, models []*Model) (map[ElementID]bool, error) {
	foreign := foreignModels(models, s.Name)
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.assess")
	sp.Annotate("models", int64(len(foreign)))
	defer sp.End()
	set, err := p.EncodeContext(ctx, s)
	if err != nil {
		return nil, err
	}
	return core.AssessContext(ctx, p.workers, set, foreign, core.AssessConfig{})
}

// GlobalScopeContext runs the prior-work scoping baseline: rank the
// unified signature set with the detector and keep the fraction
// keep ∈ [0, 1] with the lowest outlier scores. Every detector honours
// ctx; LOF, kNN, Mahalanobis and the autoencoder ensemble check it mid-scan
// and fan out over the worker pool.
func (p *Pipeline) GlobalScopeContext(ctx context.Context, schemas []*Schema, det Detector, keep float64) (*ScopeResult, error) {
	if det == nil {
		return nil, fmt.Errorf("collabscope: nil detector")
	}
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.globalscope")
	sp.Annotate("schemas", int64(len(schemas)))
	defer sp.End()
	sets, err := p.EncodeAllContext(ctx, schemas)
	if err != nil {
		return nil, err
	}
	union := embed.Union(sets)
	if union.Len() == 0 {
		return nil, fmt.Errorf("collabscope: no schema elements to scope")
	}
	ranking, err := scoping.RankContext(ctx, p.workers, det, union)
	if err != nil {
		return nil, err
	}
	return newScopeResult(schemas, completeKeep(union, ranking.Scope(keep))), nil
}

// completeKeep turns a kept-only set into a full verdict map over all
// elements.
func completeKeep(union *SignatureSet, kept map[ElementID]bool) map[ElementID]bool {
	out := make(map[ElementID]bool, union.Len())
	for _, id := range union.IDs {
		out[id] = kept[id]
	}
	return out
}

// Detector constructors for global scoping.

// NewZScoreDetector returns the Z-score baseline.
func NewZScoreDetector() Detector { return outlier.ZScore{} }

// NewLOFDetector returns the Local-Outlier-Factor baseline with n
// neighbours (20 if n ≤ 0, the scikit-learn default used in the paper).
func NewLOFDetector(n int) Detector { return outlier.LOF{Neighbors: n} }

// NewPCADetector returns the PCA-reconstruction baseline at the given
// explained variance.
func NewPCADetector(variance float64) Detector { return outlier.PCA{Variance: variance} }

// NewAutoencoderDetector returns the neural autoencoder baseline with an
// ensemble of the given size training for the given epochs.
func NewAutoencoderDetector(models, epochs int, seed int64) Detector {
	return outlier.Autoencoder{Models: models, Epochs: epochs, Seed: seed}
}

// NewKNNDetector returns the k-NN mean-distance detector (extension beyond
// the paper's baselines).
func NewKNNDetector(k int) Detector { return outlier.KNNDistance{K: k} }

// NewMahalanobisDetector returns the shrinkage-regularised Mahalanobis
// detector (extension).
func NewMahalanobisDetector() Detector { return outlier.Mahalanobis{} }

// NewIsolationForestDetector returns an Isolation Forest (Liu et al. 2008)
// detector (extension).
func NewIsolationForestDetector(trees int, seed int64) Detector {
	return outlier.IsolationForest{Trees: trees, Seed: seed}
}

// Matcher constructors for the ablation matchers.

// NewSimMatcher returns the cosine-threshold SIM matcher.
func NewSimMatcher(threshold float64) Matcher { return match.Sim{Threshold: threshold} }

// NewClusterMatcher returns the k-means co-membership CLUSTER matcher.
func NewClusterMatcher(k int, seed int64) Matcher { return match.Cluster{K: k, Seed: seed} }

// NewLSHMatcher returns the exact top-k nearest-neighbour matcher (the
// paper's LSH, FAISS-IndexFlatL2 style). A k below 1 yields no pairs; use
// NewIndexedLSHMatcher or the registry to have it rejected instead.
func NewLSHMatcher(k int) Matcher { return match.LSH{K: k} }

// NewApproxLSHMatcher returns the genuine random-hyperplane LSH matcher.
func NewApproxLSHMatcher(k int, seed int64) Matcher {
	return match.LSH{K: k, Index: IndexConfig{Kind: ann.KindLSH, Seed: seed}}
}

// IndexKind names an ANN index backend of the LSH matcher family.
type IndexKind = ann.Kind

// IndexConfig selects an ANN index backend and its parameters for the
// top-k matcher and the blocking stage: the kind plus the union of the
// backends' knobs (Tables/Bits for lsh, M/EfConstruction/EfSearch for
// hnsw, NLists/NProbe for ivf) and the construction seed. The zero value
// is the exact flat scan.
type IndexConfig = match.IndexConfig

// Index backend names accepted in IndexConfig.Kind.
const (
	// IndexFlat is the exact brute-force scan (default).
	IndexFlat = ann.KindFlat
	// IndexLSH is the random-hyperplane LSH index.
	IndexLSH = ann.KindLSH
	// IndexHNSW is the hierarchical navigable small-world graph index.
	IndexHNSW = ann.KindHNSW
	// IndexIVF is the inverted-file (k-means coarse quantizer) index.
	IndexIVF = ann.KindIVF
)

// ParseIndexKind resolves an index backend name (case-insensitive; ""
// means flat).
func ParseIndexKind(s string) (IndexKind, error) { return ann.ParseKind(s) }

// NewIndexedLSHMatcher returns the top-k nearest-neighbour matcher backed
// by the configured ANN index. k and the config are validated here so a
// bad parameterisation fails at construction instead of silently producing
// no pairs at match time.
func NewIndexedLSHMatcher(k int, cfg IndexConfig) (Matcher, error) {
	if k < 1 {
		return nil, fmt.Errorf("collabscope: lsh top-k must be at least 1, got k=%d", k)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return match.LSH{K: k, Index: cfg}, nil
}

// NewNameMatcher returns a purely lexical matcher (max of normalised
// Levenshtein and token-trigram Jaccard) — the string-similarity baseline
// whose labeling conflicts the paper discusses in §2.2.
func NewNameMatcher(threshold float64) Matcher { return match.NameMatcher{Threshold: threshold} }

// NewFloodingMatcher returns a Similarity Flooding matcher (Melnik et al.,
// ICDE 2002) with relative selection at the given threshold.
func NewFloodingMatcher(threshold float64) Matcher { return match.Flooding{Threshold: threshold} }

// NewCompositeMatcher returns a COMA-style aggregate matcher combining
// lexical name similarity with semantic signature similarity.
func NewCompositeMatcher(threshold float64) Matcher { return match.Composite{Threshold: threshold} }

// NewHACMatcher returns a hierarchical-agglomerative-clustering matcher
// (average linkage) with the given merge-distance cutoff — the multi-source
// strategy of Saeedi et al. cited in the paper; it needs no cardinality.
func NewHACMatcher(cutoff float64) Matcher { return match.HACMatcher{Cutoff: cutoff} }

// MatchContext runs a matcher over every pair of schemas and returns the
// deduplicated union of linkage candidates. The O(k²) schema pairs fan out
// over the worker pool and the candidate union is folded in enumeration
// order, so the pair set is identical for any parallelism setting.
func (p *Pipeline) MatchContext(ctx context.Context, m Matcher, schemas []*Schema) ([]Pair, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.match")
	sp.Annotate("schemas", int64(len(schemas)))
	defer sp.End()
	sets, err := p.EncodeAllContext(ctx, schemas)
	if err != nil {
		return nil, err
	}
	return match.MatchAllContext(ctx, p.workers, m, sets)
}

// MatchHolistic clusters the union of ALL schemas once per element kind
// (He & Chang's holistic strategy) and links cross-schema co-members — one
// k-means run instead of one per schema pair.
func (p *Pipeline) MatchHolistic(ctx context.Context, k int, seed int64, schemas []*Schema) ([]Pair, error) {
	sets, err := p.EncodeAllContext(ctx, schemas)
	if err != nil {
		return nil, err
	}
	return match.Holistic(k, seed, sets), nil
}

// MatchHolisticAuto is MatchHolistic with the cardinality self-tuned by the
// silhouette coefficient over candidate k values (the ALITE approach).
func (p *Pipeline) MatchHolisticAuto(ctx context.Context, candidates []int, seed int64, schemas []*Schema) ([]Pair, error) {
	sets, err := p.EncodeAllContext(ctx, schemas)
	if err != nil {
		return nil, err
	}
	return match.HolisticAuto(candidates, seed, sets), nil
}

// EvaluateMatch scores generated pairs against ground truth; the Reduction
// Ratio denominator is the same-kind Cartesian product of the ORIGINAL
// schemas.
func EvaluateMatch(pairs []Pair, truth *GroundTruth, original []*Schema) MatchEval {
	return match.Evaluate(pairs, truth, match.Cartesian(original))
}

// Integration (downstream of matching): mediated schemas and SQL views.

type (
	// Mediated is a global schema derived from linkage clusters.
	Mediated = integrate.Mediated
	// MediatedTable is one global table of a mediated schema.
	MediatedTable = integrate.MediatedTable
)

// BuildMediated clusters linkage pairs into connected components and
// derives a mediated global schema over the source schemas.
func BuildMediated(schemas []*Schema, pairs []Pair) *Mediated {
	return integrate.Build(schemas, pairs)
}

// UnionView renders a SQL view skeleton (UNION ALL over renamed
// projections) materialising one mediated table.
func UnionView(mt MediatedTable) string { return integrate.UnionView(mt) }

// Bundled datasets of the paper's evaluation.

// DatasetOC3 returns the domain-specific Order-Customer scenario (Table 2).
func DatasetOC3() *Dataset { return datasets.OC3() }

// DatasetOC3FO returns the heterogeneous scenario with the Formula One
// schema added (Table 2).
func DatasetOC3FO() *Dataset { return datasets.OC3FO() }

// DatasetFigure1 returns the four-schema toy scenario of Figure 1.
func DatasetFigure1() *Dataset { return datasets.Figure1() }

// DatasetSourceToTarget returns the two-schema Oracle→MySQL scenario
// (source-to-target matching, the paper's closing applicability claim).
func DatasetSourceToTarget() *Dataset { return datasets.SourceToTarget() }
