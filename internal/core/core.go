// Package core implements collaborative scoping, the paper's primary
// contribution (Section 3): each schema self-trains a PCA-based
// encoder-decoder over its own element signatures (Algorithm 1), publishes
// the model — mean μ_k, principal components PC_k retained to a globally
// agreed explained variance v, and local linkability range l_k (the maximum
// training reconstruction error, Definition 3) — and every schema assesses
// its own elements against the models of all other schemas (Algorithm 2):
// an element is linkable iff some foreign model reconstructs it with an
// error within that model's linkability range (Definition 4).
//
// Only models are exchanged between schemas, never elements, making the
// method distributed and privacy-friendly.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"

	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/metrics"
	"collabscope/internal/obs"
	"collabscope/internal/parallel"
	"collabscope/internal/schema"
)

// ErrDegenerateModel marks a training run whose fitted model is unusable:
// no principal components were retained, or the linkability range l_k
// (Definition 3) came out non-finite. Such a model would silently poison
// every Algorithm 2 verdict computed against it, so training fails loudly
// instead of publishing it. (A zero range from bit-identical training
// signatures is NOT degenerate — it is the documented conservative floor.)
var ErrDegenerateModel = errors.New("core: degenerate model")

// Model is the local self-supervised encoder-decoder M_k = {μ_k, PC_k, l_k}
// of Algorithm 1, as exchanged between schemas.
type Model struct {
	// Schema names the schema this model was trained on.
	Schema string
	// Variance is the global explained-variance target v the model was
	// truncated at; 0 is the sentinel of fixed-component ablation models
	// (TrainFixedComponents), which have no variance target.
	Variance float64

	pca *linalg.PCA
	// Range is the local linkability range l_k: the maximum reconstruction
	// MSE over the model's own training signatures (Definition 3).
	Range float64
}

// Train runs Algorithm 1 on one schema's signature set with the global
// explained variance v ∈ (0, 1], returning the local model. The set must
// belong to a single schema: the published model is stamped with that
// schema's name, and Algorithm 2 relies on the stamp to skip a schema's own
// model during assessment — a mixed set would publish a mislabeled model
// that silently self-matches.
//
// Degenerate training sets are legal but conservative: a single signature
// (or a set of bit-identical signatures) reconstructs itself exactly, so
// the linkability range l_k — the MAXIMUM training reconstruction error of
// Definition 3 — collapses to 0 and the model accepts only bit-exact
// reconstructions during assessment. Fewer foreign acceptances mean fewer
// elements kept, never wrong extra matches, which is the graceful
// degradation the paper's design calls for.
func Train(set *embed.SignatureSet, v float64) (*Model, error) {
	name, err := singleSchemaName(set)
	if err != nil {
		return nil, err
	}
	if v <= 0 || v > 1 {
		return nil, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	pca, err := fitRows(1, set, v)
	if err != nil {
		return nil, err
	}
	return newModel(name, v, pca, set.Matrix)
}

// fitRows is Algorithm 1's decomposition of one schema's signature rows at
// explained variance v, from scratch, on up to workers goroutines (≤ 0
// means GOMAXPROCS). A non-converging SVD surfaces as a taxonomy error
// naming the schema instead of poisoning the model.
func fitRows(workers int, set *embed.SignatureSet, v float64) (*linalg.PCA, error) {
	pca, err := linalg.FitPCAChecked(parallel.Workers(workers), set.Matrix, v)
	if err != nil {
		return nil, trainError(set.IDs[0].Schema, set, err)
	}
	return pca, nil
}

// newModel is the last step of Algorithm 1, the one copy every training
// path shares: the local linkability range l_k is the maximum
// reconstruction error of the model's own training rows (Definition 3),
// and the model is checked against the ErrDegenerateModel taxonomy.
func newModel(name string, v float64, pca *linalg.PCA, rows *linalg.Dense) (*Model, error) {
	m := &Model{Schema: name, Variance: v, pca: pca, Range: maxOf(pca.ReconstructionErrors(rows))}
	return m, checkModel(m)
}

// trainError wraps a numeric failure with the offending schema — and, for
// non-finite input, the offending element — so the taxonomy errors carried
// up through the pipeline and CLIs name what actually broke.
func trainError(name string, set *embed.SignatureSet, err error) error {
	if errors.Is(err, linalg.ErrNonFinite) {
		for i := 0; i < set.Len(); i++ {
			if j := linalg.FirstNonFinite(set.Matrix.RowView(i)); j >= 0 {
				return fmt.Errorf("core: train schema %q: signature of %s is non-finite at dimension %d: %w",
					name, set.IDs[i], j, err)
			}
		}
	}
	return fmt.Errorf("core: train schema %q: %w", name, err)
}

// checkSquares refuses the rows of set that a fit could not square, before
// the caller changes any state. The fit and the linkability range square
// rows centred on the schema's mean. A NaN or ±Inf entry fails, and so
// does a finite row whose centred squares overflow: it would leave a model
// with a +Inf range, which fails every Scope of the corpus. The error
// wraps linalg.ErrNonFinite and names the element.
func checkSquares(set *embed.SignatureSet) error {
	name := set.IDs[0].Schema
	if err := linalg.CheckFinite(set.Matrix); err != nil {
		return trainError(name, set, err)
	}
	if r := linalg.WorstOverflow(set.Matrix, set.Matrix.ColMean()); r >= 0 {
		return fmt.Errorf("core: train schema %q: signature of %s overflows when squared: %w",
			name, set.IDs[r], linalg.ErrNonFinite)
	}
	return nil
}

// checkModel enforces the ErrDegenerateModel taxonomy on a freshly trained
// model before it can be published or assessed against.
func checkModel(m *Model) error {
	if m.pca.NComp == 0 {
		return fmt.Errorf("%w: schema %q retained no principal components", ErrDegenerateModel, m.Schema)
	}
	if math.IsNaN(m.Range) || math.IsInf(m.Range, 0) {
		return fmt.Errorf("%w: schema %q has non-finite linkability range %v", ErrDegenerateModel, m.Schema, m.Range)
	}
	return nil
}

// singleSchemaName validates that every signature in the set belongs to the
// same schema and returns that schema's name.
func singleSchemaName(set *embed.SignatureSet) (string, error) {
	if set.Len() == 0 {
		return "", fmt.Errorf("core: cannot train on an empty signature set")
	}
	name := set.IDs[0].Schema
	for _, id := range set.IDs[1:] {
		if id.Schema != name {
			return "", fmt.Errorf("core: training set mixes schemas %q and %q — a model is trained on one schema's signatures only",
				name, id.Schema)
		}
	}
	return name, nil
}

// TrainFixedComponents is the ablation variant of Train that retains a
// fixed number of principal components instead of targeting a shared
// explained variance. The paper argues the variance target is the right
// shared knob because schemas differ in volume and design; this variant
// lets the ablation benches quantify that claim.
func TrainFixedComponents(set *embed.SignatureSet, n int) (*Model, error) { // lintobs:allow the fixed-component ablation of EXPERIMENTS.md; tests in core and the root package call it
	name, err := singleSchemaName(set)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: need at least 1 component, got %d", n)
	}
	full, err := linalg.FitPCAChecked(1, set.Matrix, 1.0)
	if err != nil {
		return nil, trainError(name, set, err)
	}
	if n > full.Components.Rows() {
		n = full.Components.Rows()
	}
	pca := &linalg.PCA{
		Mean:       full.Mean,
		Components: componentSlice(full, n),
		Singular:   full.Singular,
		Explained:  full.Explained,
		Cumulative: full.Cumulative,
		NComp:      n,
	}
	return newModel(name, 0, pca, set.Matrix)
}

func componentSlice(full *linalg.PCA, n int) *linalg.Dense {
	comp := linalg.NewDense(n, len(full.Mean))
	for i := 0; i < n; i++ {
		copy(comp.RowView(i), full.Components.RowView(i))
	}
	return comp
}

// Components returns the number of retained principal components.
func (m *Model) Components() int { return m.pca.NComp }

// Dim returns the signature dimensionality the model was trained on —
// the width signatures must have to be assessed against it.
func (m *Model) Dim() int { return len(m.pca.Mean) }

// Errors returns the reconstruction MSE of each signature row under this
// model's encoder-decoder — the outlier scores of Definition 4.
func (m *Model) Errors(x *linalg.Dense) []float64 {
	return m.pca.ReconstructionErrors(x)
}

// ErrorsInto is Errors with a caller-owned result and reconstruction
// scratch (see linalg.PCAScratch, one row's buffers); with a warm scratch
// a batch assessment pass allocates nothing beyond the verdicts.
func (m *Model) ErrorsInto(x *linalg.Dense, dst []float64, sc *linalg.PCAScratch) []float64 {
	return m.pca.ReconstructionErrorsInto(x, dst, sc)
}

// Accepts reports whether a signature reconstructs within the model's local
// linkability range, i.e. whether this model recognises the element as
// linkable (Definition 4).
func (m *Model) Accepts(sig []float64) bool { // lintobs:allow public API: collabscope.Model aliases core.Model
	x := linalg.NewDense(1, len(sig))
	copy(x.RowView(0), sig)
	return m.Errors(x)[0] <= m.Range
}

// AcceptanceMode selects how Algorithm 2 combines foreign-model verdicts.
type AcceptanceMode int

// Acceptance modes. The paper's Algorithm 2 appends an element as soon as
// ANY foreign model accepts it (union). AllModels is the stricter
// intersection variant evaluated in the ablation benches.
const (
	AnyModel AcceptanceMode = iota
	AllModels
)

// AssessConfig tunes the linkability assessment.
type AssessConfig struct {
	// Mode is the verdict combination across foreign models.
	Mode AcceptanceMode
	// RelaxEpsilon widens each model's linkability range to l·(1+ε). The
	// paper reports that relaxation brings no improvement; the ablation
	// bench quantifies that claim.
	RelaxEpsilon float64
}

// AssessContext runs Algorithm 2: the local schema's signatures are
// reconstructed by every foreign model; elements whose reconstruction
// error falls within a foreign model's linkability range are linkable. The
// result maps each local element to its linkability verdict. The
// element-by-foreign-model error passes — the |S|·|M| term of the paper's
// complexity analysis — fan out per model on up to workers goroutines
// (≤ 0 means GOMAXPROCS); verdicts are folded sequentially in model order,
// so the result is identical for any worker count.
func AssessContext(ctx context.Context, workers int, local *embed.SignatureSet, foreign []*Model, cfg AssessConfig) (map[schema.ElementID]bool, error) {
	ctx, sp := obs.Start(ctx, "core.assess")
	sp.Annotate("elements", int64(local.Len()))
	sp.Annotate("models", int64(len(foreign)))
	defer sp.End()
	errs, _, err := Columns(ctx, workers, local.Matrix, foreign, nil)
	if err != nil {
		return nil, err
	}
	return cfg.verdicts(local, foreign, errs), nil
}

// ColumnCache holds error columns computed earlier, so Columns re-scores
// only the models whose column is missing or stale. Column returns the
// cached column of m, if there is one; Keep stores a column Columns has
// just computed.
type ColumnCache interface {
	Column(m *Model) ([]float64, bool, error)
	Keep(m *Model, errs []float64) error
}

// scratchPool recycles the one-row buffers of reconstruction passes, so a
// warm pass allocates only its error column.
var scratchPool = sync.Pool{New: func() any { return new(linalg.PCAScratch) }}

// Columns runs the reconstruction passes of Algorithm 2, the |S|·|M| term
// of the paper's complexity analysis: errs[k][r] is the reconstruction
// error of row r of x under foreign[k]. Every assessment path scores here:
// AssessContext, AssessDeltaStore, Scoper.AssessDelta and the exchange
// service's /v1/assess. A cached column is used when its length is
// x.Rows(); the other models are scored on a pool of workers (≤ 0 means
// GOMAXPROCS) and handed to cache.Keep in model order. A nil cache scores
// every model. Each row's error depends on that row alone (DESIGN.md §11),
// so the columns are bit-identical for any worker count, row batch or
// cache state; the report counts the element×model passes rescored and
// reused. A model trained at another signature width than x is refused
// with embed.ErrDimMismatch before any pass runs.
func Columns(ctx context.Context, workers int, x *linalg.Dense, foreign []*Model, cache ColumnCache) ([][]float64, DeltaReport, error) {
	var rep DeltaReport
	n := x.Rows()
	errs := make([][]float64, len(foreign))
	misses := make([]int, 0, len(foreign))
	for k, m := range foreign {
		if m.Dim() != x.Cols() {
			return nil, rep, fmt.Errorf("core: model of schema %q has dimension %d, signatures have %d: %w",
				m.Schema, m.Dim(), x.Cols(), embed.ErrDimMismatch)
		}
		if cache != nil {
			col, ok, err := cache.Column(m)
			if err != nil {
				return nil, rep, err
			}
			if ok && len(col) == n {
				errs[k] = col
				rep.Reused += n
				continue
			}
		}
		misses = append(misses, k)
	}
	fresh, err := parallel.Map(ctx, workers, misses, func(_ int, k int) ([]float64, error) {
		sc := scratchPool.Get().(*linalg.PCAScratch)
		defer scratchPool.Put(sc)
		return foreign[k].ErrorsInto(x, make([]float64, n), sc), nil
	})
	if err != nil {
		return nil, rep, err
	}
	for t, k := range misses {
		errs[k] = fresh[t]
		rep.Rescored += n
		if cache != nil {
			if err := cache.Keep(foreign[k], fresh[t]); err != nil {
				return nil, rep, err
			}
		}
	}
	return errs, rep, nil
}

// SignatureDigest fingerprints a signature matrix for the column caches:
// SHA-256 over scope, a NUL byte, the schema name, a NUL byte, the row
// count as a little-endian uint64, and the little-endian float64 bits of
// every row in order, fed to the hash 4 KB at a time. Element IDs are left
// out because they do not change an error column; the scope keeps the
// entries of different tenants or stores apart.
func SignatureDigest(scope, schema string, x *linalg.Dense) string {
	h := sha256.New()
	h.Write([]byte(scope))
	h.Write([]byte{0})
	h.Write([]byte(schema))
	h.Write([]byte{0})
	var buf [4096]byte
	b := binary.LittleEndian.AppendUint64(buf[:0], uint64(x.Rows()))
	for r := 0; r < x.Rows(); r++ {
		for _, v := range x.RowView(r) {
			if len(b) == len(buf) {
				h.Write(b)
				b = buf[:0]
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// verdicts folds local's error columns into its verdict map.
func (cfg AssessConfig) verdicts(local *embed.SignatureSet, foreign []*Model, errs [][]float64) map[schema.ElementID]bool {
	verdict := make(map[schema.ElementID]bool, local.Len())
	for i, linkable := range cfg.Linkable(foreign, errs, local.Len()) {
		verdict[local.IDs[i]] = linkable
	}
	return verdict
}

// Linkable is Algorithm 2's verdict fold (Definition 4), the one copy every
// assessment path shares: errs[k][i] is element i's reconstruction error
// under foreign[k], and element i is linkable iff some model (AnyModel) or
// every model (AllModels, and at least one) accepts it within its range
// widened to l·(1+ε). Models fold in slice order, so the verdicts are
// identical for any worker count that produced errs.
func (cfg AssessConfig) Linkable(foreign []*Model, errs [][]float64, n int) []bool {
	verdict := make([]bool, n)
	if cfg.Mode == AllModels && len(foreign) > 0 {
		for i := range verdict {
			verdict[i] = true
		}
	}
	for k, m := range foreign {
		bound := m.Range * (1 + cfg.RelaxEpsilon)
		for i, e := range errs[k] {
			accepted := e <= bound
			if cfg.Mode == AllModels {
				verdict[i] = verdict[i] && accepted
			} else {
				verdict[i] = verdict[i] || accepted
			}
		}
	}
	return verdict
}

// Scoper orchestrates collaborative scoping across a set of schemas. It
// fits each schema's full PCA once, so sweeping the explained variance v is
// cheap (truncation only).
type Scoper struct {
	// states holds each schema's rows, full-spectrum fit and version (1
	// at construction, bumped by every successful incremental mutation;
	// DESIGN.md §15). Delta assessment keys cached scores on the versions.
	states  []schemaState
	cfg     AssessConfig
	workers int
	// delta is the AssessDelta score cache; nil until the first delta round.
	delta *deltaCache
}

// NewScoperContext prepares collaborative scoping over the schemas'
// signature sets with the given assessment configuration. Every set must
// be non-empty. The worker count (≤ 0 means GOMAXPROCS) bounds the
// per-schema decompositions, which fan out over the pool one worker each,
// and is remembered for every subsequent training, refit and assessment
// round of this Scoper. A schema holding a row whose squares overflow is
// refused (see checkSquares).
func NewScoperContext(ctx context.Context, workers int, sets []*embed.SignatureSet, cfg AssessConfig) (*Scoper, error) {
	if len(sets) < 2 {
		return nil, fmt.Errorf("core: collaborative scoping needs ≥ 2 schemas, got %d", len(sets))
	}
	ctx, sp := obs.Start(ctx, "core.fit")
	sp.Annotate("schemas", int64(len(sets)))
	defer sp.End()
	// The Scoper's mutators replace its own states' sets, never the
	// caller's slice or sets.
	s := &Scoper{states: make([]schemaState, len(sets)), cfg: cfg, workers: workers}
	dim := -1
	for i, set := range sets {
		if set.Len() == 0 {
			return nil, fmt.Errorf("core: signature set %d is empty", i)
		}
		if dim < 0 {
			dim = set.Matrix.Cols()
		} else if set.Matrix.Cols() != dim {
			return nil, fmt.Errorf("core: signature set %d has dimension %d, others %d — all schemas must share the global encoder",
				i, set.Matrix.Cols(), dim)
		}
	}
	err := parallel.ForEach(ctx, workers, len(sets), func(i int) error {
		if err := checkSquares(sets[i]); err != nil {
			return err
		}
		pca, ferr := fitRows(1, sets[i], 1.0)
		if ferr != nil {
			return ferr
		}
		s.states[i] = schemaState{set: sets[i], full: pca, version: 1}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ModelsContext returns the local models of all schemas at explained
// variance v. Model construction is embarrassingly parallel — each schema
// trains independently, as the paper's complexity analysis notes — so the
// work fans out across schemas, bounded by the Scoper's worker count.
func (s *Scoper) ModelsContext(ctx context.Context, v float64) ([]*Model, error) {
	if v <= 0 || v > 1 {
		return nil, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	ctx, sp := obs.Start(ctx, "core.train")
	sp.Annotate("schemas", int64(len(s.states)))
	defer sp.End()
	models := make([]*Model, len(s.states))
	err := parallel.ForEach(ctx, s.workers, len(s.states), func(i int) (err error) {
		models[i], err = s.states[i].model(v)
		return err
	})
	if err != nil {
		return nil, err
	}
	return models, nil
}

// ScopeContext runs the full collaborative assessment at explained
// variance v and returns the union keep-set over all schemas: every element
// any foreign model recognises as linkable. Per-schema assessments fan out
// over the Scoper's worker pool, mirroring the paper's distributed
// execution model, and the keep-set is folded in schema order, so the
// result is identical for any worker count.
func (s *Scoper) ScopeContext(ctx context.Context, v float64) (map[schema.ElementID]bool, error) {
	ctx, sp := obs.Start(ctx, "core.scope")
	sp.Annotate("schemas", int64(len(s.states)))
	defer sp.End()
	models, err := s.ModelsContext(ctx, v)
	if err != nil {
		return nil, err
	}
	verdicts := make([]map[schema.ElementID]bool, len(s.states))
	err = parallel.ForEach(ctx, s.workers, len(s.states), func(i int) error {
		foreign := make([]*Model, 0, len(models)-1)
		for j, m := range models {
			if j != i {
				foreign = append(foreign, m)
			}
		}
		verdict, aerr := AssessContext(ctx, 1, s.states[i].set, foreign, s.cfg)
		if aerr != nil {
			return aerr
		}
		verdicts[i] = verdict
		return nil
	})
	if err != nil {
		return nil, err
	}
	keep := map[schema.ElementID]bool{}
	for _, v := range verdicts {
		for id, linkable := range v {
			keep[id] = linkable
		}
	}
	return keep, nil
}

// SweepContext evaluates collaborative scoping over a grid of
// explained-variance values against ground-truth labels, one confusion
// matrix per v, with cancellation between grid points. For long-running
// sweeps that must survive a mid-run crash, see SweepCheckpointedContext.
func (s *Scoper) SweepContext(ctx context.Context, labels map[schema.ElementID]bool, grid []float64) ([]metrics.SweepEntry, error) {
	return s.SweepCheckpointedContext(ctx, labels, grid, nil, "")
}

// Evaluate computes the Table-4 AUC summary of collaborative scoping over
// the grid. Unlike global scoping there is no continuous score: the ROC and
// PR observations come from the v sweep itself.
func (s *Scoper) Evaluate(ctx context.Context, labels map[schema.ElementID]bool, grid []float64, rocLambda float64) (metrics.SweepSummary, error) {
	entries, err := s.SweepContext(ctx, labels, grid)
	if err != nil {
		return metrics.SweepSummary{}, err
	}
	return metrics.Summarize(entries, rocLambda), nil
}

// PassOperations returns the number of encoder-decoder pass operations of a
// full assessment round: every element passes through the models of the
// k−1 other schemas (the |S|·|M| term of the complexity analysis).
func (s *Scoper) PassOperations() int {
	total := 0
	for _, st := range s.states {
		total += st.set.Len() * (len(s.states) - 1)
	}
	return total
}

func maxOf(v []float64) float64 {
	var m float64
	for i, x := range v {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
