// Incremental model maintenance (DESIGN.md §15): production schemas churn —
// DDL changes, new tables, dropped columns — and a full PCA retrain plus
// full reassessment per change defeats the point of scoping. This file adds
// the layers that survive schema evolution:
//
//   - Scoper.AddElements / RemoveElements plus AssessDelta: in-process
//     incremental maintenance that refits only the changed schema and
//     re-scores only element×model pairs whose verdict can change, with obs
//     counters proving the reuse.
//   - ModelState: a persistent single-schema incremental trainer (rows +
//     sufficient statistics + a model version), with CellStore persistence
//     that resumes bit-identically after a restart.
//   - AssessDeltaStore: assessment whose error columns persist in a
//     CellStore across invocations (`collabscope assess -delta`).
//
// Every path scores through Columns, the one Algorithm 2 engine.
//
// Exactness: an incremental refit over fewer rows than dimensions runs the
// exact from-scratch code path on the maintained rows, so the refitted
// state is bit-identical to retraining from zero. When rows outnumber
// dimensions the refit switches to the sufficient-statistics path (cost
// independent of history length), which matches from-scratch training
// within linalg.StatsFitTolerance. Delta assessment is exact in both cases:
// reused scores are the identical float64s a full pass would recompute.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// ---------------------------------------------------------------------------
// Scoper incremental maintenance

// Sets returns the scoper's current signature sets (a copy of the slice;
// the sets themselves are shared and must be treated as read-only). The
// benchmark's evolve_churn workload uses it to hand the incrementally
// maintained state to a from-scratch Scoper for comparison.
func (s *Scoper) Sets() []*embed.SignatureSet {
	out := make([]*embed.SignatureSet, len(s.sets))
	copy(out, s.sets)
	return out
}

// checkDeltaSet validates an element batch destined for schema i: same
// schema name, same signature dimensionality, non-empty, finite. It runs
// before anything is mutated: a non-finite row folded into the sufficient
// statistics could not be taken out again (NaN−NaN is NaN).
func (s *Scoper) checkDeltaSet(i int, set *embed.SignatureSet) error {
	if i < 0 || i >= len(s.sets) {
		return fmt.Errorf("core: schema index %d out of range %d", i, len(s.sets))
	}
	name, err := singleSchemaName(set)
	if err != nil {
		return err
	}
	if own := s.sets[i].IDs[0].Schema; name != own {
		return fmt.Errorf("core: elements belong to schema %q, index %d holds %q", name, i, own)
	}
	if set.Matrix.Cols() != s.sets[i].Matrix.Cols() {
		return fmt.Errorf("core: elements have dimension %d, schema %q uses %d",
			set.Matrix.Cols(), s.sets[i].IDs[0].Schema, s.sets[i].Matrix.Cols())
	}
	if err := linalg.CheckFinite(set.Matrix); err != nil {
		return trainError(name, set, err)
	}
	return nil
}

// ensureStats lazily accumulates schema i's sufficient statistics from its
// current rows. The randomized (ApproxMaxRank) path never maintains stats —
// its fit is approximate by construction, so incremental refits reuse the
// same randomized path instead.
func (s *Scoper) ensureStats(i int) {
	if s.cfg.ApproxMaxRank > 0 || s.stats[i] != nil {
		return
	}
	s.stats[i] = linalg.AccumulateStats(s.sets[i].Matrix)
}

// fitMaintained is incremental maintenance's one choice between its two
// exact refit paths, shared by the Scoper and ModelState. With fewer rows
// than dimensions (the schema-scoping regime) it runs rowsFit, the
// from-scratch code path, so the fit is bit-identical to retraining. With
// rows ≥ dimensions it fits at v from the maintained sufficient statistics,
// whose cost does not grow with the rows' churn history, within
// linalg.StatsFitTolerance of from-scratch. A nil stats (the randomized
// path maintains none) always fits the rows.
//
// A finite but huge row overflows the statistics (its square is +Inf), and
// downdating it later leaves Inf−Inf = NaN. So statistics that are not
// finite are rebuilt from the rows, and the rows are fitted if the rebuilt
// ones are still not finite. It returns the statistics to keep.
func fitMaintained(set *embed.SignatureSet, stats *linalg.PCAStats, v float64,
	rowsFit func() (*linalg.PCA, error)) (*linalg.PCA, *linalg.PCAStats, error) {
	if stats == nil || set.Len() < set.Matrix.Cols() {
		pca, err := rowsFit()
		return pca, stats, err
	}
	pca, err := linalg.FitPCAFromStats(stats, v)
	if errors.Is(err, linalg.ErrNonFinite) {
		stats = linalg.AccumulateStats(set.Matrix)
		if pca, err = linalg.FitPCAFromStats(stats, v); errors.Is(err, linalg.ErrNonFinite) {
			pca, err = rowsFit()
			return pca, stats, err
		}
	}
	if err != nil {
		return nil, stats, trainError(set.IDs[0].Schema, set, err)
	}
	return pca, stats, nil
}

// refitIncremental refits schema i's full-spectrum decomposition after a
// membership change through fitMaintained: bit-identical to a fresh Scoper
// over the same state while rows are fewer than dimensions, and a
// deterministic function of the maintained state either way.
func (s *Scoper) refitIncremental(i int) error {
	pca, stats, err := fitMaintained(s.sets[i], s.stats[i], 1.0, func() (*linalg.PCA, error) {
		return s.fit(s.sets[i])
	})
	s.stats[i] = stats
	if err != nil {
		return err
	}
	s.full[i] = pca
	s.version[i]++
	return nil
}

// AddElements appends new elements to schema i after a schema evolution
// (say, a CREATE TABLE) and refits only that schema: the other schemas'
// decompositions, and every cached element×model score not involving
// schema i, are untouched. Duplicate element IDs are rejected — membership
// bookkeeping is by ID.
func (s *Scoper) AddElements(i int, add *embed.SignatureSet) error {
	if err := s.checkDeltaSet(i, add); err != nil {
		return err
	}
	have := make(map[schema.ElementID]bool, s.sets[i].Len())
	for _, id := range s.sets[i].IDs {
		have[id] = true
	}
	for _, id := range add.IDs {
		if have[id] {
			return fmt.Errorf("core: element %s is already part of schema %q", id, id.Schema)
		}
		have[id] = true
	}
	s.ensureStats(i)
	old := s.sets[i]
	next := appendSet(old, add)
	if s.stats[i] != nil {
		s.stats[i].UpdateRows(add.Matrix)
	}
	s.sets[i] = next
	if err := s.refitIncremental(i); err != nil {
		// Roll back so a failed refit leaves the scoper assessing the
		// pre-update state.
		s.sets[i] = old
		if s.stats[i] != nil {
			_ = s.stats[i].DowndateRows(add.Matrix)
		}
		return err
	}
	s.deltaAppendRows(i, add.Len())
	return nil
}

// RemoveElements drops elements from schema i (a DROP COLUMN / DROP TABLE)
// and refits only that schema. Every id must currently belong to schema i,
// and at least one element must survive — an empty signature set cannot
// train a model.
func (s *Scoper) RemoveElements(i int, ids ...schema.ElementID) error {
	if i < 0 || i >= len(s.sets) {
		return fmt.Errorf("core: schema index %d out of range %d", i, len(s.sets))
	}
	if len(ids) == 0 {
		return fmt.Errorf("core: no elements to remove")
	}
	drop := make(map[schema.ElementID]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	old := s.sets[i]
	pos := make(map[schema.ElementID]int, old.Len())
	for k, id := range old.IDs {
		pos[id] = k
	}
	for _, id := range ids {
		if _, ok := pos[id]; !ok {
			return fmt.Errorf("core: element %s is not part of schema %q", id, old.IDs[0].Schema)
		}
	}
	if old.Len()-len(drop) < 1 {
		return fmt.Errorf("core: removing %d of %d elements would leave schema %q empty",
			len(drop), old.Len(), old.IDs[0].Schema)
	}
	s.ensureStats(i)
	var removedRows []int
	keepIDs := make([]schema.ElementID, 0, old.Len()-len(drop))
	for k, id := range old.IDs {
		if drop[id] {
			removedRows = append(removedRows, k)
			continue
		}
		keepIDs = append(keepIDs, id)
	}
	next := &embed.SignatureSet{IDs: keepIDs, Matrix: linalg.NewDense(len(keepIDs), old.Matrix.Cols())}
	for k, id := range keepIDs {
		copy(next.Matrix.RowView(k), old.Matrix.RowView(pos[id]))
	}
	if s.stats[i] != nil {
		for _, r := range removedRows {
			if err := s.stats[i].Downdate(old.Matrix.RowView(r)); err != nil {
				return fmt.Errorf("core: downdate schema %q: %w", old.IDs[0].Schema, err)
			}
		}
	}
	s.sets[i] = next
	if err := s.refitIncremental(i); err != nil {
		s.sets[i] = old
		if s.stats[i] != nil {
			for _, r := range removedRows {
				s.stats[i].Update(old.Matrix.RowView(r))
			}
		}
		return err
	}
	s.deltaRemoveRows(i, removedRows)
	return nil
}

// appendSet returns a new signature set holding a's rows followed by b's.
func appendSet(a, b *embed.SignatureSet) *embed.SignatureSet {
	ids := make([]schema.ElementID, 0, a.Len()+b.Len())
	ids = append(ids, a.IDs...)
	ids = append(ids, b.IDs...)
	m := linalg.NewDense(len(ids), a.Matrix.Cols())
	for k := 0; k < a.Len(); k++ {
		copy(m.RowView(k), a.Matrix.RowView(k))
	}
	for k := 0; k < b.Len(); k++ {
		copy(m.RowView(a.Len()+k), b.Matrix.RowView(k))
	}
	return &embed.SignatureSet{IDs: ids, Matrix: m}
}

// ---------------------------------------------------------------------------
// Delta assessment

// DeltaReport accounts for one delta assessment: how many element×model
// encoder-decoder passes ran versus how many cached scores were reused, and
// how many models had to be rebuilt. Rescored+Reused equals the pass count
// of a full assessment round (Scoper.PassOperations), which is how the
// benchmark's evolve_churn workload and the service counters prove delta
// assessment does strictly less work for identical verdicts.
type DeltaReport struct {
	// Rescored counts element×model passes actually computed.
	Rescored int
	// Reused counts element×model scores served from the delta cache.
	Reused int
	// Refits counts models rebuilt (truncation + range) because their
	// schema's version moved since the cached model was built.
	Refits int
}

// deltaErrs caches schema i's per-element reconstruction errors under
// foreign model j, with per-row validity (freshly added elements start
// invalid) and the foreign model version the scores belong to.
type deltaErrs struct {
	foreignVer int64
	vals       []float64
	valid      []bool
}

// deltaCache is the AssessDelta working state: per-schema models built at
// one explained-variance target, plus the (i, j) score cache.
type deltaCache struct {
	v        float64
	models   []*Model
	modelVer []int64
	errs     [][]*deltaErrs // errs[i][j], nil until first use
}

func (s *Scoper) deltaAppendRows(i, n int) {
	c := s.delta
	if c == nil {
		return
	}
	for j := range c.errs[i] {
		e := c.errs[i][j]
		if e == nil {
			continue
		}
		e.vals = append(e.vals, make([]float64, n)...)
		e.valid = append(e.valid, make([]bool, n)...)
	}
}

func (s *Scoper) deltaRemoveRows(i int, removed []int) {
	c := s.delta
	if c == nil {
		return
	}
	drop := make(map[int]bool, len(removed))
	for _, r := range removed {
		drop[r] = true
	}
	for j := range c.errs[i] {
		e := c.errs[i][j]
		if e == nil {
			continue
		}
		vals := e.vals[:0]
		valid := e.valid[:0]
		for k := range e.vals {
			if drop[k] {
				continue
			}
			vals = append(vals, e.vals[k])
			valid = append(valid, e.valid[k])
		}
		e.vals, e.valid = vals, valid
	}
}

// AssessDelta runs the full collaborative assessment at explained variance
// v, like ScopeContext, but re-scores only element×model pairs whose
// verdict can have changed since the previous AssessDelta at the same v:
// elements added since then, and every element facing a foreign model whose
// version moved. Cached scores are the identical float64 values a full pass
// would recompute (the kernels are bit-deterministic per row), so the
// returned keep-set is always identical to ScopeContext(ctx, v) — the
// report only proves it was reached with strictly less work.
//
// The first call at a given v warms the cache (everything is re-scored);
// changing v drops the cache, since every model truncation changes.
func (s *Scoper) AssessDelta(ctx context.Context, v float64) (map[schema.ElementID]bool, DeltaReport, error) {
	var rep DeltaReport
	if v <= 0 || v > 1 {
		return nil, rep, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	ctx, sp := obs.Start(ctx, "core.assess_delta")
	sp.Annotate("schemas", int64(len(s.sets)))
	defer sp.End()
	reg := obs.FromContext(ctx)

	k := len(s.sets)
	if s.delta == nil || s.delta.v != v {
		errs := make([][]*deltaErrs, k)
		for i := range errs {
			errs[i] = make([]*deltaErrs, k)
		}
		s.delta = &deltaCache{v: v, models: make([]*Model, k), modelVer: make([]int64, k), errs: errs}
	}
	c := s.delta

	// Rebuild stale models through ModelsContext's construction, so a
	// cached model is bit-identical to what a full round would build.
	for i := range s.sets {
		if c.models[i] != nil && c.modelVer[i] == s.version[i] {
			continue
		}
		m, err := s.model(i, v)
		if err != nil {
			return nil, rep, err
		}
		c.models[i] = m
		c.modelVer[i] = s.version[i]
		rep.Refits++
	}

	keep := make(map[schema.ElementID]bool, s.PassOperations())
	foreign := make([]*Model, 0, k)
	errs := make([][]float64, 0, k)
	for i := range s.sets {
		local := s.sets[i]
		n := local.Len()
		foreign, errs = foreign[:0], errs[:0]
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			e := c.errs[i][j]
			if e == nil || len(e.vals) != n {
				e = &deltaErrs{vals: make([]float64, n), valid: make([]bool, n)}
				c.errs[i][j] = e
			}
			if err := deltaScore(ctx, local, c.models[j], c.modelVer[j], e, &rep); err != nil {
				return nil, rep, err
			}
			foreign = append(foreign, c.models[j])
			errs = append(errs, e.vals)
		}
		for r, linkable := range s.cfg.Linkable(foreign, errs, n) {
			keep[local.IDs[r]] = linkable
		}
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
	}
	reg.Counter("core.delta.rescored").Add(int64(rep.Rescored))
	reg.Counter("core.delta.reused").Add(int64(rep.Reused))
	reg.Counter("core.delta.refits").Add(int64(rep.Refits))
	sp.Annotate("rescored", int64(rep.Rescored))
	sp.Annotate("reused", int64(rep.Reused))
	return keep, rep, nil
}

// deltaScore brings one (local schema, foreign model) score column up to
// date. A foreign-version move marks every row stale; otherwise only rows
// marked invalid (freshly added elements) are. The stale rows, gathered
// into one matrix when they are not all of them, are scored in one Columns
// pass. Per-row results are bit-identical to a full-matrix pass — each
// row's reconstruction error depends only on that row (kernel determinism
// contract, DESIGN.md §11).
func deltaScore(ctx context.Context, local *embed.SignatureSet, m *Model, mver int64, e *deltaErrs, rep *DeltaReport) error {
	if e.foreignVer != mver {
		clear(e.valid)
		e.foreignVer = mver
	}
	var stale []int
	for r, ok := range e.valid {
		if !ok {
			stale = append(stale, r)
		}
	}
	rep.Reused += len(e.valid) - len(stale)
	if len(stale) == 0 {
		return nil
	}
	x := local.Matrix
	if len(stale) < local.Len() {
		x = linalg.NewDense(len(stale), local.Matrix.Cols())
		for t, r := range stale {
			copy(x.RowView(t), local.Matrix.RowView(r))
		}
	}
	errs, scored, err := Columns(ctx, 1, x, []*Model{m}, nil)
	if err != nil {
		return err
	}
	for t, r := range stale {
		e.vals[r] = errs[0][t]
		e.valid[r] = true
	}
	rep.Rescored += scored.Rescored
	return nil
}

// ---------------------------------------------------------------------------
// ModelState: persistent single-schema incremental training state

// ModelState is the incremental training state of one schema: its element
// IDs and signature rows, their accumulated sufficient statistics, and a
// version that bumps on every membership change. It backs `collabscope
// update`: the state persists in a checkpoint store between invocations, a
// schema evolution applies as a diff (added / removed / changed elements),
// and only the delta touches the accumulator. Persisted state reloads
// bit-identically — JSON float64 encoding round-trips exactly — so a
// restarted process resumes incremental maintenance as if it never stopped.
type ModelState struct {
	name    string
	ids     []schema.ElementID
	rows    *linalg.Dense
	stats   *linalg.PCAStats
	version int64
}

// StateDelta summarises one ModelState.Apply: how many elements were added,
// removed, and changed (same ID, different signature — applied as a
// remove+add pair).
type StateDelta struct {
	Added, Removed, Changed int
}

// Empty reports whether the delta is a no-op.
func (d StateDelta) Empty() bool { return d.Added == 0 && d.Removed == 0 && d.Changed == 0 }

func (d StateDelta) String() string {
	return fmt.Sprintf("+%d -%d ~%d", d.Added, d.Removed, d.Changed)
}

// NewModelState initialises incremental state from a schema's full
// signature set (the first, full fit of an evolving schema).
func NewModelState(set *embed.SignatureSet) (*ModelState, error) {
	name, err := singleSchemaName(set)
	if err != nil {
		return nil, err
	}
	seen := make(map[schema.ElementID]bool, set.Len())
	for _, id := range set.IDs {
		if seen[id] {
			return nil, fmt.Errorf("core: duplicate element %s in signature set", id)
		}
		seen[id] = true
	}
	ids := make([]schema.ElementID, set.Len())
	copy(ids, set.IDs)
	return &ModelState{
		name:    name,
		ids:     ids,
		rows:    set.Matrix.Clone(),
		stats:   linalg.AccumulateStats(set.Matrix),
		version: 1,
	}, nil
}

// Schema returns the schema name the state belongs to.
func (st *ModelState) Schema() string { return st.name }

// Dim returns the signature dimensionality.
func (st *ModelState) Dim() int { return st.rows.Cols() }

// Len returns the number of maintained elements.
func (st *ModelState) Len() int { return len(st.ids) }

// Version returns the state version: 1 at initialisation, bumped by every
// membership change. Republishing a model after a version bump is what
// triggers delta re-scoring in peers and the scoping service.
func (st *ModelState) Version() int64 { return st.version }

// IDs returns a copy of the maintained element IDs, in row order.
func (st *ModelState) IDs() []schema.ElementID {
	out := make([]schema.ElementID, len(st.ids))
	copy(out, st.ids)
	return out
}

// Apply diffs the state against a schema's current signature set and
// applies the difference: elements gone from the set are downdated,
// elements new to it are accumulated, and elements whose signature changed
// are replaced (downdate + update). Removals apply in maintained-row order,
// then additions in set order — a fixed order, so two processes applying
// the same diff produce bit-identical accumulators. The final element order
// is the incoming set's order.
func (st *ModelState) Apply(set *embed.SignatureSet) (StateDelta, error) {
	var delta StateDelta
	name, err := singleSchemaName(set)
	if err != nil {
		return delta, err
	}
	if name != st.name {
		return delta, fmt.Errorf("core: state holds schema %q, set belongs to %q", st.name, name)
	}
	if set.Matrix.Cols() != st.Dim() {
		return delta, fmt.Errorf("core: state is %d-dimensional, set is %d-dimensional — the global encoder must not change mid-state",
			st.Dim(), set.Matrix.Cols())
	}
	newPos := make(map[schema.ElementID]int, set.Len())
	for k, id := range set.IDs {
		if _, dup := newPos[id]; dup {
			return delta, fmt.Errorf("core: duplicate element %s in signature set", id)
		}
		newPos[id] = k
	}
	// Pass 1: removals and changed-element downdates, in maintained order.
	oldPos := make(map[schema.ElementID]int, len(st.ids))
	for k, id := range st.ids {
		oldPos[id] = k
		nk, ok := newPos[id]
		if !ok {
			if err := st.stats.Downdate(st.rows.RowView(k)); err != nil {
				return delta, err
			}
			delta.Removed++
			continue
		}
		if !equalRow(st.rows.RowView(k), set.Matrix.RowView(nk)) {
			if err := st.stats.Downdate(st.rows.RowView(k)); err != nil {
				return delta, err
			}
			delta.Changed++
		}
	}
	// Pass 2: additions and changed-element updates, in set order.
	for k, id := range set.IDs {
		unchanged := false
		if oldK, ok := oldPos[id]; ok {
			unchanged = equalRow(st.rows.RowView(oldK), set.Matrix.RowView(k))
		} else {
			delta.Added++
		}
		if !unchanged {
			st.stats.Update(set.Matrix.RowView(k))
		}
	}
	if delta.Empty() {
		return delta, nil
	}
	ids := make([]schema.ElementID, set.Len())
	copy(ids, set.IDs)
	st.ids = ids
	st.rows = set.Matrix.Clone()
	st.version++
	// Downdating a huge row leaves NaN in the statistics (see
	// fitMaintained), which Save could not write: rebuild them from the
	// rows that remain.
	if linalg.FirstNonFinite(st.stats.Sum) >= 0 || linalg.CheckFinite(st.stats.Scatter) != nil {
		st.stats = linalg.AccumulateStats(st.rows)
	}
	return delta, nil
}

// Model trains the current state's model at explained variance v through
// fitMaintained: bit-identical to Train over the maintained rows while they
// are fewer than dimensions, and from the maintained sufficient statistics
// otherwise.
func (st *ModelState) Model(v float64) (*Model, error) {
	if v <= 0 || v > 1 {
		return nil, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	set := &embed.SignatureSet{IDs: st.ids, Matrix: st.rows}
	pca, _, err := fitMaintained(set, st.stats, v, func() (*linalg.PCA, error) { return fitRows(set, v) })
	if err != nil {
		return nil, err
	}
	return newModel(st.name, v, pca, st.rows)
}

func equalRow(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// modelStateCell is the checkpoint-cell payload of a ModelState. Float64
// values survive the JSON round trip exactly (Go emits the shortest
// representation that parses back to the same bits), so a reloaded state is
// bit-identical to the saved one — pinned by TestModelStatePersistsBitIdentically.
type modelStateCell struct {
	Schema  string             `json:"schema"`
	Dim     int                `json:"dim"`
	Version int64              `json:"version"`
	IDs     []schema.ElementID `json:"ids"`
	Rows    [][]float64        `json:"rows"`
	StatsN  int                `json:"stats_n"`
	Sum     []float64          `json:"sum"`
	Scatter [][]float64        `json:"scatter"`
}

// ModelStateKey is the checkpoint-cell key of a schema's incremental state.
func ModelStateKey(schemaName string) string { return "incremental.state." + schemaName }

// Save persists the state as one checkpoint cell (atomic write, SHA-256
// trailer). A crash mid-save leaves the previous cell intact.
func (st *ModelState) Save(store CellStore) error {
	cell := modelStateCell{
		Schema:  st.name,
		Dim:     st.Dim(),
		Version: st.version,
		IDs:     st.ids,
		Rows:    make([][]float64, st.Len()),
		StatsN:  st.stats.N,
		Sum:     st.stats.Sum,
		Scatter: make([][]float64, st.Dim()),
	}
	for k := range cell.Rows {
		cell.Rows[k] = st.rows.RowView(k)
	}
	for j := range cell.Scatter {
		cell.Scatter[j] = st.stats.Scatter.RowView(j)
	}
	if err := store.Save(ModelStateKey(st.name), &cell); err != nil {
		return fmt.Errorf("core: save incremental state of %q: %w", st.name, err)
	}
	return nil
}

// LoadModelState restores a schema's persisted incremental state. A missing
// cell — or a corrupt one, which the store quarantines — reports
// (nil, false, nil): the caller re-initialises from a full fit, exactly the
// crash-safety posture of every other checkpoint consumer.
func LoadModelState(store CellStore, schemaName string) (*ModelState, bool, error) {
	var cell modelStateCell
	ok, err := store.Load(ModelStateKey(schemaName), &cell)
	if err != nil || !ok {
		return nil, false, err
	}
	if cell.Schema != schemaName || cell.Dim <= 0 ||
		len(cell.IDs) != len(cell.Rows) || cell.StatsN != len(cell.IDs) ||
		len(cell.Sum) != cell.Dim || len(cell.Scatter) != cell.Dim {
		return nil, false, fmt.Errorf("core: incremental state cell for %q is inconsistent", schemaName)
	}
	rows := linalg.NewDense(len(cell.Rows), cell.Dim)
	for k, row := range cell.Rows {
		if len(row) != cell.Dim {
			return nil, false, fmt.Errorf("core: incremental state cell for %q has a %d-wide row, want %d",
				schemaName, len(row), cell.Dim)
		}
		copy(rows.RowView(k), row)
	}
	scatter := linalg.NewDense(cell.Dim, cell.Dim)
	for j, row := range cell.Scatter {
		if len(row) != cell.Dim {
			return nil, false, fmt.Errorf("core: incremental state cell for %q has a %d-wide scatter row, want %d",
				schemaName, len(row), cell.Dim)
		}
		copy(scatter.RowView(j), row)
	}
	sum := make([]float64, cell.Dim)
	copy(sum, cell.Sum)
	return &ModelState{
		name:    cell.Schema,
		ids:     cell.IDs,
		rows:    rows,
		stats:   &linalg.PCAStats{N: cell.StatsN, Sum: sum, Scatter: scatter},
		version: cell.Version,
	}, true, nil
}

// ---------------------------------------------------------------------------
// Store-backed delta assessment (cross-invocation)

// assessDeltaCell persists one (local signatures, foreign model) score
// column: reusable exactly when both fingerprints still match.
type assessDeltaCell struct {
	ModelFP string    `json:"model_fp"`
	SigSum  string    `json:"sig_sum"`
	Errs    []float64 `json:"errs"`
}

// cellColumns is the ColumnCache of AssessDeltaStore: one checkpoint cell
// per (local schema, foreign schema), keyed prefix/assess-delta/<local>/
// <foreign>, reused while the cell's model fingerprint and signature digest
// both match.
type cellColumns struct {
	store         CellStore
	prefix, local string
	sigSum        string
	fps           map[*Model]string
}

func (c *cellColumns) key(m *Model) string {
	return fmt.Sprintf("%s/assess-delta/%s/%s", c.prefix, c.local, m.Schema)
}

func (c *cellColumns) Column(m *Model) ([]float64, bool, error) {
	var cell assessDeltaCell
	ok, err := c.store.Load(c.key(m), &cell)
	if err != nil {
		return nil, false, fmt.Errorf("core: load delta cell %q: %w", c.key(m), err)
	}
	return cell.Errs, ok && cell.ModelFP == c.fps[m] && cell.SigSum == c.sigSum, nil
}

func (c *cellColumns) Keep(m *Model, errs []float64) error {
	if err := c.store.Save(c.key(m), &assessDeltaCell{ModelFP: c.fps[m], SigSum: c.sigSum, Errs: errs}); err != nil {
		return fmt.Errorf("core: save delta cell %q: %w", c.key(m), err)
	}
	return nil
}

// AssessDeltaStore is AssessContext with a cross-invocation delta cache:
// per-foreign-model score columns persist in the store, keyed by the model
// fingerprint and the local signature digest (SignatureDigest, scoped by
// prefix), so re-assessing after a peer republishes re-scores only against
// the models that actually changed (`collabscope assess -delta`). Verdicts
// are identical to AssessContext — a reused column holds the exact float64s
// a fresh pass would recompute. A nil store degrades to plain
// AssessContext with everything re-scored.
func AssessDeltaStore(ctx context.Context, workers int, local *embed.SignatureSet, foreign []*Model, cfg AssessConfig, store CellStore, prefix string) (map[schema.ElementID]bool, DeltaReport, error) {
	if local.Len() == 0 {
		return nil, DeltaReport{}, fmt.Errorf("core: cannot assess an empty signature set")
	}
	ctx, sp := obs.Start(ctx, "core.assess_delta_store")
	sp.Annotate("elements", int64(local.Len()))
	sp.Annotate("models", int64(len(foreign)))
	defer sp.End()

	var cache ColumnCache
	if store != nil {
		name := local.IDs[0].Schema
		c := &cellColumns{store: store, prefix: prefix, local: name,
			sigSum: SignatureDigest(prefix, name, local.Matrix), fps: make(map[*Model]string, len(foreign))}
		for _, m := range foreign {
			fp, err := m.Fingerprint()
			if err != nil {
				return nil, DeltaReport{}, fmt.Errorf("core: fingerprint model %q: %w", m.Schema, err)
			}
			c.fps[m] = fp
		}
		cache = c
	}
	errs, rep, err := Columns(ctx, workers, local.Matrix, foreign, cache)
	if err != nil {
		return nil, rep, err
	}
	reg := obs.FromContext(ctx)
	reg.Counter("core.delta.rescored").Add(int64(rep.Rescored))
	reg.Counter("core.delta.reused").Add(int64(rep.Reused))
	return cfg.verdicts(local, foreign, errs), rep, nil
}
