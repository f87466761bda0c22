// Incremental model maintenance (DESIGN.md §15): production schemas churn —
// DDL changes, new tables, dropped columns — and a full PCA retrain plus
// full reassessment per change defeats the point of scoping. This file adds
// the layers that survive schema evolution:
//
//   - schemaState: one maintained schema (rows, their fit, a version, and
//     sufficient statistics only while rows ≥ dimensions) with one
//     mutation, move, that checks, moves the statistics, refits and
//     commits or changes nothing.
//   - Scoper.AddElements / RemoveElements plus AssessDelta: in-process
//     incremental maintenance that refits only the changed schema and
//     re-scores only element×model pairs whose verdict can change, with obs
//     counters proving the reuse.
//   - ModelState: a schemaState persisted in a CellStore between
//     invocations (`collabscope update`), resuming bit-identically after a
//     restart.
//   - AssessDeltaStore: assessment whose error columns persist in a
//     CellStore across invocations (`collabscope assess -delta`).
//
// Every path scores through Columns, the one Algorithm 2 engine.
//
// Exactness: an incremental refit over fewer rows than dimensions runs the
// exact from-scratch code path on the maintained rows, so the refitted
// state is bit-identical to retraining from zero. When rows reach the
// dimension the refit switches to the sufficient-statistics path (cost
// independent of history length), which matches from-scratch training
// within linalg.StatsFitTolerance. Delta assessment is exact in both cases:
// reused scores are the identical float64s a full pass would recompute.
// Refits and delta assessment run on the caller's worker pool, and neither
// depends on its size.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/parallel"
	"collabscope/internal/schema"
)

// ---------------------------------------------------------------------------
// Maintained schema state

// schemaState is one maintained schema, the state behind each schema of a
// Scoper and behind a ModelState: its element IDs and signature rows,
// their full-spectrum decomposition, a version that bumps on every
// membership change, and its sufficient statistics. It holds the
// statistics exactly while it has at least as many rows as dimensions, the
// only regime whose refits read them (fitMaintained): below d they would
// be a d×d scatter kept up to date for nothing.
type schemaState struct {
	set *embed.SignatureSet
	// full is the fit of set's rows at explained variance 1; nil only in a
	// ModelState loaded from its cell, until its first Model.
	full    *linalg.PCA
	version int64
	stats   *linalg.PCAStats
}

// move is the one mutation of a maintained schema (DESIGN.md §15): it
// replaces the state's rows with next, a set of distinct elements. It
// diffs next against the current rows by element ID: a current row is gone
// when its element is missing from next or its signature changed, and a
// row of next enters when its element is new or changed. It then checks
// next's squares, moves the statistics, refits and commits; a failure at
// any step changes nothing.
//
//   - Every row of next is checked centred on next's mean, which the fit
//     and the range square; a row that enters held statistics is checked
//     raw too, since they square it raw (see checkSquares).
//   - A move that leaves the schema below d drops the statistics. The
//     first move that leaves it at n ≥ d accumulates next's rows in row
//     order; a later one downdates the gone rows in maintained order and
//     then updates the entering rows in next's order, on a copy of the
//     held statistics.
//   - The refit runs through fitMaintained on up to workers goroutines,
//     with the same bits at any count.
//
// It returns the diff and the gone rows' indices, ascending. An empty diff
// changes nothing, not even the version.
func (st *schemaState) move(workers int, next *embed.SignatureSet) (StateDelta, []int, error) {
	var delta StateDelta
	pos := make(map[schema.ElementID]int, next.Len())
	for k, id := range next.IDs {
		if _, dup := pos[id]; dup {
			return delta, nil, fmt.Errorf("core: duplicate element %s: already part of schema %q", id, id.Schema)
		}
		pos[id] = k
	}
	old := st.set
	kept := make([]bool, next.Len())
	var gone []int
	for k, id := range old.IDs {
		nk, ok := pos[id]
		switch {
		case !ok:
			delta.Removed++
		case slices.Equal(old.Matrix.RowView(k), next.Matrix.RowView(nk)):
			kept[nk] = true
			continue
		default:
			delta.Changed++
		}
		gone = append(gone, k)
	}
	var enter []int
	for k, ok := range kept {
		if !ok {
			enter = append(enter, k)
		}
	}
	delta.Added = len(enter) - delta.Changed
	if delta.Empty() {
		return delta, nil, nil
	}

	if err := checkSquares(next, next.Matrix.ColMean()); err != nil {
		return delta, nil, err
	}
	var stats *linalg.PCAStats
	if d := next.Matrix.Cols(); next.Len() >= d {
		for _, k := range enter {
			row := &embed.SignatureSet{IDs: next.IDs[k : k+1], Matrix: linalg.WrapDense(1, d, next.Matrix.RowView(k))}
			if err := checkSquares(row, nil); err != nil {
				return delta, nil, err
			}
		}
		if st.stats == nil {
			stats = linalg.AccumulateStats(next.Matrix)
		} else {
			stats = &linalg.PCAStats{N: st.stats.N, Sum: slices.Clone(st.stats.Sum), Scatter: st.stats.Scatter.Clone()}
			for _, k := range gone {
				if err := stats.Downdate(old.Matrix.RowView(k)); err != nil {
					return delta, nil, fmt.Errorf("core: downdate schema %q: %w", old.IDs[0].Schema, err)
				}
			}
			for _, k := range enter {
				stats.Update(next.Matrix.RowView(k))
			}
		}
	}
	pca, stats, err := fitMaintained(workers, next, stats)
	if err != nil {
		return delta, nil, err
	}
	st.set, st.full, st.stats = next, pca, stats
	st.version++
	return delta, gone, nil
}

// fitMaintained is a maintained schema's one choice between its two exact
// refit paths, at explained variance 1. Without statistics (fewer rows
// than dimensions, the schema-scoping regime) it fits the rows through
// fitRows, the from-scratch code path, so the fit is bit-identical to
// retraining. With them (rows ≥ dimensions) it fits from the statistics,
// whose cost does not grow with the rows' churn history, within
// linalg.StatsFitTolerance of from-scratch.
//
// Rows are checked on the way in (checkSquares), but the rows a schema
// holds when it first builds statistics were checked only centred, and
// sums over many large rows can overflow too; downdating an overflowed
// cell then leaves Inf−Inf = NaN. So statistics that are not finite are
// rebuilt from the rows, and the rows are fitted if the rebuilt ones are
// still not finite. It returns the statistics to keep.
func fitMaintained(workers int, set *embed.SignatureSet, stats *linalg.PCAStats) (*linalg.PCA, *linalg.PCAStats, error) {
	if stats == nil {
		pca, err := fitRows(workers, set, 1.0)
		return pca, nil, err
	}
	pca, err := linalg.FitPCAFromStats(stats, 1.0)
	if errors.Is(err, linalg.ErrNonFinite) {
		stats = linalg.AccumulateStats(set.Matrix)
		if pca, err = linalg.FitPCAFromStats(stats, 1.0); errors.Is(err, linalg.ErrNonFinite) {
			pca, err = fitRows(workers, set, 1.0)
			return pca, stats, err
		}
	}
	if err != nil {
		return nil, stats, trainError(set.IDs[0].Schema, set, err)
	}
	return pca, stats, nil
}

// model builds the schema's model at explained variance v by truncating
// its full-spectrum fit. ModelsContext, AssessDelta and ModelState.Model
// all build through it, so a model AssessDelta caches is the one a full
// round would build, and a truncation is bit-identical to a fit at v.
func (st *schemaState) model(v float64) (*Model, error) {
	return newModel(st.set.IDs[0].Schema, v, st.full.Truncate(v), st.set.Matrix)
}

// ---------------------------------------------------------------------------
// Scoper incremental maintenance

// Sets returns the scoper's current signature sets (a new slice; the sets
// themselves are shared and must be treated as read-only). The
// benchmark's evolve_churn workload uses it to hand the incrementally
// maintained state to a from-scratch Scoper for comparison.
func (s *Scoper) Sets() []*embed.SignatureSet {
	out := make([]*embed.SignatureSet, len(s.states))
	for i := range s.states {
		out[i] = s.states[i].set
	}
	return out
}

// checkDeltaSet validates an element batch destined for schema i: same
// schema name, same signature dimensionality, non-empty.
func (s *Scoper) checkDeltaSet(i int, set *embed.SignatureSet) error {
	if i < 0 || i >= len(s.states) {
		return fmt.Errorf("core: schema index %d out of range %d", i, len(s.states))
	}
	name, err := singleSchemaName(set)
	if err != nil {
		return err
	}
	own := s.states[i].set
	if name != own.IDs[0].Schema {
		return fmt.Errorf("core: elements belong to schema %q, index %d holds %q", name, i, own.IDs[0].Schema)
	}
	if set.Matrix.Cols() != own.Matrix.Cols() {
		return fmt.Errorf("core: elements have dimension %d, schema %q uses %d",
			set.Matrix.Cols(), own.IDs[0].Schema, own.Matrix.Cols())
	}
	return nil
}

// AddElements appends new elements to schema i after a schema evolution
// (say, a CREATE TABLE) and refits only that schema, on the Scoper's whole
// worker pool: the other schemas' decompositions, and every cached
// element×model score not involving schema i, are untouched. Duplicate
// element IDs are rejected — membership bookkeeping is by ID — and so are
// rows whose squares overflow (see schemaState.move), before anything
// changes; a failed refit leaves the scoper assessing the pre-update
// state.
func (s *Scoper) AddElements(i int, add *embed.SignatureSet) error {
	if err := s.checkDeltaSet(i, add); err != nil {
		return err
	}
	if _, _, err := s.states[i].move(s.workers, appendSet(s.states[i].set, add)); err != nil {
		return err
	}
	s.deltaAppendRows(i, add.Len())
	return nil
}

// RemoveElements drops elements from schema i (a DROP COLUMN / DROP TABLE)
// and refits only that schema, like AddElements. Every id must currently
// belong to schema i, and at least one element must survive — an empty
// signature set cannot train a model.
func (s *Scoper) RemoveElements(i int, ids ...schema.ElementID) error {
	if i < 0 || i >= len(s.states) {
		return fmt.Errorf("core: schema index %d out of range %d", i, len(s.states))
	}
	if len(ids) == 0 {
		return fmt.Errorf("core: no elements to remove")
	}
	old := s.states[i].set
	keep := make(map[schema.ElementID]bool, old.Len())
	for _, id := range old.IDs {
		keep[id] = true
	}
	for _, id := range ids {
		if _, ok := keep[id]; !ok {
			return fmt.Errorf("core: element %s is not part of schema %q", id, old.IDs[0].Schema)
		}
		keep[id] = false
	}
	next := old.Select(keep)
	if next.Len() == 0 {
		return fmt.Errorf("core: removing %d of %d elements would leave schema %q empty",
			old.Len(), old.Len(), old.IDs[0].Schema)
	}
	_, gone, err := s.states[i].move(s.workers, next)
	if err != nil {
		return err
	}
	s.deltaRemoveRows(i, gone)
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
// changing v drops the cache, since every model truncation changes. The
// local schemas fan out over the Scoper's worker pool; the keep-set and
// the report fold in schema order, so both are identical for any worker
// count.
func (s *Scoper) AssessDelta(ctx context.Context, v float64) (map[schema.ElementID]bool, DeltaReport, error) {
	var rep DeltaReport
	if v <= 0 || v > 1 {
		return nil, rep, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	ctx, sp := obs.Start(ctx, "core.assess_delta")
	sp.Annotate("schemas", int64(len(s.states)))
	defer sp.End()
	reg := obs.FromContext(ctx)

	k := len(s.states)
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
	for i := range s.states {
		st := &s.states[i]
		if c.models[i] != nil && c.modelVer[i] == st.version {
			continue
		}
		m, err := st.model(v)
		if err != nil {
			return nil, rep, err
		}
		c.models[i] = m
		c.modelVer[i] = st.version
		rep.Refits++
	}

	// Local schema i writes only c.errs[i], linkable[i] and reps[i].
	linkable := make([][]bool, k)
	reps := make([]DeltaReport, k)
	err := parallel.ForEach(ctx, s.workers, k, func(i int) error {
		local := s.states[i].set
		n := local.Len()
		foreign := make([]*Model, 0, k-1)
		errs := make([][]float64, 0, k-1)
		for j := 0; j < k; j++ {
			if j == i {
				continue
			}
			e := c.errs[i][j]
			if e == nil || len(e.vals) != n {
				e = &deltaErrs{vals: make([]float64, n), valid: make([]bool, n)}
				c.errs[i][j] = e
			}
			if err := deltaScore(ctx, local, c.models[j], c.modelVer[j], e, &reps[i]); err != nil {
				return err
			}
			foreign = append(foreign, c.models[j])
			errs = append(errs, e.vals)
		}
		linkable[i] = s.cfg.Linkable(foreign, errs, n)
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	keep := make(map[schema.ElementID]bool, s.PassOperations())
	for i, verdicts := range linkable {
		for r, ok := range verdicts {
			keep[s.states[i].set.IDs[r]] = ok
		}
		rep.Rescored += reps[i].Rescored
		rep.Reused += reps[i].Reused
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

// ModelState is the incremental training state of one schema — the state
// a Scoper keeps per schema — persisted in a checkpoint store between
// invocations. It backs `collabscope update`: a schema evolution applies
// as a diff (added / removed / changed elements) through the same mutation
// as Scoper.AddElements and RemoveElements, so it holds sufficient
// statistics exactly while the schema has at least as many elements as
// dimensions. Persisted state reloads bit-identically — JSON float64
// encoding round-trips exactly — so a restarted process resumes
// incremental maintenance as if it never stopped.
type ModelState struct{ schemaState }

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
// signature set, the first, full fit of an evolving schema: Apply on an
// empty state, so the result is at version 1.
func NewModelState(workers int, set *embed.SignatureSet) (*ModelState, error) {
	if _, err := singleSchemaName(set); err != nil {
		return nil, err
	}
	st := &ModelState{schemaState{set: &embed.SignatureSet{Matrix: linalg.NewDense(0, set.Matrix.Cols())}}}
	if _, err := st.Apply(workers, set); err != nil {
		return nil, err
	}
	return st, nil
}

// Len returns the number of maintained elements.
func (st *ModelState) Len() int { return st.set.Len() }

// Version returns the state version: 1 at initialisation, bumped by every
// membership change. Republishing a model after a version bump is what
// triggers delta re-scoring in peers and the scoping service.
func (st *ModelState) Version() int64 { return st.version }

// Apply diffs the state against a schema's current signature set and
// applies the difference through the mutation of Scoper.AddElements and
// RemoveElements (DESIGN.md §15), refitting on up to workers goroutines
// (≤ 0 means GOMAXPROCS): elements gone from the set are removed, elements
// new to it added, and elements whose signature changed replaced. The
// final element order is the incoming set's. A no-op diff changes
// nothing, and a refused or failed one leaves the state as it was.
func (st *ModelState) Apply(workers int, set *embed.SignatureSet) (StateDelta, error) {
	name, err := singleSchemaName(set)
	if err != nil {
		return StateDelta{}, err
	}
	if st.Len() > 0 && name != st.set.IDs[0].Schema {
		return StateDelta{}, fmt.Errorf("core: state holds schema %q, set belongs to %q", st.set.IDs[0].Schema, name)
	}
	if d := st.set.Matrix.Cols(); set.Matrix.Cols() != d {
		return StateDelta{}, fmt.Errorf("core: state is %d-dimensional, set is %d-dimensional — the global encoder must not change mid-state",
			d, set.Matrix.Cols())
	}
	next := &embed.SignatureSet{IDs: slices.Clone(set.IDs), Matrix: set.Matrix.Clone()}
	delta, _, err := st.move(workers, next)
	return delta, err
}

// Model trains the current state's model at explained variance v by
// truncating its fit: bit-identical to Train over the maintained rows
// while they are fewer than dimensions, and fitted from the maintained
// sufficient statistics otherwise. A state loaded from its cell is fitted
// here first, on up to workers goroutines (≤ 0 means GOMAXPROCS), with
// the same bits at any count.
func (st *ModelState) Model(workers int, v float64) (*Model, error) {
	if v <= 0 || v > 1 {
		return nil, fmt.Errorf("core: explained variance %v outside (0, 1]", v)
	}
	if st.full == nil {
		pca, stats, err := fitMaintained(workers, st.set, st.stats)
		if err != nil {
			return nil, err
		}
		st.full, st.stats = pca, stats
	}
	return st.model(v)
}

// modelStateCell is the checkpoint-cell payload of a ModelState: its
// element IDs and rows, and its statistics only while it holds them.
// Float64 values survive the JSON round trip exactly (Go emits the
// shortest representation that parses back to the same bits), so a
// reloaded state is bit-identical to the saved one.
type modelStateCell struct {
	Schema  string             `json:"schema"`
	Dim     int                `json:"dim"`
	Version int64              `json:"version"`
	IDs     []schema.ElementID `json:"ids"`
	Rows    [][]float64        `json:"rows"`
	StatsN  int                `json:"stats_n,omitempty"`
	Sum     []float64          `json:"sum,omitempty"`
	Scatter [][]float64        `json:"scatter,omitempty"`
}

// modelStateKey is the checkpoint-cell key of a schema's incremental state.
func modelStateKey(schemaName string) string { return "incremental.state." + schemaName }

// Save persists the state as one checkpoint cell (atomic write, SHA-256
// trailer). A crash mid-save leaves the previous cell intact.
func (st *ModelState) Save(store CellStore) error {
	name := st.set.IDs[0].Schema
	cell := modelStateCell{Schema: name, Dim: st.set.Matrix.Cols(), Version: st.version,
		IDs: st.set.IDs, Rows: rowViews(st.set.Matrix)}
	if st.stats != nil {
		cell.StatsN, cell.Sum, cell.Scatter = st.stats.N, st.stats.Sum, rowViews(st.stats.Scatter)
	}
	if err := store.Save(modelStateKey(name), &cell); err != nil {
		return fmt.Errorf("core: save incremental state of %q: %w", name, err)
	}
	return nil
}

// LoadModelState restores a schema's persisted incremental state. A missing
// cell — or a corrupt one, which the store quarantines — reports
// (nil, false, nil): the caller re-initialises from a full fit, exactly the
// crash-safety posture of every other checkpoint consumer. The statistics
// are required at n ≥ d and dropped below d, so the cells of older builds,
// which kept them at every n, load too.
func LoadModelState(store CellStore, schemaName string) (*ModelState, bool, error) {
	var cell modelStateCell
	ok, err := store.Load(modelStateKey(schemaName), &cell)
	if err != nil || !ok {
		return nil, false, err
	}
	n := len(cell.IDs)
	holds := n >= cell.Dim
	if cell.Schema != schemaName || cell.Dim <= 0 || n == 0 || len(cell.Rows) != n ||
		holds && (cell.StatsN != n || len(cell.Sum) != cell.Dim || len(cell.Scatter) != cell.Dim) {
		return nil, false, fmt.Errorf("core: incremental state cell for %q is inconsistent", schemaName)
	}
	rows, err := cellDense(schemaName, "row", cell.Rows, cell.Dim)
	if err != nil {
		return nil, false, err
	}
	st := &ModelState{schemaState{set: &embed.SignatureSet{IDs: cell.IDs, Matrix: rows}, version: cell.Version}}
	if holds {
		scatter, err := cellDense(schemaName, "scatter row", cell.Scatter, cell.Dim)
		if err != nil {
			return nil, false, err
		}
		st.stats = &linalg.PCAStats{N: n, Sum: cell.Sum, Scatter: scatter}
	}
	return st, true, nil
}

// rowViews returns the rows of m as views, for a cell to encode.
func rowViews(m *linalg.Dense) [][]float64 {
	rows := make([][]float64, m.Rows())
	for k := range rows {
		rows[k] = m.RowView(k)
	}
	return rows
}

// cellDense copies the rows of a state cell into a matrix, refusing a row
// that is not dim wide.
func cellDense(schemaName, what string, rows [][]float64, dim int) (*linalg.Dense, error) {
	m := linalg.NewDense(len(rows), dim)
	for k, row := range rows {
		if len(row) != dim {
			return nil, fmt.Errorf("core: incremental state cell for %q has a %d-wide %s, want %d",
				schemaName, len(row), what, dim)
		}
		copy(m.RowView(k), row)
	}
	return m, nil
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
