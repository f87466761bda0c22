package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"collabscope/internal/checkpoint"
	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// incRandSet builds a seeded random single-schema signature set.
func incRandSet(rng *rand.Rand, name string, n, d int, offset float64) *embed.SignatureSet {
	ids := make([]schema.ElementID, n)
	m := linalg.NewDense(n, d)
	for i := 0; i < n; i++ {
		ids[i] = schema.AttributeID(name, "T", string(rune('a'+i%26))+string(rune('0'+i/26)))
		row := m.RowView(i)
		for j := range row {
			row[j] = rng.NormFloat64() + offset*float64(j%4)
		}
	}
	return &embed.SignatureSet{IDs: ids, Matrix: m}
}

// renameElements restamps a set's element IDs so added batches never
// collide with the base set.
func renameElements(set *embed.SignatureSet, suffix string) *embed.SignatureSet {
	ids := make([]schema.ElementID, len(set.IDs))
	for i, id := range set.IDs {
		ids[i] = schema.AttributeID(id.Schema, id.Table, id.Attribute+suffix)
	}
	return &embed.SignatureSet{IDs: ids, Matrix: set.Matrix}
}

func sameVerdicts(t *testing.T, got, want map[schema.ElementID]bool, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: verdict for %s missing", what, id)
		}
		if g != w {
			t.Fatalf("%s: verdict for %s is %v, want %v", what, id, g, w)
		}
	}
}

// matchesFresh requires s to hold, at every v, the models of a fresh
// Scoper over the same sets, range bits and component counts included, and
// to scope to the same verdicts.
func matchesFresh(t *testing.T, s *Scoper, what string, vs ...float64) {
	t.Helper()
	fresh, err := NewScoperContext(context.Background(), 0, s.Sets(), AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		mi, err := s.ModelsContext(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := fresh.ModelsContext(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		for k := range mi {
			if math.Float64bits(mi[k].Range) != math.Float64bits(mf[k].Range) || mi[k].Components() != mf[k].Components() {
				t.Fatalf("%s, v=%v schema %d: incremental model (range %v, %d comps) differs from from-scratch (range %v, %d comps)",
					what, v, k, mi[k].Range, mi[k].Components(), mf[k].Range, mf[k].Components())
			}
		}
		ki, err := s.ScopeContext(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		kf, err := fresh.ScopeContext(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		sameVerdicts(t, ki, kf, what+": incremental vs from-scratch scope")
	}
}

// TestScoperIncrementalMatchesFromScratch pins the exactness claim: every
// incremental mutation refits via the from-scratch code path, so a
// mutated Scoper holds bit-identical models to, and scopes like, a fresh
// Scoper built over the same final sets. Its schemas stay below d;
// TestScoperIncrementalStatsPath covers n ≥ d.
func TestScoperIncrementalMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 16
	sets := []*embed.SignatureSet{
		incRandSet(rng, "S0", 9, d, 0.4),
		incRandSet(rng, "S1", 11, d, 0.1),
		incRandSet(rng, "S2", 8, d, 0.7),
	}
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Add three elements to S0.
	add := renameElements(incRandSet(rng, "S0", 3, d, 0.4), "_new")
	if err := s.AddElements(0, add); err != nil {
		t.Fatal(err)
	}
	if got := s.states[0].version; got != 2 {
		t.Fatalf("version after AddElements: %d, want 2", got)
	}
	// Remove two elements from S1.
	if err := s.RemoveElements(1, sets[1].IDs[0], sets[1].IDs[4]); err != nil {
		t.Fatal(err)
	}
	// Add four more elements to S2.
	if err := s.AddElements(2, renameElements(incRandSet(rng, "S2", 4, d, 0.7), "_shard")); err != nil {
		t.Fatal(err)
	}
	if got := s.states[1].version; got != 2 {
		t.Fatalf("version after RemoveElements: %d, want 2", got)
	}
	matchesFresh(t, s, "below d", 0.6, 0.9)
}

// TestScoperIncrementalStatsPath holds the exactness claim at n ≥ d, the
// regime that once refit from accumulated sufficient statistics: 20 and
// 18 rows at d = 6, S0 grows and S1 shrinks, and the mutated Scoper must
// still hold bit-identical models to a fresh one and scope like it.
func TestScoperIncrementalStatsPath(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := 6
	sets := []*embed.SignatureSet{
		incRandSet(rng, "S0", 20, d, 0.4),
		incRandSet(rng, "S1", 18, d, 0.2),
	}
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddElements(0, renameElements(incRandSet(rng, "S0", 5, d, 0.4), "_new")); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveElements(1, sets[1].IDs[3], sets[1].IDs[7], sets[1].IDs[11]); err != nil {
		t.Fatal(err)
	}
	matchesFresh(t, s, "at n ≥ d", 0.85)
}

// TestAssessDeltaMatchesScope is the delta-assessment acceptance test:
// after every mutation the delta verdicts equal a full ScopeContext at the
// same v, while the report — and the obs counters — prove strictly fewer
// element×model passes were computed.
func TestAssessDeltaMatchesScope(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := 12
	sets := []*embed.SignatureSet{
		incRandSet(rng, "S0", 10, d, 0.5),
		incRandSet(rng, "S1", 12, d, 0.2),
		incRandSet(rng, "S2", 9, d, 0.8),
		incRandSet(rng, "S3", 11, d, 0.3),
	}
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.NewContext(context.Background(), reg, nil)
	const v = 0.9

	// Cold round: everything is scored, like a full pass.
	keep, rep, err := s.AssessDelta(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.ScopeContext(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, keep, full, "cold delta round")
	if rep.Rescored != s.PassOperations() || rep.Reused != 0 || rep.Refits != len(sets) {
		t.Fatalf("cold round report %+v, want rescored=%d reused=0 refits=%d", rep, s.PassOperations(), len(sets))
	}

	// Unchanged round: every score is reused.
	_, rep, err = s.AssessDelta(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rescored != 0 || rep.Reused != s.PassOperations() || rep.Refits != 0 {
		t.Fatalf("idle round report %+v, want everything reused", rep)
	}

	// Evolve one schema: add to S1, then delta-assess.
	add := renameElements(incRandSet(rng, "S1", 3, d, 0.2), "_new")
	if err := s.AddElements(1, add); err != nil {
		t.Fatal(err)
	}
	keep, rep, err = s.AssessDelta(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	full, err = s.ScopeContext(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, keep, full, "delta after AddElements")
	if rep.Rescored+rep.Reused != s.PassOperations() {
		t.Fatalf("report %+v does not partition %d passes", rep, s.PassOperations())
	}
	if rep.Rescored >= s.PassOperations() || rep.Reused == 0 || rep.Refits != 1 {
		t.Fatalf("delta after AddElements did not save work: %+v (full=%d)", rep, s.PassOperations())
	}

	// Remove from S2, then delta-assess.
	if err := s.RemoveElements(2, s.states[2].set.IDs[1], s.states[2].set.IDs[5]); err != nil {
		t.Fatal(err)
	}
	keep, rep, err = s.AssessDelta(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	full, err = s.ScopeContext(ctx, v)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, keep, full, "delta after RemoveElements")
	if rep.Rescored >= s.PassOperations() || rep.Reused == 0 {
		t.Fatalf("delta after RemoveElements did not save work: %+v", rep)
	}

	if reg.Counter("core.delta.reused").Value() == 0 || reg.Counter("core.delta.rescored").Value() == 0 {
		t.Fatal("obs counters core.delta.* did not record the delta rounds")
	}

	// Changing v drops the cache: a full re-score, still correct.
	keep, rep, err = s.AssessDelta(ctx, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	full, err = s.ScopeContext(ctx, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, keep, full, "delta after v change")
	if rep.Reused != 0 || rep.Rescored != s.PassOperations() {
		t.Fatalf("v change must invalidate the cache: %+v", rep)
	}

	if _, _, err := s.AssessDelta(ctx, 0); err == nil {
		t.Fatal("AssessDelta accepted v=0")
	}
}

// TestScoperMutationErrors covers the incremental mutators' validation
// surface, including rejection paths that must leave the scoper usable.
func TestScoperMutationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 8
	sets := []*embed.SignatureSet{
		incRandSet(rng, "S0", 6, d, 0.4),
		incRandSet(rng, "S1", 5, d, 0.1),
	}
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	add := renameElements(incRandSet(rng, "S0", 2, d, 0.4), "_x")
	if err := s.AddElements(7, add); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range index: %v", err)
	}
	if err := s.AddElements(1, add); err == nil || !strings.Contains(err.Error(), "S1") {
		t.Fatalf("schema mismatch: %v", err)
	}
	wrong := incRandSet(rng, "S0", 2, d+1, 0)
	if err := s.AddElements(0, wrong); err == nil || !strings.Contains(err.Error(), "dimension") {
		t.Fatalf("dimension mismatch: %v", err)
	}
	if err := s.AddElements(0, &embed.SignatureSet{Matrix: linalg.NewDense(1, d)}); err == nil {
		t.Fatal("empty add accepted")
	}
	dup := &embed.SignatureSet{IDs: []schema.ElementID{sets[0].IDs[0]}, Matrix: linalg.NewDense(1, d)}
	if err := s.AddElements(0, dup); err == nil || !strings.Contains(err.Error(), "already part") {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := s.RemoveElements(0); err == nil {
		t.Fatal("empty removal accepted")
	}
	if err := s.RemoveElements(0, schema.AttributeID("S0", "T", "nope")); err == nil || !strings.Contains(err.Error(), "not part") {
		t.Fatalf("unknown removal: %v", err)
	}
	if err := s.RemoveElements(0, s.states[0].set.IDs...); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("emptying removal: %v", err)
	}
	if s.states[0].version != 1 || s.states[1].version != 1 {
		t.Fatal("failed mutations must not bump versions")
	}
	// A rejected refit (non-finite added rows) rolls the scoper back.
	bad := renameElements(incRandSet(rng, "S0", 2, d, 0.4), "_bad")
	bad.Matrix.Set(0, 0, math.NaN())
	before, err := s.ScopeContext(context.Background(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddElements(0, bad); err == nil {
		t.Fatal("non-finite add accepted")
	}
	after, err := s.ScopeContext(context.Background(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, after, before, "scope after rejected add")
	inf := renameElements(incRandSet(rng, "S0", 1, d, 0.4), "_inf")
	inf.Matrix.Set(0, 3, math.Inf(1))
	if err := s.AddElements(0, inf); err == nil {
		t.Fatal("infinite add accepted")
	}
	// The rejected adds must leave S0 clean: the next valid add takes it to
	// n ≥ d and scopes like a fresh Scoper over the same sets.
	if err := s.AddElements(0, renameElements(incRandSet(rng, "S0", 3, d, 0.4), "_ok")); err != nil {
		t.Fatalf("valid add after rejected ones: %v", err)
	}
	fresh, err := NewScoperContext(context.Background(), 0, s.Sets(), AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.ScopeContext(context.Background(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ScopeContext(context.Background(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, got, want, "scope after a valid add following rejected ones")
}

// hugeRow is a one-element set whose signature, 1e200·(j+1), is finite but
// squares past the float64 range.
func hugeRow(name string, d int) *embed.SignatureSet {
	m := linalg.NewDense(1, d)
	for j, row := 0, m.RowView(0); j < d; j++ {
		row[j] = 1e200 * float64(j+1)
	}
	return &embed.SignatureSet{IDs: []schema.ElementID{schema.AttributeID(name, "T", "huge")}, Matrix: m}
}

// scopesLikeFresh requires s to scope like a fresh Scoper over the same
// sets: the same verdicts, or the same error.
func scopesLikeFresh(t *testing.T, s *Scoper, what string) {
	t.Helper()
	fresh, err := NewScoperContext(context.Background(), 0, s.Sets(), AssessConfig{})
	if err != nil {
		t.Fatalf("%s: fresh scoper: %v", what, err)
	}
	got, err := s.ScopeContext(context.Background(), 0.9)
	want, werr := fresh.ScopeContext(context.Background(), 0.9)
	if werr != nil {
		if err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: scope error %v, a fresh scoper's %v", what, err, werr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameVerdicts(t, got, want, what)
}

// refusesRow requires err to wrap linalg.ErrNonFinite and name element id.
func refusesRow(t *testing.T, err error, id schema.ElementID, what string) {
	t.Helper()
	if !errors.Is(err, linalg.ErrNonFinite) || !strings.Contains(err.Error(), id.String()) {
		t.Fatalf("%s: err = %v, want ErrNonFinite naming %s", what, err, id)
	}
}

// TestScoperRefusesOverflowingRows pins the Scoper against a finite but
// huge row, 1e200·(j+1): it passes every finiteness check, yet its centred
// squares overflow, so the fit would publish a +Inf linkability range,
// which fails every Scope of the corpus. NewScoperContext and AddElements
// refuse it by name before anything changes, below d and at n ≥ d. Rows
// whose raw squares, summed over several rows, overflow, but whose centred
// ones do not, are accepted.
func TestScoperRefusesOverflowingRows(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := 8
	s0, s1 := incRandSet(rng, "S0", 6, d, 0.4), incRandSet(rng, "S1", 5, d, 0.1)
	huge := hugeRow("S0", d)
	hugeID := huge.IDs[0]

	_, err := NewScoperContext(context.Background(), 0, []*embed.SignatureSet{appendSet(s0, huge), s1}, AssessConfig{})
	refusesRow(t, err, hugeID, "NewScoperContext")

	s, err := NewScoperContext(context.Background(), 0, []*embed.SignatureSet{s0, s1}, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	refusesRow(t, s.AddElements(0, huge), hugeID, "AddElements below d")
	if s.states[0].version != 1 || s.states[0].set.Len() != 6 {
		t.Fatalf("refused add changed the scoper: version %d, %d rows", s.states[0].version, s.states[0].set.Len())
	}
	scopesLikeFresh(t, s, "after the refused add below d")
	if err := s.AddElements(0, renameElements(incRandSet(rng, "S0", 3, d, 0.4), "_a")); err != nil {
		t.Fatal(err)
	}
	refusesRow(t, s.AddElements(0, huge), hugeID, "AddElements at n ≥ d")
	if s.states[0].version != 2 || s.states[0].set.Len() != 9 {
		t.Fatalf("refused add changed the scoper: version %d, %d rows", s.states[0].version, s.states[0].set.Len())
	}
	scopesLikeFresh(t, s, "after the refused add at n ≥ d")

	// d = 2: every value near 9e153 squares within range and so does each
	// row, but the raw squares of three rows sum past it.
	near := func(name string, n int) *embed.SignatureSet {
		set := renameElements(incRandSet(rng, name, n, 2, 0), "_near")
		for i := 0; i < n; i++ {
			for j, row := 0, set.Matrix.RowView(i); j < 2; j++ {
				row[j] = 9e153 + 1e150*row[j]
			}
		}
		return set
	}
	s, err = NewScoperContext(context.Background(), 0, []*embed.SignatureSet{near("S0", 3), incRandSet(rng, "S1", 4, 2, 0.1)}, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	add := near("S0", 1)
	add.IDs[0] = schema.AttributeID("S0", "T", "late")
	if err := s.AddElements(0, add); err != nil {
		t.Fatalf("add whose raw squares overflow across rows: %v", err)
	}
	scopesLikeFresh(t, s, "raw squares overflowed across rows")
	if err := s.RemoveElements(0, add.IDs...); err != nil {
		t.Fatalf("remove after raw squares overflowed: %v", err)
	}
	scopesLikeFresh(t, s, "row removed after raw squares overflowed")
}

// TestModelStateHugeRow pins ModelState against rows whose squares
// overflow, and against non-finite ones: NewModelState and Apply refuse
// both by name before the state changes, so the state still trains and
// saves.
func TestModelStateHugeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d := 8
	valid := incRandSet(rng, "S", 9, d, 0.2)
	huge := hugeRow("S", d)
	withHuge := appendSet(valid, huge)
	withNaN := appendSet(valid, renameElements(incRandSet(rng, "S", 1, d, 0.2), "_nan"))
	withNaN.Matrix.Set(9, 4, math.NaN())

	_, err := NewModelState(1, withHuge)
	refusesRow(t, err, huge.IDs[0], "NewModelState, huge row")
	_, err = NewModelState(1, withNaN)
	refusesRow(t, err, withNaN.IDs[9], "NewModelState, NaN row")

	st, err := NewModelState(1, valid)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.Model(1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*embed.SignatureSet{withHuge, withNaN} {
		_, err := st.Apply(1, bad)
		refusesRow(t, err, bad.IDs[9], "Apply")
	}
	if st.Version() != 1 || st.Len() != 9 {
		t.Fatalf("refused applies changed the state: version %d, %d rows", st.Version(), st.Len())
	}
	m, err := st.Model(1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if m.Range != want.Range {
		t.Fatalf("range after refused applies %v, want %v", m.Range, want.Range)
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(store); err != nil {
		t.Fatalf("save after refused applies: %v", err)
	}
}

// TestScoperFailedRefitChangesNothing pins the rollback of a failed
// refit: the schema keeps its rows, its fit and its version, and scopes
// like a fresh Scoper over the same sets, whether the move would have
// grown it to n ≥ d or shrunk it.
//
// The failing refits use values near 1e-82, where the product of two
// squared working-row norms underflows to zero, so the Jacobi convergence
// test (|γ| ≤ tol·√(αβ)) never passes and the decomposition exhausts its
// sweeps.
func TestScoperFailedRefitChangesNothing(t *testing.T) {
	const d = 4
	tiny := func(rng *rand.Rand, suffix string, n int) *embed.SignatureSet {
		set := renameElements(incRandSet(rng, "S0", n, d, 0), suffix)
		for i := range n {
			for j, row := 0, set.Matrix.RowView(i); j < d; j++ {
				row[j] *= 1e-82
			}
		}
		return set
	}
	unchanged := func(s *Scoper, before schemaState, err error, what string) {
		t.Helper()
		if !errors.Is(err, linalg.ErrSVDNoConvergence) {
			t.Fatalf("%s: err = %v, want ErrSVDNoConvergence", what, err)
		}
		if st := s.states[0]; st != before {
			t.Fatalf("%s: failed refit left %d rows at version %d", what, st.set.Len(), st.version)
		}
		scopesLikeFresh(t, s, what)
	}

	// One tiny row fits; five do not.
	rng := rand.New(rand.NewSource(1))
	s, err := NewScoperContext(context.Background(), 0, []*embed.SignatureSet{tiny(rng, "", 1), incRandSet(rng, "S1", 3, d, 0.1)}, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.states[0]
	unchanged(s, before, s.AddElements(0, tiny(rng, "_a", 4)), "add to n ≥ d")

	// Three tiny rows and an ordinary one fit; the tiny rows alone do not.
	rng = rand.New(rand.NewSource(1))
	s0 := appendSet(tiny(rng, "", 3), renameElements(incRandSet(rng, "S0", 1, d, 0.3), "_ok"))
	if s, err = NewScoperContext(context.Background(), 0, []*embed.SignatureSet{s0, incRandSet(rng, "S1", 3, d, 0.1)}, AssessConfig{}); err != nil {
		t.Fatal(err)
	}
	before = s.states[0]
	unchanged(s, before, s.RemoveElements(0, s0.IDs[3]), "remove below d")
}

// TestModelStateCellHoldsRowsOnly pins the state cell and the models a
// ModelState builds. Applies take the state below d, to n ≥ d and back;
// after each, its model is Train's over the same rows, bit for bit. The
// cell it saves at n ≥ d holds no sufficient statistics and is at most 1.2
// times the JSON of its IDs and rows. A cell in the older format, which
// also held the statistics, loads at its version below d and at n ≥ d,
// and yields Train's model before and after a further Apply.
func TestModelStateCellHoldsRowsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const d = 8
	set := incRandSet(rng, "S0", 5, d, 0.3)
	st, err := NewModelState(1, set)
	if err != nil {
		t.Fatal(err)
	}
	likeTrain := func(st *ModelState, rows *embed.SignatureSet, what string) {
		t.Helper()
		got, err := st.Model(1, 0.9)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, err := Train(rows, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		fg, err := got.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fw, err := want.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fg != fw {
			t.Fatalf("%s: model %s, Train's %s", what, fg, fw)
		}
	}
	without := func(ids ...schema.ElementID) *embed.SignatureSet {
		keep := make(map[schema.ElementID]bool, set.Len())
		for _, id := range set.IDs {
			keep[id] = !slices.Contains(ids, id)
		}
		return set.Select(keep)
	}
	grown := func(suffix string, n int) *embed.SignatureSet {
		return appendSet(set, renameElements(incRandSet(rng, "S0", n, d, 0.3), suffix))
	}
	step := func(what string, next *embed.SignatureSet) {
		t.Helper()
		if _, err := st.Apply(1, next); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		set = next
		likeTrain(st, set, what)
	}
	likeTrain(st, set, "new state below d")
	step("add below d", grown("_a", 2))
	step("add to n ≥ d", grown("_b", 3))
	step("add at n ≥ d", grown("_c", 2))
	step("remove at n ≥ d", without(set.IDs[1]))
	atDim := set

	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(store); err != nil {
		t.Fatal(err)
	}
	cells, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(cells) != 1 {
		t.Fatalf("want exactly one cell file, got %v (%v)", cells, err)
	}
	b, err := os.ReadFile(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	var env struct{ Payload map[string]json.RawMessage }
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"stats_n", "sum", "scatter"} {
		if _, ok := env.Payload[key]; ok {
			t.Fatalf("cell saved at n ≥ d holds %q", key)
		}
	}
	plain, err := json.Marshal(struct {
		IDs  []schema.ElementID `json:"ids"`
		Rows [][]float64        `json:"rows"`
	}{st.set.IDs, rowViews(st.set.Matrix)})
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(b)) > 1.2*float64(len(plain)) {
		t.Fatalf("cell saved at n ≥ d is %d bytes, more than 1.2 times the %d of its IDs and rows", len(b), len(plain))
	}
	step("remove below d", without(set.IDs[:4]...))

	// The older cell format, written by its own struct, with the
	// statistics it kept: the row count, the column sums and Σ xᵀx.
	type olderCell struct {
		Schema  string             `json:"schema"`
		Dim     int                `json:"dim"`
		Version int64              `json:"version"`
		IDs     []schema.ElementID `json:"ids"`
		Rows    [][]float64        `json:"rows"`
		StatsN  int                `json:"stats_n"`
		Sum     []float64          `json:"sum"`
		Scatter [][]float64        `json:"scatter"`
	}
	for _, old := range []*embed.SignatureSet{set, atDim} {
		what := fmt.Sprintf("older cell of %d rows", old.Len())
		cell := olderCell{Schema: "S0", Dim: d, Version: 7, IDs: old.IDs, Rows: rowViews(old.Matrix),
			StatsN: old.Len(), Sum: make([]float64, d), Scatter: make([][]float64, d)}
		for j := range cell.Scatter {
			cell.Scatter[j] = make([]float64, d)
		}
		for _, row := range cell.Rows {
			for j, x := range row {
				cell.Sum[j] += x
				for k, y := range row {
					cell.Scatter[j][k] += x * y
				}
			}
		}
		if err := store.Save(modelStateKey("S0"), &cell); err != nil {
			t.Fatal(err)
		}
		re, ok, err := LoadModelState(store, "S0")
		if err != nil || !ok || re.Version() != 7 {
			t.Fatalf("%s: ok=%v err=%v, want version 7", what, ok, err)
		}
		likeTrain(re, old, what)
		next := appendSet(old, renameElements(incRandSet(rng, "S0", 1, d, 0.3), "_r"))
		if _, err := re.Apply(1, next); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if re.Version() != 8 {
			t.Fatalf("%s: resumed at version %d, want 8", what, re.Version())
		}
		likeTrain(re, next, what+", resumed")
	}
}

// TestModelStateApplyAndPersist drives a ModelState through a schema
// evolution and save/load cycles: the reloaded state must be bit-identical
// — same version, membership and rows — below d and at n ≥ d, and its
// trained model must equal the from-scratch model.
func TestModelStateApplyAndPersist(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d := 9
	base := incRandSet(rng, "S", 7, d, 0.4)
	st, err := NewModelState(1, base)
	if err != nil {
		t.Fatal(err)
	}
	if st.set.IDs[0].Schema != "S" || st.Len() != 7 || st.set.Matrix.Cols() != d || st.Version() != 1 {
		t.Fatalf("fresh state: schema=%q len=%d dim=%d version=%d", st.set.IDs[0].Schema, st.Len(), st.set.Matrix.Cols(), st.Version())
	}

	// No-op apply: same set, no version bump.
	delta, err := st.Apply(1, base)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Empty() || st.Version() != 1 {
		t.Fatalf("no-op apply produced %v, version %d", delta, st.Version())
	}

	// Evolution: drop rows 1 and 4, change row 2, add two elements.
	evolved := &embed.SignatureSet{}
	for k, id := range base.IDs {
		if k == 1 || k == 4 {
			continue
		}
		evolved.IDs = append(evolved.IDs, id)
	}
	extra := renameElements(incRandSet(rng, "S", 2, d, 0.4), "_new")
	evolved.IDs = append(evolved.IDs, extra.IDs...)
	evolved.Matrix = linalg.NewDense(len(evolved.IDs), d)
	row := 0
	for k := range base.IDs {
		if k == 1 || k == 4 {
			continue
		}
		copy(evolved.Matrix.RowView(row), base.Matrix.RowView(k))
		row++
	}
	evolved.Matrix.Set(1, 0, 42.5) // base row 2 survived as state row 1 — changed in place
	copy(evolved.Matrix.RowView(row), extra.Matrix.RowView(0))
	copy(evolved.Matrix.RowView(row+1), extra.Matrix.RowView(1))

	delta, err = st.Apply(1, evolved)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Added != 2 || delta.Removed != 2 || delta.Changed != 1 {
		t.Fatalf("delta %v, want +2 -2 ~1", delta)
	}
	if st.Version() != 2 {
		t.Fatalf("version after apply: %d", st.Version())
	}
	if delta.String() != "+2 -2 ~1" {
		t.Fatalf("delta string %q", delta)
	}

	// The trained model is bit-identical to from-scratch Train.
	likeTrain := func(st *ModelState, rows *embed.SignatureSet, what string) {
		t.Helper()
		m, err := st.Model(1, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Train(rows, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := m.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		wf, err := want.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if mf != wf {
			t.Fatalf("%s: incremental model fingerprint %s differs from from-scratch %s", what, mf, wf)
		}
	}
	likeTrain(st, evolved, "n < d")

	// Persist and reload: bit-identical resume.
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(store); err != nil {
		t.Fatal(err)
	}
	re, ok, err := LoadModelState(store, "S")
	if err != nil || !ok {
		t.Fatalf("reload: ok=%v err=%v", ok, err)
	}
	sameState := func(re, st *ModelState, what string) {
		t.Helper()
		if re.Version() != st.Version() || !reflect.DeepEqual(re.set.IDs, st.set.IDs) {
			t.Fatalf("%s: reloaded state differs in version or membership", what)
		}
		for k := 0; k < st.Len(); k++ {
			if !reflect.DeepEqual(st.set.Matrix.RowView(k), re.set.Matrix.RowView(k)) {
				t.Fatalf("%s: reloaded row %d differs", what, k)
			}
		}
	}
	sameState(re, st, "n < d")
	// Both states apply the same further evolution identically; it takes
	// them to n ≥ d.
	next := renameElements(incRandSet(rng, "S", 3, d, 0.4), "_v3")
	joined := appendSet(evolved, next)
	joined.Matrix.Set(1, 0, 42.5)
	if _, err := st.Apply(1, joined); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Apply(1, joined); err != nil {
		t.Fatal(err)
	}
	if st.Len() < d {
		t.Fatalf("%d rows, want at least d = %d", st.Len(), d)
	}
	sameState(re, st, "post-resume evolution")
	if err := st.Save(store); err != nil {
		t.Fatal(err)
	}
	if re, ok, err = LoadModelState(store, "S"); err != nil || !ok {
		t.Fatalf("reload at n ≥ d: ok=%v err=%v", ok, err)
	}
	sameState(re, st, "n ≥ d")
	likeTrain(re, joined, "reloaded at n ≥ d")

	// Missing schema is a clean miss.
	if _, ok, err := LoadModelState(store, "ABSENT"); ok || err != nil {
		t.Fatalf("absent state: ok=%v err=%v", ok, err)
	}
}

// TestModelStateErrors covers Apply validation.
func TestModelStateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	st, err := NewModelState(1, incRandSet(rng, "S", 5, 6, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(1, incRandSet(rng, "OTHER", 3, 6, 0)); err == nil || !strings.Contains(err.Error(), "OTHER") {
		t.Fatalf("cross-schema apply: %v", err)
	}
	if _, err := st.Apply(1, incRandSet(rng, "S", 3, 7, 0)); err == nil || !strings.Contains(err.Error(), "dimensional") {
		t.Fatalf("dimension change: %v", err)
	}
	if _, err := st.Apply(1, &embed.SignatureSet{Matrix: linalg.NewDense(1, 6)}); err == nil {
		t.Fatal("empty apply accepted")
	}
	dupIDs := incRandSet(rng, "S", 2, 6, 0)
	dupIDs.IDs[1] = dupIDs.IDs[0]
	if _, err := st.Apply(1, dupIDs); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate apply: %v", err)
	}
	if _, err := NewModelState(1, dupIDs); err == nil {
		t.Fatal("duplicate init accepted")
	}
	if _, err := st.Model(1, 0); err == nil {
		t.Fatal("v=0 accepted")
	}
}

// TestCorruptStateCellQuarantined pins the crash-safety posture of
// persisted incremental state: a corrupted cell is a miss (the caller
// re-initialises from a full fit), and the damaged file is quarantined for
// forensics rather than trusted or deleted.
func TestCorruptStateCellQuarantined(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewModelState(1, incRandSet(rng, "S", 6, 5, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(store); err != nil {
		t.Fatal(err)
	}
	cells, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(cells) != 1 {
		t.Fatalf("want exactly one cell file, got %v (%v)", cells, err)
	}
	b, err := os.ReadFile(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the SHA-256 trailer no longer matches.
	mangled := []byte(strings.Replace(string(b), `"version":1`, `"version":9`, 1))
	if string(mangled) == string(b) {
		t.Fatal("corruption did not change the cell")
	}
	if err := os.WriteFile(cells[0], mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	re, ok, err := LoadModelState(store, "S")
	if err != nil || ok || re != nil {
		t.Fatalf("corrupt cell: state=%v ok=%v err=%v, want clean miss", re, ok, err)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(quarantined) != 1 {
		t.Fatalf("corrupt cell was not quarantined: %v", quarantined)
	}
	// Recovery: re-save and reload.
	if err := st.Save(store); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := LoadModelState(store, "S"); err != nil || !ok {
		t.Fatalf("re-saved state did not load: ok=%v err=%v", ok, err)
	}
}

// TestAssessDeltaStore pins the cross-invocation delta path used by
// `collabscope assess -delta`: verdicts always equal plain AssessContext,
// columns persist across calls, and only models that actually changed are
// re-scored.
func TestAssessDeltaStore(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	d := 8
	local := incRandSet(rng, "L", 9, d, 0.4)
	f1, err := Train(incRandSet(rng, "F1", 7, d, 0.1), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Train(incRandSet(rng, "F2", 8, d, 0.7), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := AssessConfig{}
	ctx := context.Background()
	want, err := AssessContext(ctx, 0, local, []*Model{f1, f2}, cfg)
	if err != nil {
		t.Fatal(err)
	}

	got, rep, err := AssessDeltaStore(ctx, 0, local, []*Model{f1, f2}, cfg, store, "t")
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, got, want, "cold store round")
	if rep.Rescored != 2*local.Len() || rep.Reused != 0 {
		t.Fatalf("cold store round report %+v", rep)
	}

	got, rep, err = AssessDeltaStore(ctx, 0, local, []*Model{f1, f2}, cfg, store, "t")
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, got, want, "warm store round")
	if rep.Rescored != 0 || rep.Reused != 2*local.Len() {
		t.Fatalf("warm store round report %+v", rep)
	}

	// One peer republishes: only its column re-scores.
	f2b, err := Train(incRandSet(rng, "F2", 10, d, 0.7), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	want, err = AssessContext(ctx, 0, local, []*Model{f1, f2b}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err = AssessDeltaStore(ctx, 0, local, []*Model{f1, f2b}, cfg, store, "t")
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, got, want, "republish store round")
	if rep.Rescored != local.Len() || rep.Reused != local.Len() {
		t.Fatalf("republish round report %+v, want one column re-scored", rep)
	}

	// Local signatures change: everything re-scores.
	local2 := renameElements(local, "_v2")
	local2.Matrix = local.Matrix.Clone()
	local2.Matrix.Set(0, 0, 3.25)
	want2, err := AssessContext(ctx, 0, local2, []*Model{f1, f2b}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err = AssessDeltaStore(ctx, 0, local2, []*Model{f1, f2b}, cfg, store, "t")
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, got, want2, "local-change store round")
	if rep.Reused != 0 {
		t.Fatalf("changed local signatures must not reuse columns: %+v", rep)
	}

	// Nil store degrades to plain AssessContext.
	got, rep, err = AssessDeltaStore(ctx, 0, local, []*Model{f1, f2b}, cfg, nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, got, want, "nil-store round")
	if rep.Reused != 0 || rep.Rescored != 2*local.Len() {
		t.Fatalf("nil-store round report %+v", rep)
	}
	if _, _, err := AssessDeltaStore(ctx, 0, &embed.SignatureSet{Matrix: linalg.NewDense(1, d)}, []*Model{f1}, cfg, store, "t"); err == nil {
		t.Fatal("empty local set accepted")
	}
}
