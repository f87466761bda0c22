package core

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// TestScoperIncrementalMatchesFromScratch pins the rows-path exactness
// claim: in the n < d regime every incremental mutation refits via the
// from-scratch code path, so a mutated Scoper scopes bit-identically to a
// fresh Scoper built over the same final sets.
func TestScoperIncrementalMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := 16
	sets := []*embed.SignatureSet{
		incRandSet(rng, "S0", 9, d, 0.4),
		incRandSet(rng, "S1", 11, d, 0.1),
		incRandSet(rng, "S2", 8, d, 0.7),
	}
	s, err := NewScoper(sets)
	if err != nil {
		t.Fatal(err)
	}

	// Add three elements to S0.
	add := renameElements(incRandSet(rng, "S0", 3, d, 0.4), "_new")
	if err := s.AddElements(0, add); err != nil {
		t.Fatal(err)
	}
	if got := s.version[0]; got != 2 {
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
	if got := s.version[1]; got != 2 {
		t.Fatalf("version after RemoveElements: %d, want 2", got)
	}

	fresh, err := NewScoper(s.sets)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.6, 0.9} {
		mi, err := s.Models(v)
		if err != nil {
			t.Fatal(err)
		}
		mf, err := fresh.Models(v)
		if err != nil {
			t.Fatal(err)
		}
		for k := range mi {
			if mi[k].Range != mf[k].Range || mi[k].Components() != mf[k].Components() {
				t.Fatalf("v=%v schema %d: incremental model (range %v, %d comps) differs from from-scratch (range %v, %d comps)",
					v, k, mi[k].Range, mi[k].Components(), mf[k].Range, mf[k].Components())
			}
		}
		ki, err := s.Scope(v)
		if err != nil {
			t.Fatal(err)
		}
		kf, err := fresh.Scope(v)
		if err != nil {
			t.Fatal(err)
		}
		sameVerdicts(t, ki, kf, "incremental vs from-scratch scope")
	}
}

// TestScoperIncrementalStatsPath exercises the rows ≥ dims regime, where
// refits run from the maintained sufficient statistics: models must agree
// with a from-scratch Scoper within linalg.StatsFitTolerance and verdicts
// must coincide.
func TestScoperIncrementalStatsPath(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := 6
	sets := []*embed.SignatureSet{
		incRandSet(rng, "S0", 20, d, 0.4),
		incRandSet(rng, "S1", 18, d, 0.2),
	}
	s, err := NewScoper(sets)
	if err != nil {
		t.Fatal(err)
	}
	add := renameElements(incRandSet(rng, "S0", 5, d, 0.4), "_new")
	if err := s.AddElements(0, add); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveElements(1, sets[1].IDs[3], sets[1].IDs[7], sets[1].IDs[11]); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewScoper(s.sets)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := s.Models(0.85)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := fresh.Models(0.85)
	if err != nil {
		t.Fatal(err)
	}
	for k := range mi {
		if mi[k].Components() != mf[k].Components() {
			t.Fatalf("schema %d: stats path retained %d components, from-scratch %d", k, mi[k].Components(), mf[k].Components())
		}
		diff := math.Abs(mi[k].Range - mf[k].Range)
		if diff > linalg.StatsFitTolerance*math.Max(mi[k].Range, mf[k].Range)+linalg.StatsFitTolerance {
			t.Fatalf("schema %d: stats-path range %v vs from-scratch %v", k, mi[k].Range, mf[k].Range)
		}
	}
	ki, err := s.Scope(0.85)
	if err != nil {
		t.Fatal(err)
	}
	kf, err := fresh.Scope(0.85)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, ki, kf, "stats-path vs from-scratch scope")
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
	s, err := NewScoper(sets)
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
	if err := s.RemoveElements(2, s.sets[2].IDs[1], s.sets[2].IDs[5]); err != nil {
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
	s, err := NewScoper(sets)
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
	if err := s.RemoveElements(0, s.sets[0].IDs...); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("emptying removal: %v", err)
	}
	if s.version[0] != 1 || s.version[1] != 1 {
		t.Fatal("failed mutations must not bump versions")
	}
	// A rejected refit (non-finite added rows) rolls the scoper back.
	bad := renameElements(incRandSet(rng, "S0", 2, d, 0.4), "_bad")
	bad.Matrix.Set(0, 0, math.NaN())
	before, err := s.Scope(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddElements(0, bad); err == nil {
		t.Fatal("non-finite add accepted")
	}
	after, err := s.Scope(0.9)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, after, before, "scope after rejected add")
	inf := renameElements(incRandSet(rng, "S0", 1, d, 0.4), "_inf")
	inf.Matrix.Set(0, 3, math.Inf(1))
	if err := s.AddElements(0, inf); err == nil {
		t.Fatal("infinite add accepted")
	}
	// The rejected adds must leave the sufficient statistics clean: the
	// next valid add takes S0 to n ≥ d, refits from the statistics, and
	// scopes like a fresh Scoper over the same sets.
	if err := s.AddElements(0, renameElements(incRandSet(rng, "S0", 3, d, 0.4), "_ok")); err != nil {
		t.Fatalf("valid add after rejected ones: %v", err)
	}
	fresh, err := NewScoper(s.Sets())
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Scope(0.9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Scope(0.9)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdicts(t, got, want, "scope after a valid add following rejected ones")

	// A finite but huge row passes every finiteness check, yet its square
	// overflows the sufficient statistics to +Inf, and downdating it again
	// leaves Inf−Inf = NaN. Neither may wedge the scoper: after every step
	// it scopes like a fresh Scoper over the same sets, with the same
	// verdicts or the same error (at n < d the huge row's own
	// reconstruction error overflows, so both refuse the degenerate model).
	seeded := func() *Scoper {
		rng := rand.New(rand.NewSource(31))
		s, err := NewScoper([]*embed.SignatureSet{
			incRandSet(rng, "S0", 6, d, 0.4),
			incRandSet(rng, "S1", 5, d, 0.1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	scopesLikeFresh := func(s *Scoper, what string) {
		t.Helper()
		fresh, err := NewScoper(s.Sets())
		if err != nil {
			t.Fatalf("%s: fresh scoper: %v", what, err)
		}
		got, err := s.Scope(0.9)
		want, werr := fresh.Scope(0.9)
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
	huge := hugeRow("S0", d)
	mutate := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	// Add the huge row (n < d: rows path), remove it, then add valid rows
	// until n ≥ d takes the statistics path.
	s = seeded()
	mutate("add huge row", s.AddElements(0, huge))
	scopesLikeFresh(s, "huge row added")
	mutate("remove huge row", s.RemoveElements(0, huge.IDs...))
	scopesLikeFresh(s, "huge row removed")
	mutate("add after the huge row left", s.AddElements(0, renameElements(incRandSet(rng, "S0", 3, d, 0.4), "_a")))
	scopesLikeFresh(s, "valid rows added after the huge row left")
	mutate("second add after the huge row left", s.AddElements(0, renameElements(incRandSet(rng, "S0", 2, d, 0.4), "_b")))
	scopesLikeFresh(s, "more valid rows added after the huge row left")

	// Keep the huge row while valid rows take the schema to n ≥ d, then
	// remove it.
	s = seeded()
	mutate("add huge row", s.AddElements(0, huge))
	mutate("add beside the huge row", s.AddElements(0, renameElements(incRandSet(rng, "S0", 3, d, 0.4), "_c")))
	scopesLikeFresh(s, "valid rows added beside the huge row")
	mutate("remove huge row at n ≥ d", s.RemoveElements(0, huge.IDs...))
	scopesLikeFresh(s, "huge row removed at n ≥ d")
	mutate("add after the huge row left", s.AddElements(0, renameElements(incRandSet(rng, "S0", 2, d, 0.4), "_d")))
	scopesLikeFresh(s, "valid rows added after the huge row left at n ≥ d")
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

// TestModelStateHugeRow pins ModelState against a finite but huge row at
// n ≥ d: Model must succeed wherever Train over the same rows does, and
// once Apply has dropped the row the state must train and save again.
func TestModelStateHugeRow(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d := 8
	valid := incRandSet(rng, "S", 9, d, 0.2)
	withHuge := appendSet(valid, hugeRow("S", d))
	st, err := NewModelState(withHuge)
	if err != nil {
		t.Fatal(err)
	}
	trainedLike := func(set *embed.SignatureSet, what string) *Model {
		t.Helper()
		want, err := Train(set, 0.9)
		if err != nil {
			t.Fatalf("%s: Train: %v", what, err)
		}
		m, err := st.Model(0.9)
		if err != nil {
			t.Fatalf("%s: Model fails where Train succeeds: %v", what, err)
		}
		if diff := math.Abs(m.Range - want.Range); diff > linalg.StatsFitTolerance*math.Max(m.Range, want.Range)+linalg.StatsFitTolerance {
			t.Fatalf("%s: range %v, Train's %v", what, m.Range, want.Range)
		}
		return m
	}
	trainedLike(withHuge, "huge row present")

	if _, err := st.Apply(valid); err != nil {
		t.Fatal(err)
	}
	m := trainedLike(valid, "huge row dropped")
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(store); err != nil {
		t.Fatalf("save after the huge row left: %v", err)
	}
	re, ok, err := LoadModelState(store, "S")
	if err != nil || !ok {
		t.Fatalf("reload: ok=%v err=%v", ok, err)
	}
	rm, err := re.Model(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Range != m.Range {
		t.Fatalf("reloaded model range %v, want %v", rm.Range, m.Range)
	}
}

// TestModelStateApplyAndPersist drives a ModelState through a schema
// evolution and a save/load cycle: the reloaded state must be bit-identical
// — same rows, same accumulator bits — and its trained model must equal the
// from-scratch model (rows path, n < d).
func TestModelStateApplyAndPersist(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	d := 9
	base := incRandSet(rng, "S", 7, d, 0.4)
	st, err := NewModelState(base)
	if err != nil {
		t.Fatal(err)
	}
	if st.Schema() != "S" || st.Len() != 7 || st.Dim() != d || st.Version() != 1 {
		t.Fatalf("fresh state: schema=%q len=%d dim=%d version=%d", st.Schema(), st.Len(), st.Dim(), st.Version())
	}

	// No-op apply: same set, no version bump.
	delta, err := st.Apply(base)
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

	delta, err = st.Apply(evolved)
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

	// Rows path: the trained model is bit-identical to from-scratch Train.
	m, err := st.Model(0.9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Train(evolved, 0.9)
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
		t.Fatalf("incremental model fingerprint %s differs from from-scratch %s", mf, wf)
	}

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
	if re.Version() != st.Version() || !reflect.DeepEqual(re.IDs(), st.IDs()) {
		t.Fatal("reloaded state differs in version or membership")
	}
	for k := 0; k < st.Len(); k++ {
		a, b := st.rows.RowView(k), re.rows.RowView(k)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("reloaded row %d differs at %d", k, j)
			}
		}
	}
	if re.stats.N != st.stats.N {
		t.Fatalf("reloaded stats N=%d, want %d", re.stats.N, st.stats.N)
	}
	for j := range st.stats.Sum {
		if re.stats.Sum[j] != st.stats.Sum[j] {
			t.Fatalf("reloaded stats sum differs at %d", j)
		}
	}
	for j := 0; j < d; j++ {
		a, b := st.stats.Scatter.RowView(j), re.stats.Scatter.RowView(j)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("reloaded scatter differs at (%d,%d)", j, k)
			}
		}
	}
	// Both states apply the same further evolution identically.
	next := renameElements(incRandSet(rng, "S", 3, d, 0.4), "_v3")
	joined := appendSet(evolved, next)
	joined.Matrix.Set(1, 0, 42.5)
	if _, err := st.Apply(joined); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Apply(joined); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < d; j++ {
		a, b := st.stats.Scatter.RowView(j), re.stats.Scatter.RowView(j)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("post-resume evolution diverged at scatter (%d,%d)", j, k)
			}
		}
	}

	// Missing schema is a clean miss.
	if _, ok, err := LoadModelState(store, "ABSENT"); ok || err != nil {
		t.Fatalf("absent state: ok=%v err=%v", ok, err)
	}
}

// TestModelStateErrors covers Apply validation.
func TestModelStateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	st, err := NewModelState(incRandSet(rng, "S", 5, 6, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(incRandSet(rng, "OTHER", 3, 6, 0)); err == nil || !strings.Contains(err.Error(), "OTHER") {
		t.Fatalf("cross-schema apply: %v", err)
	}
	if _, err := st.Apply(incRandSet(rng, "S", 3, 7, 0)); err == nil || !strings.Contains(err.Error(), "dimensional") {
		t.Fatalf("dimension change: %v", err)
	}
	if _, err := st.Apply(&embed.SignatureSet{Matrix: linalg.NewDense(1, 6)}); err == nil {
		t.Fatal("empty apply accepted")
	}
	dupIDs := incRandSet(rng, "S", 2, 6, 0)
	dupIDs.IDs[1] = dupIDs.IDs[0]
	if _, err := st.Apply(dupIDs); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate apply: %v", err)
	}
	if _, err := NewModelState(dupIDs); err == nil {
		t.Fatal("duplicate init accepted")
	}
	if _, err := st.Model(0); err == nil {
		t.Fatal("v=0 accepted")
	}
}

// TestCorruptStateCellQuarantined pins the crash-safety posture of
// persisted sufficient statistics: a corrupted cell is a miss (the caller
// re-initialises from a full fit), and the damaged file is quarantined for
// forensics rather than trusted or deleted.
func TestCorruptStateCellQuarantined(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewModelState(incRandSet(rng, "S", 6, 5, 0.3))
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
	mangled := []byte(strings.Replace(string(b), `"stats_n":6`, `"stats_n":9`, 1))
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
