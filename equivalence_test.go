package collabscope

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"collabscope/internal/checkpoint"
	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/exchange"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// TestAssessmentPathsAgree is the differential gate over every way this
// repository runs Algorithm 2. Each seed draws 3–6 schemas of 2–40 rows in
// d ∈ {8, 16, 48} dimensions, then churns twin Scopers over them, at 1 and
// at 4 workers, with the same random AddElements and RemoveElements calls.
// After every step the twins' model ranges, AssessDelta verdicts and
// DeltaReports must be equal bit for bit, and these must agree:
//
//   - ScopeContext on the churned Scoper and on fresh Scopers at 1..4 workers;
//   - per-schema core.Train + AssessContext at 1..4 workers;
//   - AssessDelta on the churned Scoper;
//   - AssessDeltaStore over one checkpoint store, cold and then warm;
//   - one ModelState per schema, made at the first step and applied the
//     schema after each churn, then saved to and reloaded from that store:
//     its Model at 1 and at 4 workers equals the Scoper's in range bits and
//     component count, and its version counts the applies that changed it;
//   - POST /v1/assess on a server holding the Scoper's models: cold, warm,
//     and after republishing only the churned schema.
//
// Every schema keeps fewer rows than dimensions, so each refit takes the
// rows path, which is bit-identical to a from-scratch fit.
func TestAssessmentPathsAgree(t *testing.T) {
	ctx := context.Background()
	var linkable, unlinkable int
	for seed := int64(1); seed <= 24; seed++ {
		g := newPathGen(seed)
		sets := g.schemas()
		cfg := core.AssessConfig{}
		if g.rng.Intn(4) == 0 {
			cfg.Mode = core.AllModels
		}
		if g.rng.Intn(3) == 0 {
			cfg.RelaxEpsilon = 0.25
		}
		v := []float64{0.5, 0.7, 0.9, 0.99}[g.rng.Intn(4)]
		what := func(step int) string {
			return fmt.Sprintf("seed %d (d=%d, %d schemas, v=%v, cfg %+v) step %d", seed, g.d, len(sets), v, cfg, step)
		}

		s, err := core.NewScoperContext(ctx, 1, sets, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what(0), err)
		}
		twin, err := core.NewScoperContext(ctx, 4, sets, cfg)
		if err != nil {
			t.Fatalf("%s: %v", what(0), err)
		}
		store, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		svc := newAssessService(t)
		states := make([]*core.ModelState, len(sets))
		churned := -1
		for step := 0; step <= 3; step++ {
			if step > 0 {
				churned = g.churn(t, s, twin)
			}
			ref, err := s.ScopeContext(ctx, v)
			if err != nil {
				t.Fatalf("%s: %v", what(step), err)
			}
			for _, ok := range ref {
				if ok {
					linkable++
				} else {
					unlinkable++
				}
			}
			models, err := s.ModelsContext(ctx, v)
			if err != nil {
				t.Fatalf("%s: %v", what(step), err)
			}
			checkScoperWorkers(t, ctx, s.Sets(), cfg, v, ref, what(step))
			trained := trainAll(t, s.Sets(), v, models, what(step))
			checkTrainAssess(t, ctx, s.Sets(), trained, cfg, ref, what(step))

			keep, rep, err := s.AssessDelta(ctx, v)
			if err != nil {
				t.Fatalf("%s: AssessDelta: %v", what(step), err)
			}
			sameVerdicts(t, keep, ref, what(step)+": AssessDelta")
			if rep.Rescored+rep.Reused != s.PassOperations() {
				t.Fatalf("%s: AssessDelta report %+v does not partition %d passes", what(step), rep, s.PassOperations())
			}
			checkTwin(t, ctx, twin, v, models, keep, rep, what(step))

			checkDeltaStore(t, ctx, store, s.Sets(), trained, cfg, ref, step == 0, what(step))
			checkModelStates(t, store, states, s.Sets(), churned, v, models, what(step))
			svc.check(t, ctx, s.Sets(), models, churned, cfg, ref, what(step))
		}
	}
	if linkable == 0 || unlinkable == 0 {
		t.Fatalf("vacuous generator: %d linkable and %d unlinkable verdicts", linkable, unlinkable)
	}
}

// TestDefinition4Metamorphic checks three properties of Definition 4's
// verdicts on pathGen's seeded schemas, at the seed's v:
//
//   - permuting the schema order passed to NewScoper changes no verdict;
//   - in the default AnyModel mode, where one accepting foreign model makes
//     an element linkable, adding one more schema only adds linkable
//     verdicts to the others (not asserted for AllModels, where the new
//     model must accept too, so a verdict can be lost);
//   - raising RelaxEpsilon from 0 to 0.25 never removes a linkable verdict.
func TestDefinition4Metamorphic(t *testing.T) {
	ctx := context.Background()
	var grown, relaxed int
	for seed := int64(1); seed <= 24; seed++ {
		g := newPathGen(seed)
		sets := g.schemas()
		mode := []core.AcceptanceMode{core.AnyModel, core.AllModels}[g.rng.Intn(2)]
		v := []float64{0.5, 0.7, 0.9, 0.99}[g.rng.Intn(4)]
		what := fmt.Sprintf("seed %d (d=%d, %d schemas, v=%v, AllModels %v)", seed, g.d, len(sets), v, mode == core.AllModels)
		scope := func(sets []*embed.SignatureSet, cfg core.AssessConfig) map[schema.ElementID]bool {
			t.Helper()
			s, err := core.NewScoperContext(ctx, 1, sets, cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			keep, err := s.ScopeContext(ctx, v)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			return keep
		}
		// onlyGains fails if an element of before lost its linkable verdict
		// in after, and returns how many gained one.
		onlyGains := func(before, after map[schema.ElementID]bool, how string) int {
			t.Helper()
			gained := 0
			for id, was := range before {
				now, ok := after[id]
				switch {
				case !ok:
					t.Fatalf("%s: %s: verdict for %s missing", what, how, id)
				case was && !now:
					t.Fatalf("%s: %s: %s lost its linkable verdict", what, how, id)
				case !was && now:
					gained++
				}
			}
			return gained
		}

		cfg := core.AssessConfig{Mode: mode}
		ref := scope(sets, cfg)
		permuted := make([]*embed.SignatureSet, len(sets))
		for i, k := range g.rng.Perm(len(sets)) {
			permuted[i] = sets[k]
		}
		sameVerdicts(t, scope(permuted, cfg), ref, what+": permuted schema order")

		relaxed += onlyGains(ref, scope(sets, core.AssessConfig{Mode: mode, RelaxEpsilon: 0.25}), "RelaxEpsilon 0.25")

		if mode == core.AnyModel {
			extra := g.rows(fmt.Sprintf("S%d", len(sets)), 2+g.rng.Intn(g.maxRows()-1))
			grown += onlyGains(ref, scope(append(sets[:len(sets):len(sets)], extra), cfg), "one schema added")
		}
	}
	if grown == 0 || relaxed == 0 {
		t.Fatalf("vacuous generator: %d verdicts gained from an added schema, %d from relaxation", grown, relaxed)
	}
}

// pathGen draws the seeded schemas and churn of one differential scenario.
// Rows mix a low-rank subspace shared by every schema (elements another
// schema's model can reconstruct) with schema-private noise (elements no
// foreign model explains), so both verdicts occur. One row in five copies
// an earlier row, as two schemas' identical columns would: when the copy's
// source is the row that set a foreign model's range, the copy's error
// equals that range exactly, and any path that computed the column
// differently would flip its verdict.
type pathGen struct {
	rng    *rand.Rand
	d      int
	shared *linalg.Dense
	drawn  [][]float64
	next   int
}

func newPathGen(seed int64) *pathGen {
	rng := rand.New(rand.NewSource(seed))
	g := &pathGen{rng: rng, d: []int{8, 16, 48}[rng.Intn(3)]}
	g.shared = linalg.NewDense(3, g.d)
	for i := 0; i < 3; i++ {
		for j, row := 0, g.shared.RowView(i); j < g.d; j++ {
			row[j] = rng.NormFloat64()
		}
	}
	return g
}

// maxRows keeps every schema below d rows, the rows-path regime.
func (g *pathGen) maxRows() int { return min(40, g.d-1) }

func (g *pathGen) schemas() []*embed.SignatureSet {
	sets := make([]*embed.SignatureSet, 3+g.rng.Intn(4))
	for i := range sets {
		sets[i] = g.rows(fmt.Sprintf("S%d", i), 2+g.rng.Intn(g.maxRows()-1))
	}
	return sets
}

// rows draws n fresh elements of one schema.
func (g *pathGen) rows(name string, n int) *embed.SignatureSet {
	set := &embed.SignatureSet{IDs: make([]schema.ElementID, n), Matrix: linalg.NewDense(n, g.d)}
	for k := 0; k < n; k++ {
		g.next++
		set.IDs[k] = schema.AttributeID(name, "T", fmt.Sprintf("a%d", g.next))
		row := set.Matrix.RowView(k)
		g.drawn = append(g.drawn, row)
		switch {
		case len(g.drawn) > 1 && g.rng.Intn(5) == 0:
			copy(row, g.drawn[g.rng.Intn(len(g.drawn)-1)])
		case g.rng.Intn(2) == 0:
			for r := 0; r < 3; r++ {
				z := g.rng.NormFloat64()
				for j, b := range g.shared.RowView(r) {
					row[j] += z * b
				}
			}
			for j := range row {
				row[j] += 0.05 * g.rng.NormFloat64()
			}
		default:
			for j := range row {
				row[j] = g.rng.NormFloat64()
			}
		}
	}
	return set
}

// churn applies one random AddElements or RemoveElements, the same to
// every Scoper (all over the same sets), and returns the index of the
// schema it changed.
func (g *pathGen) churn(t *testing.T, scopers ...*core.Scoper) int {
	t.Helper()
	sets := scopers[0].Sets()
	for {
		i := g.rng.Intn(len(sets))
		set := sets[i]
		name := set.IDs[0].Schema
		n := set.Len()
		if g.rng.Intn(2) == 0 && n < g.maxRows() {
			add := g.rows(name, 1+g.rng.Intn(g.maxRows()-n))
			for _, s := range scopers {
				if err := s.AddElements(i, add); err != nil {
					t.Fatalf("AddElements(%d): %v", i, err)
				}
			}
			return i
		}
		if n > 2 {
			drop := make([]schema.ElementID, 0, n)
			for _, k := range g.rng.Perm(n)[:1+g.rng.Intn(n-2)] {
				drop = append(drop, set.IDs[k])
			}
			for _, s := range scopers {
				if err := s.RemoveElements(i, drop...); err != nil {
					t.Fatalf("RemoveElements(%d): %v", i, err)
				}
			}
			return i
		}
	}
}

// checkTwin requires the 4-worker twin of the churned Scoper to hold the
// same model ranges bit for bit and to delta-assess to the same verdicts
// and report.
func checkTwin(t *testing.T, ctx context.Context, twin *core.Scoper, v float64, models []*core.Model, keep map[schema.ElementID]bool, rep core.DeltaReport, what string) {
	t.Helper()
	twinModels, err := twin.ModelsContext(ctx, v)
	if err != nil {
		t.Fatalf("%s: twin at 4 workers: %v", what, err)
	}
	for k, m := range twinModels {
		if math.Float64bits(m.Range) != math.Float64bits(models[k].Range) {
			t.Fatalf("%s: twin at 4 workers: schema %d range %v, want %v", what, k, m.Range, models[k].Range)
		}
	}
	twinKeep, twinRep, err := twin.AssessDelta(ctx, v)
	if err != nil {
		t.Fatalf("%s: twin at 4 workers: AssessDelta: %v", what, err)
	}
	sameVerdicts(t, twinKeep, keep, what+": twin AssessDelta at 4 workers")
	if twinRep != rep {
		t.Fatalf("%s: twin at 4 workers: AssessDelta report %+v, want %+v", what, twinRep, rep)
	}
}

func sameVerdicts(t *testing.T, got, want map[schema.ElementID]bool, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d verdicts, want %d", what, len(got), len(want))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			t.Fatalf("%s: verdict for %s is %v (present %v), want %v", what, id, g, ok, w)
		}
	}
}

// checkScoperWorkers scopes fresh Scopers over the same sets at 1..4
// workers.
func checkScoperWorkers(t *testing.T, ctx context.Context, sets []*embed.SignatureSet, cfg core.AssessConfig, v float64, ref map[schema.ElementID]bool, what string) {
	t.Helper()
	for w := 1; w <= 4; w++ {
		fresh, err := core.NewScoperContext(ctx, w, sets, cfg)
		if err != nil {
			t.Fatalf("%s: fresh Scoper at %d workers: %v", what, w, err)
		}
		keep, err := fresh.ScopeContext(ctx, v)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sameVerdicts(t, keep, ref, fmt.Sprintf("%s: fresh ScopeContext at %d workers", what, w))
	}
}

// trainAll runs core.Train on every schema; each model must equal the
// Scoper's model of the same schema bit for bit.
func trainAll(t *testing.T, sets []*embed.SignatureSet, v float64, scoped []*core.Model, what string) []*core.Model {
	t.Helper()
	models := make([]*core.Model, len(sets))
	for i, set := range sets {
		m, err := core.Train(set, v)
		if err != nil {
			t.Fatalf("%s: Train(%d): %v", what, i, err)
		}
		if math.Float64bits(m.Range) != math.Float64bits(scoped[i].Range) || m.Components() != scoped[i].Components() {
			t.Fatalf("%s: Train(%d) range %v with %d components, Scoper model %v with %d", what, i,
				m.Range, m.Components(), scoped[i].Range, scoped[i].Components())
		}
		models[i] = m
	}
	return models
}

// checkTrainAssess runs Algorithm 2 directly: AssessContext of each schema
// against the other schemas' trained models, at 1..4 workers.
func checkTrainAssess(t *testing.T, ctx context.Context, sets []*embed.SignatureSet, models []*core.Model, cfg core.AssessConfig, ref map[schema.ElementID]bool, what string) {
	t.Helper()
	for w := 1; w <= 4; w++ {
		got := map[schema.ElementID]bool{}
		for i, set := range sets {
			verdict, err := core.AssessContext(ctx, w, set, foreignOf(models, i), cfg)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			for id, ok := range verdict {
				got[id] = ok
			}
		}
		sameVerdicts(t, got, ref, fmt.Sprintf("%s: Train + AssessContext at %d workers", what, w))
	}
}

func foreignOf(models []*core.Model, i int) []*core.Model {
	out := make([]*core.Model, 0, len(models)-1)
	for j, m := range models {
		if j != i {
			out = append(out, m)
		}
	}
	return out
}

// checkModelStates brings one ModelState per schema up to date with sets:
// NewModelState while states[i] is nil, Apply otherwise, which must change
// only the churned schema (none when churned < 0). Each state is then saved
// to store and loaded back twice, and the loaded state replaces it. Each
// reload's Model, one at 1 worker and one at 4, must equal the Scoper's
// model in range bits and component count, as trainAll checks, and its
// version must be 1 plus the applies that changed the schema so far.
func checkModelStates(t *testing.T, store core.CellStore, states []*core.ModelState, sets []*embed.SignatureSet, churned int, v float64, scoped []*core.Model, what string) {
	t.Helper()
	for i, set := range sets {
		st, name := states[i], set.IDs[0].Schema
		want := int64(1)
		if st == nil {
			var err error
			if st, err = core.NewModelState(1, set); err != nil {
				t.Fatalf("%s: NewModelState(%d): %v", what, i, err)
			}
		} else {
			want = st.Version()
			delta, err := st.Apply(1, set)
			if err != nil {
				t.Fatalf("%s: Apply(%d): %v", what, i, err)
			}
			if delta.Empty() == (i == churned) {
				t.Fatalf("%s: Apply(%d) delta %v, schema %d churned", what, i, delta, churned)
			}
			if i == churned {
				want++
			}
		}
		if err := st.Save(store); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for _, workers := range []int{1, 4} {
			re, ok, err := core.LoadModelState(store, name)
			if err != nil || !ok {
				t.Fatalf("%s: LoadModelState(%q): ok=%v err=%v", what, name, ok, err)
			}
			if re.Version() != want {
				t.Fatalf("%s: reloaded state of schema %d at version %d, want %d", what, i, re.Version(), want)
			}
			m, err := re.Model(workers, v)
			if err != nil {
				t.Fatalf("%s: reloaded state of schema %d at %d workers: %v", what, i, workers, err)
			}
			if math.Float64bits(m.Range) != math.Float64bits(scoped[i].Range) || m.Components() != scoped[i].Components() {
				t.Fatalf("%s: reloaded state of schema %d at %d workers: range %v with %d components, Scoper model %v with %d",
					what, i, workers, m.Range, m.Components(), scoped[i].Range, scoped[i].Components())
			}
			states[i] = re
		}
	}
}

// checkDeltaStore assesses every schema through AssessDeltaStore twice over
// the seed's one store: the first pass reuses only columns whose model and
// signatures are unchanged (none at step 0), the second reuses everything.
func checkDeltaStore(t *testing.T, ctx context.Context, store core.CellStore, sets []*embed.SignatureSet, models []*core.Model, cfg core.AssessConfig, ref map[schema.ElementID]bool, cold bool, what string) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		got := map[schema.ElementID]bool{}
		for i, set := range sets {
			verdict, rep, err := core.AssessDeltaStore(ctx, 2, set, foreignOf(models, i), cfg, store, "paths")
			if err != nil {
				t.Fatalf("%s: AssessDeltaStore: %v", what, err)
			}
			if pass == 0 && cold && rep.Reused != 0 {
				t.Fatalf("%s: cold store reused %d scores", what, rep.Reused)
			}
			if pass == 1 && rep.Rescored != 0 {
				t.Fatalf("%s: warm store rescored %d scores", what, rep.Rescored)
			}
			for id, ok := range verdict {
				got[id] = ok
			}
		}
		sameVerdicts(t, got, ref, fmt.Sprintf("%s: AssessDeltaStore pass %d", what, pass))
	}
}

// assessService is one seed's scoping service: an httptest server with its
// own metrics registry and a client.
type assessService struct {
	srv    *exchange.Server
	url    string
	client *exchange.Client
	reg    *obs.Registry
}

func newAssessService(t *testing.T) *assessService {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := exchange.NewServer(exchange.WithServerMetrics(reg), exchange.WithServerWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &assessService{srv: srv, url: ts.URL, client: exchange.NewClient(), reg: reg}
}

// check publishes the models — all of them at step 0 (churned < 0), only
// the churned schema's afterwards — and assesses every schema twice over
// HTTP. Each round after the first must reuse cached columns.
func (a *assessService) check(t *testing.T, ctx context.Context, sets []*embed.SignatureSet, models []*core.Model, churned int, cfg core.AssessConfig, ref map[schema.ElementID]bool, what string) {
	t.Helper()
	for i, m := range models {
		if churned < 0 || i == churned {
			if _, err := a.srv.PublishTenant("paths", m); err != nil {
				t.Fatal(err)
			}
		}
	}
	mode := "any"
	if cfg.Mode == core.AllModels {
		mode = "all"
	}
	for round := 0; round < 2; round++ {
		before := a.reg.Snapshot().Counters["service.delta.reused"]
		for i, set := range sets {
			req := &exchange.AssessRequest{Schema: set.IDs[0].Schema, Mode: mode, RelaxEpsilon: cfg.RelaxEpsilon}
			for k, id := range set.IDs {
				req.IDs = append(req.IDs, id.String())
				req.Signatures = append(req.Signatures, set.Matrix.RowView(k))
			}
			resp, err := a.client.Assess(ctx, a.url, "paths", req)
			if err != nil {
				t.Fatalf("%s: /v1/assess round %d: %v", what, round, err)
			}
			if len(resp.Used) != len(sets)-1 || len(resp.Verdicts) != set.Len() {
				t.Fatalf("%s: schema %d used %d models for %d verdicts", what, i, len(resp.Used), len(resp.Verdicts))
			}
			for k, vd := range resp.Verdicts {
				if vd.Element != req.IDs[k] || vd.Linkable != ref[set.IDs[k]] {
					t.Fatalf("%s: /v1/assess round %d: %s linkable=%v, want %v", what, round, vd.Element, vd.Linkable, ref[set.IDs[k]])
				}
			}
		}
		reused := a.reg.Snapshot().Counters["service.delta.reused"]
		if (round > 0 || churned >= 0) && reused <= before {
			t.Fatalf("%s: /v1/assess round %d reused no cached column (service.delta.reused %d)", what, round, reused)
		}
	}
}
