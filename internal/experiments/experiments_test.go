package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"collabscope/internal/datasets"
	"collabscope/internal/match"
	"collabscope/internal/metrics"
)

// The tests in this file pin the paper's qualitative claims (Section 4.3)
// on the reproduced pipeline, at FastConfig scale. The four claim tests
// also pin every number they compute: the inequalities say what the paper
// claims, and the golden digests say the reproduction still computes the
// same Table 4, Figure 5-7 and Section 4.4 numbers, bit for bit.

// numbers hashes, with SHA-256, the little-endian float64 bits of a test's
// computed numbers in the order they are added. Counts enter as float64.
type numbers struct{ h hash.Hash }

func newNumbers() *numbers { return &numbers{h: sha256.New()} }

func (n *numbers) add(vs ...float64) {
	for _, v := range vs {
		n.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}

func (n *numbers) summary(s metrics.SweepSummary) { n.add(s.AUCF1, s.AUCROC, s.AUCROCp, s.AUCPR) }

func (n *numbers) sweep(entries []metrics.SweepEntry) {
	for _, e := range entries {
		c := e.Confusion
		n.add(e.Param, float64(c.TP), float64(c.FP), float64(c.TN), float64(c.FN))
	}
}

func (n *numbers) points(ps []metrics.Point) {
	for _, p := range ps {
		n.add(p.X, p.Y)
	}
}

func (n *numbers) curves(c CurveSet) {
	n.sweep(c.Sweep)
	n.points(c.ROC)
	n.points(c.PR)
	n.points(c.ROCSmoothed)
}

func (n *numbers) eval(e match.Eval) {
	n.add(e.PQ, e.PC, e.F1, e.RR, float64(e.Generated), float64(e.Correct))
}

func (n *numbers) discussion(d Discussion) {
	n.add(float64(d.PassOperations), float64(d.CartesianSize), d.PassOverCartPct,
		float64(d.PrunedAtMinV), d.PrunedAtMinVPct, float64(d.FalselyPrunedMin))
}

// check compares the digest with the one taken before the change under
// test. Like TestSealedWireGoldens it runs on amd64 only: elsewhere Go may
// fuse multiply-adds and move the last bits.
func (n *numbers) check(t *testing.T, want string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Log("numbers golden skipped: pinned on amd64")
		return
	}
	if got := hex.EncodeToString(n.h.Sum(nil)); got != want {
		t.Errorf("computed numbers digest %s, want %s", got, want)
	}
}

func encodeBoth(t *testing.T) (Config, *Encoded, *Encoded) {
	t.Helper()
	cfg := FastConfig()
	return cfg, Encode(cfg, datasets.OC3()), Encode(cfg, datasets.OC3FO())
}

func TestVarianceGrid(t *testing.T) {
	g := VarianceGrid(0.1)
	if g[0] != 1.0 {
		t.Fatalf("grid = %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] >= g[i-1] {
			t.Fatalf("grid not descending: %v", g)
		}
	}
	if g[len(g)-1] != 0.01 {
		t.Fatalf("grid must end at the 0.01 probe: %v", g)
	}
}

func TestTable4Claims(t *testing.T) {
	cfg, oc3, ocfo := encodeBoth(t)

	rowsOC3, err := Table4(cfg, oc3)
	if err != nil {
		t.Fatal(err)
	}
	rowsFO, err := Table4(cfg, ocfo)
	if err != nil {
		t.Fatal(err)
	}
	bestOC3, collabOC3 := BestScoping(rowsOC3)
	bestFO, collabFO := BestScoping(rowsFO)

	// Claim 1 (paper §4, observation 1): collaborative scoping always
	// outperforms scoping — in AUC-F1 and in the primary AUC-PR metric.
	if collabOC3.Summary.AUCF1 <= bestOC3.Summary.AUCF1 {
		t.Errorf("OC3 AUC-F1: collaborative %.3f should beat best scoping %.3f (%s)",
			collabOC3.Summary.AUCF1, bestOC3.Summary.AUCF1, bestOC3.ODA)
	}
	if collabFO.Summary.AUCF1 <= bestFO.Summary.AUCF1 {
		t.Errorf("OC3-FO AUC-F1: collaborative %.3f should beat best scoping %.3f (%s)",
			collabFO.Summary.AUCF1, bestFO.Summary.AUCF1, bestFO.ODA)
	}
	if collabOC3.Summary.AUCPR <= bestOC3.Summary.AUCPR {
		t.Errorf("OC3 AUC-PR: collaborative %.3f should beat best scoping %.3f (%s)",
			collabOC3.Summary.AUCPR, bestOC3.Summary.AUCPR, bestOC3.ODA)
	}
	if collabFO.Summary.AUCPR <= bestFO.Summary.AUCPR {
		t.Errorf("OC3-FO AUC-PR: collaborative %.3f should beat best scoping %.3f (%s)",
			collabFO.Summary.AUCPR, bestFO.Summary.AUCPR, bestFO.ODA)
	}
	if collabFO.Summary.AUCROCp <= bestFO.Summary.AUCROCp {
		t.Errorf("OC3-FO AUC-ROC': collaborative %.3f should beat best scoping %.3f",
			collabFO.Summary.AUCROCp, bestFO.Summary.AUCROCp)
	}

	// Claim 2 (observation 2): traditional scoping degrades sharply from
	// the domain-specific to the heterogeneous scenario, while
	// collaborative scoping remains robust — measured on the primary
	// AUC-PR metric relative to each scenario's label imbalance.
	scopingDrop := bestOC3.Summary.AUCPR - bestFO.Summary.AUCPR
	collabDrop := collabOC3.Summary.AUCPR - collabFO.Summary.AUCPR
	if scopingDrop <= collabDrop {
		t.Errorf("scoping should degrade more than collaborative: scoping drop %.3f vs collaborative drop %.3f",
			scopingDrop, collabDrop)
	}

	// PCA-based scoping beats the Z-score and LOF baselines (paper:
	// +13-63 %) on AUC-PR for the heterogeneous scenario.
	byODA := map[string]Table4Row{}
	for _, r := range rowsFO {
		byODA[r.ODA] = r
	}
	pca := byODA["PCA(v=0.50)"].Summary.AUCPR
	if pca <= byODA["Z-Score"].Summary.AUCPR || pca <= byODA["LOF(n=20)"].Summary.AUCPR {
		t.Errorf("OC3-FO: PCA(0.5) AUC-PR %.3f should beat Z-Score %.3f and LOF %.3f",
			pca, byODA["Z-Score"].Summary.AUCPR, byODA["LOF(n=20)"].Summary.AUCPR)
	}

	got := newNumbers()
	for _, r := range append(rowsOC3, rowsFO...) {
		got.summary(r.Summary)
	}
	got.check(t, "99d5997daa85eef5d5c85b5f2c762bb3db60154b13cb1ba84bac3d6b886145d9")
}

func TestDiscussionNumbers(t *testing.T) {
	// The pruning-share comparison needs enough dimensions for distinct
	// domains to stay quasi-orthogonal; 192 is too few, 384 matches the
	// 768-d regime.
	cfg := FastConfig()
	cfg.Dim = 384
	oc3 := Encode(cfg, datasets.OC3())
	ocfo := Encode(cfg, datasets.OC3FO())

	d3, err := Discuss(cfg, oc3)
	if err != nil {
		t.Fatal(err)
	}
	dfo, err := Discuss(cfg, ocfo)
	if err != nil {
		t.Fatal(err)
	}
	// §4.4: encoder-decoder passes are 4.76 % (320) of the OC3 Cartesian
	// size and 3.78 % (861) of OC3-FO — structural numbers that must
	// match the paper exactly.
	if d3.PassOperations != 320 || math.Abs(d3.PassOverCartPct-4.76) > 0.01 {
		t.Errorf("OC3 passes = %d (%.2f %%), want 320 (4.76 %%)", d3.PassOperations, d3.PassOverCartPct)
	}
	if dfo.PassOperations != 861 || math.Abs(dfo.PassOverCartPct-3.78) > 0.01 {
		t.Errorf("OC3-FO passes = %d (%.2f %%), want 861 (3.78 %%)", dfo.PassOperations, dfo.PassOverCartPct)
	}
	// Even the lowest variance value prunes elements, and almost all of
	// them are true negatives.
	if d3.PrunedAtMinV == 0 || dfo.PrunedAtMinV == 0 {
		t.Errorf("v=0.01 should prune elements: OC3 %d, OC3-FO %d", d3.PrunedAtMinV, dfo.PrunedAtMinV)
	}
	if d3.FalselyPrunedMin > 4 || dfo.FalselyPrunedMin > 4 {
		t.Errorf("v=0.01 falsely pruned: OC3 %d, OC3-FO %d, want ≤ 4", d3.FalselyPrunedMin, dfo.FalselyPrunedMin)
	}
	// The heterogeneous scenario prunes a larger share.
	if dfo.PrunedAtMinVPct <= d3.PrunedAtMinVPct {
		t.Errorf("OC3-FO should prune a larger share at v=0.01: %.2f vs %.2f",
			dfo.PrunedAtMinVPct, d3.PrunedAtMinVPct)
	}

	got := newNumbers()
	got.discussion(d3)
	got.discussion(dfo)
	got.check(t, "6e8ccd6211498f420e51a63df13ca5fbea6472b340b375b1cd3deab1f8acd06d")
}

func TestFigure3Histogram(t *testing.T) {
	cfg, _, ocfo := encodeBoth(t)
	bins := Figure3(cfg, ocfo, 12)
	if len(bins) != 12 {
		t.Fatalf("bins = %d", len(bins))
	}
	total := 0
	foTotal := 0
	for _, b := range bins {
		for s, n := range b.CountBySchema {
			total += n
			if s == datasets.NameFormula {
				foTotal += n
			}
		}
	}
	if total != ocfo.Union.Len() {
		t.Fatalf("histogram covers %d of %d signatures", total, ocfo.Union.Len())
	}
	if foTotal != 127 {
		t.Fatalf("Formula One signatures = %d, want 127", foTotal)
	}
}

func TestFigure56Curves(t *testing.T) {
	cfg, oc3, _ := encodeBoth(t)
	sc := ScopingCurves(cfg, oc3, cfg.Detectors()[3]) // PCA(v=0.5), the paper's best
	if len(sc.Sweep) != cfg.PSteps+1 {
		t.Fatalf("scoping sweep = %d entries", len(sc.Sweep))
	}
	// Scoping recall is monotone in p; it reaches 1 at p=1.
	last := sc.Sweep[len(sc.Sweep)-1].Confusion
	if last.Recall() != 1 {
		t.Fatalf("scoping recall at p=1 = %v", last.Recall())
	}
	cc, err := CollaborativeCurves(cfg, oc3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cc.Sweep) != len(cfg.VGrid) {
		t.Fatalf("collaborative sweep = %d entries", len(cc.Sweep))
	}
	// Collaborative precision at the strictest setting (v=1, first grid
	// entry) exceeds precision at the loosest (v=0.01, last entry) — the
	// fundamental precision/recall trade-off of Figures 5-6 (b).
	first := cc.Sweep[0].Confusion
	loosest := cc.Sweep[len(cc.Sweep)-1].Confusion
	if first.Precision() <= loosest.Precision() {
		t.Errorf("precision at v=1 (%.3f) should exceed precision at v=0.01 (%.3f)",
			first.Precision(), loosest.Precision())
	}
	if first.Recall() >= loosest.Recall() {
		t.Errorf("recall at v=1 (%.3f) should trail recall at v=0.01 (%.3f)",
			first.Recall(), loosest.Recall())
	}
	// The collaborative FPR never reaches 100 % (the paper's favourable
	// truncated-ROC property).
	for _, e := range cc.Sweep {
		if e.Confusion.FPR() >= 1 {
			t.Fatalf("collaborative FPR reached 100%% at v=%v", e.Param)
		}
	}

	got := newNumbers()
	got.curves(sc)
	got.curves(cc)
	got.check(t, "49b94dbcddfaca8de1d480b71e730201945af07e0b4c87e48490618bfa8d6425")
}

func TestFigure7Claims(t *testing.T) {
	cfg, _, ocfo := encodeBoth(t)
	cfg.VGrid = []float64{1.0, 0.9, 0.8, 0.6, 0.4, 0.2, 0.01}
	series, err := Figure7(cfg, ocfo)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 9 {
		t.Fatalf("series = %d, want 9 matchers", len(series))
	}
	bySeries := map[string]AblationSeries{}
	for _, s := range series {
		bySeries[s.Matcher] = s
	}

	evalAt := func(s AblationSeries, v float64) (idx int) {
		for i, vv := range s.V {
			if vv == v {
				return i
			}
		}
		t.Fatalf("v=%v not in grid of %s", v, s.Matcher)
		return -1
	}

	// PQ claim: at high variance, collaborative scoping boosts pair
	// quality well above SOTA for the wide-search matchers.
	for _, name := range []string{"CLUSTER(20)", "SIM(0.8)", "LSH(20)"} {
		s := bySeries[name]
		i := evalAt(s, 0.9)
		if s.Evals[i].PQ <= s.SOTA.PQ {
			t.Errorf("%s: PQ at v=0.9 (%.3f) should beat SOTA (%.3f)", name, s.Evals[i].PQ, s.SOTA.PQ)
		}
	}

	// PC claim: at the loosest setting, pair completeness approaches SOTA
	// (within a few points) for every matcher.
	for _, s := range series {
		i := evalAt(s, 0.01)
		if s.Evals[i].PC < s.SOTA.PC-0.10 {
			t.Errorf("%s: PC at v=0.01 (%.3f) should be near SOTA (%.3f)", s.Matcher, s.Evals[i].PC, s.SOTA.PC)
		}
	}

	// RR claim: streamlined schemas always reduce comparisons, at every v.
	for _, s := range series {
		for i, v := range s.V {
			if s.Evals[i].RR < s.SOTA.RR-1e-9 {
				t.Errorf("%s: RR at v=%v (%.3f) below SOTA (%.3f)", s.Matcher, v, s.Evals[i].RR, s.SOTA.RR)
			}
		}
	}

	// F1 claim: LSH(1) improves F1 over SOTA somewhere in the sweep.
	lsh1 := bySeries["LSH(1)"]
	improved := false
	for i := range lsh1.V {
		if lsh1.Evals[i].F1 > lsh1.SOTA.F1 {
			improved = true
			break
		}
	}
	if !improved {
		t.Error("LSH(1) should improve F1 over SOTA at some v")
	}

	got := newNumbers()
	for _, s := range series {
		got.eval(s.SOTA)
		got.add(s.V...)
		for _, e := range s.Evals {
			got.eval(e)
		}
	}
	got.check(t, "39c4e1ea41a79f7dbf9de2d7e24b8c79b3513d1d78aa1b91c4074449359d360e")
}

func TestEncodeShapes(t *testing.T) {
	cfg := FastConfig()
	enc := Encode(cfg, datasets.Figure1())
	if len(enc.Sets) != 4 {
		t.Fatalf("sets = %d", len(enc.Sets))
	}
	if enc.Union.Len() != 24 {
		t.Fatalf("union = %d elements", enc.Union.Len())
	}
	if len(enc.Labels) != 24 {
		t.Fatalf("labels = %d", len(enc.Labels))
	}
}

func TestScalability(t *testing.T) {
	cfg := FastConfig()
	points, err := Scalability(cfg, []int{2, 4, 6}, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	prevRatio := 1.1
	for _, p := range points {
		if p.Elements == 0 || p.SumLocalSq == 0 {
			t.Fatalf("empty point %+v", p)
		}
		// §3: Σ|S_k|² < |S|², and the ratio shrinks as k grows.
		ratio := p.ComplexityRatio()
		if ratio >= 1 {
			t.Errorf("k=%d: complexity ratio %.3f should be < 1", p.K, ratio)
		}
		if ratio >= prevRatio {
			t.Errorf("k=%d: complexity ratio %.3f did not shrink (prev %.3f)", p.K, ratio, prevRatio)
		}
		prevRatio = ratio
		if p.CollabAUCPR <= 0 || p.GlobalAUCPR <= 0 {
			t.Errorf("k=%d: AUC-PR zero: collab %.3f global %.3f", p.K, p.CollabAUCPR, p.GlobalAUCPR)
		}
	}
	// Quality: collaborative scoping stays competitive on the largest
	// synthetic scenario.
	last := points[len(points)-1]
	if last.CollabAUCPR < last.GlobalAUCPR-0.10 {
		t.Errorf("k=%d: collaborative AUC-PR %.3f far below global %.3f",
			last.K, last.CollabAUCPR, last.GlobalAUCPR)
	}
}

func TestTable4Extended(t *testing.T) {
	cfg := FastConfig()
	enc := Encode(cfg, datasets.OC3())
	rows, err := Table4Extended(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Table4(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(base)+3 {
		t.Fatalf("extended rows = %d, want %d", len(rows), len(base)+3)
	}
	for _, r := range rows[len(base):] {
		if r.Method != "Scoping+" {
			t.Fatalf("extra row method = %q", r.Method)
		}
		s := r.Summary
		if s.AUCPR <= 0 || s.AUCPR > 1 || s.AUCF1 <= 0 || s.AUCF1 > 1 {
			t.Fatalf("%s: degenerate summary %+v", r.ODA, s)
		}
	}
}

func TestFigure7Extended(t *testing.T) {
	cfg := FastConfig()
	cfg.VGrid = []float64{1.0, 0.6, 0.01}
	enc := Encode(cfg, datasets.OC3())
	series, err := Figure7Extended(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 12 {
		t.Fatalf("series = %d, want 9 + 3 extras", len(series))
	}
	names := map[string]bool{}
	for _, s := range series {
		names[s.Matcher] = true
		if len(s.Evals) != len(cfg.VGrid) {
			t.Fatalf("%s: %d evals", s.Matcher, len(s.Evals))
		}
	}
	for _, want := range []string{"NAME(0.7)", "FLOOD(0.8)", "COMA(0.6)"} {
		if !names[want] {
			t.Errorf("missing extra matcher %s", want)
		}
	}
}

func TestHeterogeneity(t *testing.T) {
	cfg := FastConfig()
	points, err := Heterogeneity(cfg, HeterogeneityGrid(23))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	byLabel := map[string]HeterogeneityPoint{}
	for _, p := range points {
		byLabel[p.Label] = p
		if p.CollabAUCPR <= 0 || p.ScopingAUCPR <= 0 {
			t.Fatalf("%s: degenerate AUC-PR %+v", p.Label, p)
		}
	}
	// The paper's robustness claim, under controlled knobs: adding an
	// unrelated domain hurts global scoping far more than collaborative
	// scoping, so the collaborative advantage grows.
	homo := byLabel["homogeneous"]
	domain := byLabel["domain-heterogeneous"]
	if domain.Advantage() <= homo.Advantage() {
		t.Errorf("domain heterogeneity should widen the collaborative advantage: %.3f (homo) vs %.3f (domain)",
			homo.Advantage(), domain.Advantage())
	}
	if domain.ScopingAUCPR >= homo.ScopingAUCPR {
		t.Errorf("unrelated domains should hurt global scoping: %.3f -> %.3f",
			homo.ScopingAUCPR, domain.ScopingAUCPR)
	}
}

func TestEncoderAblation(t *testing.T) {
	cfg := FastConfig()
	points, err := EncoderAblation(cfg, datasets.OC3FO(), []float64{0, 0.35, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.AUCPR <= 0 || p.AUCPR > 1 {
			t.Fatalf("%s: AUC-PR = %v", p.Label, p.AUCPR)
		}
	}
	// The balanced default must stay within a small margin of the best
	// configuration (the channel weights trade off gently, not sharply).
	best := points[0].AUCPR
	for _, p := range points {
		if p.AUCPR > best {
			best = p.AUCPR
		}
	}
	if points[1].AUCPR < best-0.05 {
		t.Errorf("balanced weight %v far below best %v", points[1].AUCPR, best)
	}
}

func TestCompareMatchersAndHelpers(t *testing.T) {
	cfg := FastConfig()
	cfg.VGrid = []float64{1.0, 0.5, 0.01}
	enc := Encode(cfg, datasets.Figure1())
	rows, err := CompareMatchers(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Matcher == "" {
			t.Fatal("empty matcher name")
		}
		if r.BestV <= 0 || r.BestV > 1 {
			t.Fatalf("%s: best v = %v", r.Matcher, r.BestV)
		}
	}
	if DefaultConfig().Dim != 768 {
		t.Fatal("default dim should be 768")
	}
}

// The paper's closing claim in the introduction: collaborative scoping
// "also works well for pruning unlinkable elements for source-to-target
// matching" — verified on the two-schema Oracle→MySQL scenario.
func TestSourceToTargetScoping(t *testing.T) {
	cfg := FastConfig()
	cfg.Dim = 384
	enc := Encode(cfg, datasets.SourceToTarget())
	rows, err := Table4(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	best, collab := BestScoping(rows)
	// "Works well": clearly above the positive-rate random baseline, and
	// competitive with the best global scoping method (which is adequate
	// when only two homogeneous schemas are involved — collaborative
	// scoping's edge comes from multi-source heterogeneity).
	var positives, total int
	for _, linkable := range enc.Labels {
		total++
		if linkable {
			positives++
		}
	}
	baseline := float64(positives) / float64(total)
	if collab.Summary.AUCPR <= baseline+0.05 {
		t.Errorf("source-to-target collaborative AUC-PR = %.3f, want well above the %.3f random baseline",
			collab.Summary.AUCPR, baseline)
	}
	if collab.Summary.AUCPR < 0.85*best.Summary.AUCPR {
		t.Errorf("source-to-target: collaborative AUC-PR %.3f far below best scoping %.3f (%s)",
			collab.Summary.AUCPR, best.Summary.AUCPR, best.ODA)
	}
}
