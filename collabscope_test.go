package collabscope

import (
	"context"
	"strings"
	"testing"
)

// must unwraps a (value, error) pair, panicking on error so each call
// stays one expression.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func pipelineForTest() *Pipeline {
	return New(WithDimension(192))
}

func figure1Schemas() []*Schema {
	return DatasetFigure1().Schemas
}

func TestCollaborativeScopeEndToEnd(t *testing.T) {
	pipe := pipelineForTest()
	fig := DatasetFigure1()
	res, err := pipe.CollaborativeScopeContext(context.Background(), fig.Schemas, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept+res.Pruned != 24 {
		t.Fatalf("verdicts cover %d elements, want 24", res.Kept+res.Pruned)
	}
	if len(res.Streamlined) != 4 {
		t.Fatalf("streamlined = %d schemas", len(res.Streamlined))
	}
	// The unrelated CAR schema must shrink more than the customer schemas.
	carKept := res.Streamlined[3].NumElements()
	s1Kept := res.Streamlined[0].NumElements()
	if carKept >= s1Kept {
		t.Errorf("CAR schema kept %d elements vs S1 %d; expected more pruning", carKept, s1Kept)
	}
}

func TestCollaborativeScopeValidation(t *testing.T) {
	pipe := pipelineForTest()
	if _, err := pipe.CollaborativeScopeContext(context.Background(), figure1Schemas()[:1], 0.7); err == nil {
		t.Fatal("single schema should fail")
	}
	if _, err := pipe.CollaborativeScopeContext(context.Background(), figure1Schemas(), 0); err == nil {
		t.Fatal("v=0 should fail")
	}
}

func TestTrainAndAssess(t *testing.T) {
	pipe := pipelineForTest()
	schemas := figure1Schemas()
	m2, err := pipe.TrainModelContext(context.Background(), schemas[1], 0.8)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := must(pipe.AssessContext(context.Background(), schemas[0], []*Model{m2}))
	if len(verdicts) != schemas[0].NumElements() {
		t.Fatalf("verdicts = %d", len(verdicts))
	}
}

func TestGlobalScope(t *testing.T) {
	pipe := pipelineForTest()
	schemas := figure1Schemas()
	res, err := pipe.GlobalScopeContext(context.Background(), schemas, NewPCADetector(0.5), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept+res.Pruned != 24 {
		t.Fatalf("verdicts = %d", res.Kept+res.Pruned)
	}
	if res.Kept != 12 {
		t.Fatalf("keep 0.5 kept %d of 24", res.Kept)
	}
	if _, err := pipe.GlobalScopeContext(context.Background(), schemas, nil, 0.5); err == nil {
		t.Fatal("nil detector should fail")
	}
	if _, err := pipe.GlobalScopeContext(context.Background(), nil, NewZScoreDetector(), 0.5); err == nil {
		t.Fatal("no elements should fail")
	}
}

func TestDetectorConstructors(t *testing.T) {
	for _, d := range []Detector{
		NewZScoreDetector(),
		NewLOFDetector(0),
		NewPCADetector(0.5),
		NewAutoencoderDetector(1, 5, 1),
	} {
		if d.Name() == "" {
			t.Errorf("%T has empty name", d)
		}
	}
}

func TestMatchAndEvaluate(t *testing.T) {
	pipe := pipelineForTest()
	fig := DatasetFigure1()
	pairs := must(pipe.MatchContext(context.Background(), NewLSHMatcher(1), fig.Schemas))
	if len(pairs) == 0 {
		t.Fatal("no pairs generated")
	}
	eval := EvaluateMatch(pairs, fig.Truth, fig.Schemas)
	if eval.PQ <= 0 || eval.PC <= 0 {
		t.Fatalf("eval = %+v", eval)
	}
	if eval.RR <= 0 || eval.RR > 1 {
		t.Fatalf("RR = %v", eval.RR)
	}
}

func TestScopingImprovesMatchPrecision(t *testing.T) {
	// The repository's headline integration claim: matching streamlined
	// schemas yields better pair quality than matching the originals.
	pipe := pipelineForTest()
	fig := DatasetFigure1()
	matcher := NewLSHMatcher(2)

	sota := EvaluateMatch(must(pipe.MatchContext(context.Background(), matcher, fig.Schemas)), fig.Truth, fig.Schemas)
	res, err := pipe.CollaborativeScopeContext(context.Background(), fig.Schemas, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	scoped := EvaluateMatch(must(pipe.MatchContext(context.Background(), matcher, res.Streamlined)), fig.Truth, fig.Schemas)
	if scoped.PQ <= sota.PQ {
		t.Errorf("scoped PQ %.3f should beat SOTA PQ %.3f", scoped.PQ, sota.PQ)
	}
	if scoped.RR < sota.RR {
		t.Errorf("scoped RR %.3f should be at least SOTA RR %.3f", scoped.RR, sota.RR)
	}
}

func TestParseDDLFacade(t *testing.T) {
	s, err := ParseDDL("demo", "CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(20));")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTables() != 1 || s.NumAttributes() != 2 {
		t.Fatalf("schema = %d tables %d attrs", s.NumTables(), s.NumAttributes())
	}
}

func TestReadSchemaJSONFacade(t *testing.T) {
	js := `{"name":"X","tables":[{"name":"T","attributes":[{"name":"a","type":"TEXT"}]}]}`
	s, err := ReadSchemaJSON(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if s.Attribute("T", "a") == nil {
		t.Fatal("attribute missing")
	}
}

func TestGroundTruthFacade(t *testing.T) {
	g := NewGroundTruth()
	if err := g.Add(Linkage{
		A: TableID("A", "T1"), B: TableID("B", "T2"), Type: InterIdentical,
	}); err != nil {
		t.Fatal(err)
	}
	if !g.Contains(TableID("B", "T2"), TableID("A", "T1")) {
		t.Fatal("symmetric lookup failed")
	}
}

func TestBundledDatasets(t *testing.T) {
	if DatasetOC3().TotalStats().Tables != 18 {
		t.Fatal("OC3 shape wrong")
	}
	if DatasetOC3FO().TotalStats().Tables != 34 {
		t.Fatal("OC3-FO shape wrong")
	}
	if DatasetFigure1().TotalStats().Tables != 5 {
		t.Fatal("Figure1 shape wrong")
	}
}

func TestWithEncoderOption(t *testing.T) {
	base := New(WithDimension(64))
	custom := New(WithEncoder(base.Encoder()))
	if custom.Encoder().Dim() != 64 {
		t.Fatal("WithEncoder not honoured")
	}
}

func TestSuggestVarianceFacade(t *testing.T) {
	pipe := New(WithDimension(192))
	oc3 := DatasetOC3()
	v, err := pipe.SuggestVarianceContext(context.Background(), oc3.Schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v > 1 {
		t.Fatalf("suggested v = %v", v)
	}
	// Using the suggestion must produce a non-trivial scoping.
	res, err := pipe.CollaborativeScopeContext(context.Background(), oc3.Schemas, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept == 0 || res.Pruned == 0 {
		t.Fatalf("degenerate scoping at suggested v=%v: kept=%d pruned=%d", v, res.Kept, res.Pruned)
	}
	if _, err := pipe.SuggestVarianceContext(context.Background(), oc3.Schemas[:1], nil); err == nil {
		t.Fatal("single schema should fail")
	}
}

func TestMatchHolisticFacade(t *testing.T) {
	pipe := pipelineForTest()
	fig := DatasetFigure1()
	pairs := must(pipe.MatchHolistic(context.Background(), 4, 1, fig.Schemas))
	if len(pairs) == 0 {
		t.Fatal("holistic matching found nothing")
	}
	auto := must(pipe.MatchHolisticAuto(context.Background(), []int{2, 4, 6}, 1, fig.Schemas))
	if len(auto) == 0 {
		t.Fatal("auto holistic matching found nothing")
	}
	eval := EvaluateMatch(pairs, fig.Truth, fig.Schemas)
	if eval.PC == 0 {
		t.Fatal("holistic matching found no true linkages")
	}
}
