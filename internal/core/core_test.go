package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"collabscope/internal/embed"
	"collabscope/internal/parallel"
	"collabscope/internal/schema"
)

// Three test schemas: two from the order-customer domain with different
// designs, one from an unrelated racing domain (the Figure-1 setup).
func testSchemas() []*schema.Schema {
	s1 := (&schema.Schema{Name: "S1", Tables: []schema.Table{{
		Name: "CLIENT",
		Attributes: []schema.Attribute{
			{Name: "CID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "NAME", Type: schema.TypeText},
			{Name: "ADDRESS", Type: schema.TypeText},
			{Name: "PHONE", Type: schema.TypeText},
		},
	}, {
		Name: "ORDERS",
		Attributes: []schema.Attribute{
			{Name: "ORDER_ID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "CLIENT_ID", Type: schema.TypeNumber, Constraint: schema.ForeignKey},
			{Name: "ORDER_DATE", Type: schema.TypeDate},
		},
	}}}).Normalize()

	s2 := (&schema.Schema{Name: "S2", Tables: []schema.Table{{
		Name: "CUSTOMER",
		Attributes: []schema.Attribute{
			{Name: "CUSTOMER_ID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "FIRST_NAME", Type: schema.TypeText},
			{Name: "LAST_NAME", Type: schema.TypeText},
			{Name: "CITY", Type: schema.TypeText},
			{Name: "TELEPHONE", Type: schema.TypeText},
		},
	}, {
		Name: "PURCHASES",
		Attributes: []schema.Attribute{
			{Name: "PURCHASE_ID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "CUSTOMER_ID", Type: schema.TypeNumber, Constraint: schema.ForeignKey},
			{Name: "PURCHASE_DATE", Type: schema.TypeDate},
		},
	}}}).Normalize()

	s3 := (&schema.Schema{Name: "S3", Tables: []schema.Table{{
		Name: "RACES",
		Attributes: []schema.Attribute{
			{Name: "RACE_ID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "CIRCUIT", Type: schema.TypeText},
			{Name: "GRID", Type: schema.TypeNumber},
			{Name: "LAP", Type: schema.TypeNumber},
			{Name: "PODIUM", Type: schema.TypeNumber},
			{Name: "CHAMPIONSHIP", Type: schema.TypeText},
		},
	}}}).Normalize()

	return []*schema.Schema{s1, s2, s3}
}

// must unwraps a (value, error) pair, panicking on error so each call
// stays one expression.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func encodeAll(t *testing.T) ([]*schema.Schema, []*embed.SignatureSet) {
	t.Helper()
	schemas := testSchemas()
	enc := embed.NewHashEncoder(embed.WithDim(128))
	return schemas, must(embed.EncodeSchemasContext(context.Background(), 0, enc, schemas))
}

func TestTrainValidation(t *testing.T) {
	_, sets := encodeAll(t)
	if _, err := Train(sets[0], 0); err == nil {
		t.Fatal("v=0 should fail")
	}
	if _, err := Train(sets[0], 1.5); err == nil {
		t.Fatal("v>1 should fail")
	}
	if _, err := Train(&embed.SignatureSet{}, 0.5); err == nil {
		t.Fatal("empty set should fail")
	}
	m, err := Train(sets[0], 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != "S1" || m.Components() < 1 || m.Range < 0 {
		t.Fatalf("model = %+v", m)
	}
}

func TestModelAcceptsOwnTrainingElements(t *testing.T) {
	// By Definition 3 the range is the max training error, so every
	// training element reconstructs within range — at any v.
	_, sets := encodeAll(t)
	for _, v := range []float64{0.2, 0.5, 0.8, 1.0} {
		m, err := Train(sets[0], v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sets[0].Len(); i++ {
			if !m.Accepts(sets[0].Matrix.Row(i)) {
				t.Fatalf("v=%v: model rejects its own training element %v", v, sets[0].IDs[i])
			}
		}
	}
}

func TestAssessPrunesCrossDomain(t *testing.T) {
	_, sets := encodeAll(t)
	m1, _ := Train(sets[0], 0.7)
	m2, _ := Train(sets[1], 0.7)

	// The racing schema assessed against the two order-customer models:
	// most of its elements must be unlinkable.
	verdictRacing := must(AssessContext(context.Background(), 0, sets[2], []*Model{m1, m2}, AssessConfig{}))
	kept := 0
	for _, linkable := range verdictRacing {
		if linkable {
			kept++
		}
	}
	if kept > sets[2].Len()/3 {
		t.Fatalf("racing schema: %d of %d elements accepted, want few", kept, sets[2].Len())
	}

	// S1 assessed against S2's model: shared customer concepts survive.
	// Which borderline element passes depends on the retained subspace —
	// NAME bridges at v=0.7, PHONE needs the richer v=0.8 model (the
	// paper's §4.3 discusses exactly this sensitivity).
	verdict1 := must(AssessContext(context.Background(), 0, sets[0], []*Model{m2}, AssessConfig{}))
	if !verdict1[schema.AttributeID("S1", "CLIENT", "NAME")] {
		t.Error("S1.CLIENT.NAME should be assessed linkable by S2's v=0.7 model")
	}
	m2rich, _ := Train(sets[1], 0.8)
	verdictRich := must(AssessContext(context.Background(), 0, sets[0], []*Model{m2rich}, AssessConfig{}))
	if !verdictRich[schema.AttributeID("S1", "CLIENT", "PHONE")] {
		t.Error("S1.CLIENT.PHONE should be assessed linkable by S2's v=0.8 model")
	}
}

func TestNewScoperValidation(t *testing.T) {
	_, sets := encodeAll(t)
	if _, err := NewScoperContext(context.Background(), 0, sets[:1], AssessConfig{}); err == nil {
		t.Fatal("single schema should fail")
	}
	if _, err := NewScoperContext(context.Background(), 0, []*embed.SignatureSet{sets[0], {}}, AssessConfig{}); err == nil {
		t.Fatal("empty set should fail")
	}
	if _, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{}); err != nil {
		t.Fatal(err)
	}
}

func TestScoperModelsMatchDirectTraining(t *testing.T) {
	_, sets := encodeAll(t)
	s, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	models, err := s.ModelsContext(context.Background(), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range models {
		direct, _ := Train(sets[i], 0.6)
		if m.Components() != direct.Components() {
			t.Fatalf("schema %d: scoper %d components vs direct %d",
				i, m.Components(), direct.Components())
		}
		if diff := m.Range - direct.Range; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("schema %d: range %v vs %v", i, m.Range, direct.Range)
		}
	}
	if _, err := s.ModelsContext(context.Background(), 0); err == nil {
		t.Fatal("v=0 should fail")
	}
}

func TestScopePrunesMoreAtHigherVariance(t *testing.T) {
	// Higher v → tighter local models → fewer linkable elements (the
	// paper's Reduction Ratio trend).
	_, sets := encodeAll(t)
	s, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	count := func(v float64) int {
		keep, err := s.ScopeContext(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ok := range keep {
			if ok {
				n++
			}
		}
		return n
	}
	lowV, highV := count(0.2), count(0.95)
	if highV > lowV {
		t.Fatalf("kept %d at v=0.95 but %d at v=0.2; higher v should prune more", highV, lowV)
	}
}

func TestScopeSeparatesDomains(t *testing.T) {
	_, sets := encodeAll(t)
	s, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	keep, err := s.ScopeContext(context.Background(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var keptOC, totalOC, keptRacing, totalRacing int
	for id, ok := range keep {
		if id.Schema == "S3" {
			totalRacing++
			if ok {
				keptRacing++
			}
		} else {
			totalOC++
			if ok {
				keptOC++
			}
		}
	}
	ocRate := float64(keptOC) / float64(totalOC)
	racingRate := float64(keptRacing) / float64(totalRacing)
	if ocRate <= racingRate {
		t.Fatalf("order-customer keep rate %.2f should exceed racing keep rate %.2f", ocRate, racingRate)
	}
}

func TestAllModelsStricterThanAnyModel(t *testing.T) {
	_, sets := encodeAll(t)
	any, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{Mode: AnyModel})
	all, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{Mode: AllModels})
	keepAny, _ := any.ScopeContext(context.Background(), 0.5)
	keepAll, _ := all.ScopeContext(context.Background(), 0.5)
	for id, ok := range keepAll {
		if ok && !keepAny[id] {
			t.Fatalf("%v kept by AllModels but not AnyModel", id)
		}
	}
}

func TestRelaxEpsilonKeepsSuperset(t *testing.T) {
	_, sets := encodeAll(t)
	strict, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	relaxed, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{RelaxEpsilon: 0.5})
	keepStrict, _ := strict.ScopeContext(context.Background(), 0.6)
	keepRelaxed, _ := relaxed.ScopeContext(context.Background(), 0.6)
	for id, ok := range keepStrict {
		if ok && !keepRelaxed[id] {
			t.Fatalf("%v kept strictly but lost under relaxation", id)
		}
	}
}

// TestLinkableFold pins Definition 4 on the one fold every assessment path
// calls: an error exactly at the (relaxed) range is accepted, AnyModel is
// the union and AllModels the intersection of per-model acceptances, and
// AllModels with no foreign model accepts nothing.
func TestLinkableFold(t *testing.T) {
	foreign := []*Model{{Range: 1}, {Range: 2}}
	errs := [][]float64{{1, 3, 0.5, 1.5}, {3, 2, 1, 2.5}}
	cases := []struct {
		name    string
		cfg     AssessConfig
		foreign []*Model
		want    []bool
	}{
		{"any", AssessConfig{}, foreign, []bool{true, true, true, false}},
		{"all", AssessConfig{Mode: AllModels}, foreign, []bool{false, false, true, false}},
		{"any relaxed", AssessConfig{RelaxEpsilon: 0.5}, foreign, []bool{true, true, true, true}},
		{"all relaxed", AssessConfig{Mode: AllModels, RelaxEpsilon: 0.5}, foreign, []bool{true, false, true, true}},
		{"all, no models", AssessConfig{Mode: AllModels}, nil, []bool{false, false, false, false}},
	}
	for _, c := range cases {
		got := c.cfg.Linkable(c.foreign, errs, 4)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: verdicts %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestSweepAndEvaluate(t *testing.T) {
	schemas, sets := encodeAll(t)
	s, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	// Ground truth: order-customer elements linkable, racing unlinkable.
	labels := map[schema.ElementID]bool{}
	for _, sch := range schemas {
		for _, id := range sch.ElementIDs() {
			labels[id] = sch.Name != "S3"
		}
	}
	grid := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}
	entries, err := s.SweepContext(context.Background(), labels, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(grid) {
		t.Fatalf("entries = %d", len(entries))
	}
	sum, err := s.Evaluate(context.Background(), labels, grid, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if sum.AUCPR <= 0.5 {
		t.Fatalf("AUC-PR = %v, want > 0.5 (labels match domain split)", sum.AUCPR)
	}
	if sum.AUCROCp < sum.AUCROC-1e-9 {
		t.Fatalf("AUC-ROC' %v should not trail raw AUC-ROC %v for truncated curves",
			sum.AUCROCp, sum.AUCROC)
	}
}

func TestPassOperations(t *testing.T) {
	_, sets := encodeAll(t)
	s, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	total := 0
	for _, set := range sets {
		total += set.Len()
	}
	want := total * 2 // k−1 = 2 foreign models each
	if got := s.PassOperations(); got != want {
		t.Fatalf("PassOperations = %d, want %d", got, want)
	}
}

func TestTrainFixedComponents(t *testing.T) {
	_, sets := encodeAll(t)
	if _, err := TrainFixedComponents(sets[0], 0); err == nil {
		t.Fatal("n=0 should fail")
	}
	if _, err := TrainFixedComponents(&embed.SignatureSet{}, 2); err == nil {
		t.Fatal("empty set should fail")
	}
	m, err := TrainFixedComponents(sets[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Components() != 3 {
		t.Fatalf("components = %d, want 3", m.Components())
	}
	// Clamps to the available rank.
	big, err := TrainFixedComponents(sets[0], 10000)
	if err != nil {
		t.Fatal(err)
	}
	if big.Components() > sets[0].Len() {
		t.Fatalf("components = %d exceeds sample count", big.Components())
	}
	// Own training elements are always accepted (range = max own error).
	for i := 0; i < sets[0].Len(); i++ {
		if !m.Accepts(sets[0].Matrix.Row(i)) {
			t.Fatalf("model rejects own element %v", sets[0].IDs[i])
		}
	}
}

func TestNewScoperDimensionMismatch(t *testing.T) {
	_, sets := encodeAll(t)
	other := must(embed.EncodeSchemaContext(context.Background(), 0, embed.NewHashEncoder(embed.WithDim(64)), testSchemas()[1]))
	if _, err := NewScoperContext(context.Background(), 0, []*embed.SignatureSet{sets[0], other}, AssessConfig{}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

// TestColumnsRefusesModelOfAnotherDimension pins the guard of the one
// Algorithm 2 engine: a foreign model trained at another signature width
// is refused with embed.ErrDimMismatch, naming its schema and both widths,
// before any reconstruction pass — not recovered as a PanicError from
// inside one, which would read as a bug in stage code.
func TestColumnsRefusesModelOfAnotherDimension(t *testing.T) {
	_, sets := encodeAll(t)
	narrow := must(embed.EncodeSchemaContext(context.Background(), 0, embed.NewHashEncoder(embed.WithDim(64)), testSchemas()[1]))
	m := must(Train(narrow, 0.8))
	for _, workers := range []int{1, 4} {
		_, err := AssessContext(context.Background(), workers, sets[0], []*Model{m}, AssessConfig{})
		if !errors.Is(err, embed.ErrDimMismatch) {
			t.Fatalf("workers=%d: err = %v, want embed.ErrDimMismatch", workers, err)
		}
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			t.Fatalf("workers=%d: the mismatch surfaced as a recovered panic: %v", workers, err)
		}
		for _, want := range []string{`"S2"`, "64", "128"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d: %q does not name %s", workers, err, want)
			}
		}
	}
}

func BenchmarkTrain(b *testing.B) {
	schemas := testSchemas()
	enc := embed.NewHashEncoder()
	set := must(embed.EncodeSchemaContext(context.Background(), 0, enc, schemas[0]))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(set, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssess(b *testing.B) {
	schemas := testSchemas()
	enc := embed.NewHashEncoder()
	sets := must(embed.EncodeSchemasContext(context.Background(), 0, enc, schemas))
	m1, _ := Train(sets[1], 0.7)
	m2, _ := Train(sets[2], 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(AssessContext(context.Background(), 0, sets[0], []*Model{m1, m2}, AssessConfig{}))
	}
}
