package match

import (
	"context"
	"testing"

	"collabscope/internal/ann"
	"collabscope/internal/embed"
	"collabscope/internal/schema"
)

// must unwraps a (value, error) pair, panicking on error so each call
// stays one expression.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func matchSchemas() ([]*schema.Schema, []*embed.SignatureSet, *schema.GroundTruth) {
	s1 := (&schema.Schema{Name: "S1", Tables: []schema.Table{{
		Name: "CLIENT",
		Attributes: []schema.Attribute{
			{Name: "CID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "NAME", Type: schema.TypeText},
			{Name: "ADDRESS", Type: schema.TypeText},
		},
	}}}).Normalize()
	s2 := (&schema.Schema{Name: "S2", Tables: []schema.Table{{
		Name: "CUSTOMER",
		Attributes: []schema.Attribute{
			{Name: "CUSTOMER_ID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "CUSTOMER_NAME", Type: schema.TypeText},
			{Name: "CITY", Type: schema.TypeText},
			{Name: "DOB", Type: schema.TypeDate},
		},
	}}}).Normalize()
	gt := schema.NewGroundTruth()
	gt.MustAdd(schema.Linkage{
		A: schema.TableID("S1", "CLIENT"), B: schema.TableID("S2", "CUSTOMER"),
		Type: schema.InterIdentical,
	})
	gt.MustAdd(schema.Linkage{
		A:    schema.AttributeID("S1", "CLIENT", "CID"),
		B:    schema.AttributeID("S2", "CUSTOMER", "CUSTOMER_ID"),
		Type: schema.InterIdentical,
	})
	gt.MustAdd(schema.Linkage{
		A:    schema.AttributeID("S1", "CLIENT", "NAME"),
		B:    schema.AttributeID("S2", "CUSTOMER", "CUSTOMER_NAME"),
		Type: schema.InterIdentical,
	})
	gt.MustAdd(schema.Linkage{
		A:    schema.AttributeID("S1", "CLIENT", "ADDRESS"),
		B:    schema.AttributeID("S2", "CUSTOMER", "CITY"),
		Type: schema.InterSubTyped,
	})
	enc := embed.NewHashEncoder(embed.WithDim(128))
	schemas := []*schema.Schema{s1, s2}
	return schemas, must(embed.EncodeSchemasContext(context.Background(), 0, enc, schemas)), gt
}

func pairSet(pairs []Pair) map[Pair]bool {
	out := map[Pair]bool{}
	for _, p := range pairs {
		out[p.Canonical()] = true
	}
	return out
}

func TestPairCanonical(t *testing.T) {
	a := schema.TableID("S2", "B")
	b := schema.TableID("S1", "A")
	p := Pair{A: a, B: b}.Canonical()
	q := Pair{A: b, B: a}.Canonical()
	if p != q {
		t.Fatalf("canonical pairs differ: %v vs %v", p, q)
	}
	if p.A.Schema != "S1" {
		t.Fatalf("canonical order wrong: %+v", p)
	}
}

func TestSimFindsTrueLinkagesAndRespectsThreshold(t *testing.T) {
	_, sets, gt := matchSchemas()
	loose := Sim{Threshold: 0.4}.Match(sets[0], sets[1])
	tight := Sim{Threshold: 0.95}.Match(sets[0], sets[1])
	if len(tight) > len(loose) {
		t.Fatal("higher threshold must not generate more pairs")
	}
	got := pairSet(loose)
	name := Pair{
		A: schema.AttributeID("S1", "CLIENT", "NAME"),
		B: schema.AttributeID("S2", "CUSTOMER", "CUSTOMER_NAME"),
	}.Canonical()
	if !got[name] {
		t.Fatal("SIM(0.4) should find the NAME linkage")
	}
	// No cross-kind pairs ever.
	for p := range got {
		if p.A.Kind != p.B.Kind {
			t.Fatalf("cross-kind pair %v", p)
		}
	}
	_ = gt
}

func TestClusterMatcher(t *testing.T) {
	_, sets, _ := matchSchemas()
	pairs := Cluster{K: 2, Seed: 1}.Match(sets[0], sets[1])
	if len(pairs) == 0 {
		t.Fatal("CLUSTER(2) generated no pairs")
	}
	for _, p := range pairs {
		if p.A.Kind != p.B.Kind {
			t.Fatalf("cross-kind pair %v", p)
		}
		if p.A.Schema == p.B.Schema {
			t.Fatalf("intra-schema pair %v", p)
		}
	}
	// More clusters → fewer co-memberships.
	many := Cluster{K: 20, Seed: 1}.Match(sets[0], sets[1])
	if len(many) > len(pairs) {
		t.Fatal("more clusters should not generate more pairs")
	}
}

func TestLSHMatcher(t *testing.T) {
	_, sets, _ := matchSchemas()
	pairs := LSH{K: 1}.Match(sets[0], sets[1])
	got := pairSet(pairs)
	tablePair := Pair{
		A: schema.TableID("S1", "CLIENT"), B: schema.TableID("S2", "CUSTOMER"),
	}.Canonical()
	if !got[tablePair] {
		t.Fatal("LSH(1) must link the only table pair")
	}
	// k=1 in both directions over 1 table pair + attributes: bounded by
	// |A|+|B| pairs.
	if len(pairs) > sets[0].Len()+sets[1].Len() {
		t.Fatalf("LSH(1) generated %d pairs", len(pairs))
	}
	wide := LSH{K: 5}.Match(sets[0], sets[1])
	if len(wide) < len(pairs) {
		t.Fatal("larger k should not generate fewer pairs")
	}
}

func TestLSHApproximateVariant(t *testing.T) {
	_, sets, _ := matchSchemas()
	pairs := LSH{K: 2, Index: IndexConfig{Kind: ann.KindLSH, Seed: 3}}.Match(sets[0], sets[1])
	if len(pairs) == 0 {
		t.Fatal("approximate LSH generated no pairs")
	}
	for _, p := range pairs {
		if p.A.Kind != p.B.Kind {
			t.Fatalf("cross-kind pair %v", p)
		}
	}
}

func TestMatcherNames(t *testing.T) {
	cases := map[string]Matcher{
		"SIM(0.6)":   Sim{Threshold: 0.6},
		"CLUSTER(5)": Cluster{K: 5},
		"LSH(20)":    LSH{K: 20},
		"LSH*(3)":    LSH{K: 3, Index: IndexConfig{Kind: ann.KindLSH}},
	}
	for want, m := range cases {
		if m.Name() != want {
			t.Errorf("Name = %q, want %q", m.Name(), want)
		}
	}
}

func TestMatchAllDeduplicates(t *testing.T) {
	_, sets, _ := matchSchemas()
	pairs := must(MatchAllContext(context.Background(), 0, Sim{Threshold: 0.3}, sets))
	seen := map[Pair]bool{}
	for _, p := range pairs {
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
	// Deterministic order.
	again := must(MatchAllContext(context.Background(), 0, Sim{Threshold: 0.3}, sets))
	if len(again) != len(pairs) {
		t.Fatal("non-deterministic result size")
	}
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("non-deterministic order")
		}
	}
}

func TestEvaluate(t *testing.T) {
	schemas, sets, gt := matchSchemas()
	cart := Cartesian(schemas)
	if cart != 1*1+3*4 {
		t.Fatalf("Cartesian = %d, want 13", cart)
	}
	pairs := LSH{K: 1}.Match(sets[0], sets[1])
	e := Evaluate(pairs, gt, cart)
	if e.Generated == 0 || e.Correct == 0 {
		t.Fatalf("eval = %+v", e)
	}
	if e.PQ <= 0 || e.PQ > 1 || e.PC <= 0 || e.PC > 1 {
		t.Fatalf("PQ/PC out of range: %+v", e)
	}
	if e.F1 <= 0 || e.F1 > 1 {
		t.Fatalf("F1 = %v", e.F1)
	}
	if e.RR < 0 || e.RR > 1 {
		t.Fatalf("RR = %v", e.RR)
	}
	// Perfect matcher: exactly the ground truth.
	var perfect []Pair
	for _, l := range gt.Linkages() {
		perfect = append(perfect, Pair{A: l.A, B: l.B})
	}
	pe := Evaluate(perfect, gt, cart)
	if pe.PQ != 1 || pe.PC != 1 || pe.F1 != 1 {
		t.Fatalf("perfect eval = %+v", pe)
	}
	// Empty pairs.
	ze := Evaluate(nil, gt, cart)
	if ze.PQ != 0 || ze.PC != 0 || ze.F1 != 0 || ze.RR != 1 {
		t.Fatalf("zero eval = %+v", ze)
	}
}

func TestEvaluateDeduplicatesSymmetricPairs(t *testing.T) {
	_, _, gt := matchSchemas()
	a := schema.TableID("S1", "CLIENT")
	b := schema.TableID("S2", "CUSTOMER")
	pairs := []Pair{{A: a, B: b}, {A: b, B: a}}
	e := Evaluate(pairs, gt, 10)
	if e.Generated != 1 || e.Correct != 1 {
		t.Fatalf("eval = %+v", e)
	}
}

func TestHolistic(t *testing.T) {
	_, sets, gt := matchSchemas()
	pairs := Holistic(3, 1, sets)
	if len(pairs) == 0 {
		t.Fatal("holistic clustering produced no pairs")
	}
	for _, p := range pairs {
		if p.A.Schema == p.B.Schema {
			t.Fatalf("intra-schema pair %v", p)
		}
		if p.A.Kind != p.B.Kind {
			t.Fatalf("cross-kind pair %v", p)
		}
	}
	ev := Evaluate(pairs, gt, 13)
	if ev.PC == 0 {
		t.Fatal("holistic clustering found no true linkages")
	}
	// More clusters → no more pairs than fewer clusters.
	many := Holistic(20, 1, sets)
	if len(many) > len(Holistic(2, 1, sets)) {
		t.Fatal("k=20 produced more pairs than k=2")
	}
}

func TestHolisticAuto(t *testing.T) {
	_, sets, _ := matchSchemas()
	pairs := HolisticAuto([]int{2, 3, 4}, 1, sets)
	if len(pairs) == 0 {
		t.Fatal("silhouette-tuned holistic clustering produced no pairs")
	}
	// Degenerate candidate list falls back to no pairs without panicking.
	if got := HolisticAuto(nil, 1, sets); got != nil {
		t.Fatalf("nil candidates should yield nil, got %v", got)
	}
}

func TestHolisticDegenerateInputs(t *testing.T) {
	_, sets, _ := matchSchemas()
	empty := sets[0].Select(nil)
	if got := Holistic(3, 1, []*embed.SignatureSet{empty, empty}); len(got) != 0 {
		t.Fatalf("empty inputs produced %v", got)
	}
}

func TestHACMatcher(t *testing.T) {
	_, sets, gt := matchSchemas()
	h := HACMatcher{Cutoff: 0.9}
	if h.Name() != "HAC(average,0.9)" {
		t.Fatalf("name = %q", h.Name())
	}
	pairs := h.Match(sets[0], sets[1])
	if len(pairs) == 0 {
		t.Fatal("HAC matcher found nothing")
	}
	for _, p := range pairs {
		if p.A.Kind != p.B.Kind || p.A.Schema == p.B.Schema {
			t.Fatalf("bad pair %v", p)
		}
	}
	ev := Evaluate(pairs, gt, 13)
	if ev.PC == 0 {
		t.Fatal("HAC matcher found no true linkages")
	}
	// A tiny cutoff yields no merges, hence no pairs.
	if got := (HACMatcher{Cutoff: 1e-9}).Match(sets[0], sets[1]); len(got) != 0 {
		t.Fatalf("tiny cutoff produced %v", got)
	}
}
