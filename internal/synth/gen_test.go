package synth

import (
	"context"
	"testing"
	"testing/quick"

	"collabscope/internal/core"
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

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Schemas: 1}); err == nil {
		t.Fatal("1 schema should fail")
	}
	if _, err := Generate(Config{Schemas: 2, UnrelatedSchemas: 99}); err == nil {
		t.Fatal("too many unrelated schemas should fail")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	d, err := Generate(Config{Schemas: 3, UnrelatedSchemas: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Schemas) != 4 {
		t.Fatalf("schemas = %d", len(d.Schemas))
	}
	for _, s := range d.Schemas {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if s.NumTables() == 0 || s.NumAttributes() == 0 {
			t.Fatalf("%s is empty", s.Name)
		}
	}
	if err := d.Truth.Validate(d.Schemas); err != nil {
		t.Fatalf("ground truth invalid: %v", err)
	}
	if d.Truth.Len() == 0 {
		t.Fatal("no linkages generated")
	}
	ii, is := d.Truth.CountByType()
	if ii == 0 {
		t.Fatal("no inter-identical linkages")
	}
	_ = is
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Config{Schemas: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Schemas: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Truth.Len() != b.Truth.Len() {
		t.Fatal("ground truth differs across runs")
	}
	for i := range a.Schemas {
		ea, eb := a.Schemas[i].Elements(), b.Schemas[i].Elements()
		if len(ea) != len(eb) {
			t.Fatalf("schema %d sizes differ", i)
		}
		for j := range ea {
			if ea[j].Text != eb[j].Text {
				t.Fatalf("schema %d element %d differs: %q vs %q", i, j, ea[j].Text, eb[j].Text)
			}
		}
	}
	c, err := Generate(Config{Schemas: 3, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if sameElements(a.Schemas[0], c.Schemas[0]) {
		t.Fatal("different seeds should differ")
	}
}

func sameElements(a, b *schema.Schema) bool {
	ea, eb := a.Elements(), b.Elements()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i].Text != eb[i].Text {
			return false
		}
	}
	return true
}

func TestUnrelatedSchemasAreFullyUnlinkable(t *testing.T) {
	d, err := Generate(Config{Schemas: 2, UnrelatedSchemas: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	labels := d.Labels()
	for id, linkable := range labels {
		if linkable && len(id.Schema) > 9 && id.Schema[:9] == "Unrelated" {
			t.Fatalf("unrelated element %v marked linkable", id)
		}
	}
}

func TestSplitConceptsProduceSubTypedLinks(t *testing.T) {
	// With SplitProb 1 on one schema family and 0.0001 (≈ combined) being
	// impossible to force per schema, use a high split probability and
	// verify IS links exist between combined and split instantiations.
	d, err := Generate(Config{Schemas: 4, SplitProb: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	_, is := d.Truth.CountByType()
	if is == 0 {
		t.Fatal("expected inter-sub-typed linkages from split concepts")
	}
}

func TestFillerPerTable(t *testing.T) {
	sparse, err := Generate(Config{Schemas: 2, FillerPerTable: -1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// FillerPerTable < 0 means "no filler" (0 means default).
	dense, err := Generate(Config{Schemas: 2, FillerPerTable: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Schemas[0].NumAttributes() <= sparse.Schemas[0].NumAttributes() {
		t.Fatalf("filler did not grow schema: %d vs %d",
			dense.Schemas[0].NumAttributes(), sparse.Schemas[0].NumAttributes())
	}
}

func TestWithHRWidensSchemas(t *testing.T) {
	base, err := Generate(Config{Schemas: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := Generate(Config{Schemas: 2, WithHR: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if hr.Schemas[0].NumTables() <= base.Schemas[0].NumTables() {
		t.Fatal("WithHR should add tables")
	}
}

// Property: generated datasets always validate, their ground truth
// endpoints always exist, and derived labels cover every element.
func TestGenerateWellFormedProperty(t *testing.T) {
	f := func(seed int64, k, u uint8) bool {
		cfg := Config{
			Schemas:          2 + int(k%5),
			UnrelatedSchemas: int(u % 3),
			Seed:             seed,
		}
		d, err := Generate(cfg)
		if err != nil {
			return false
		}
		for _, s := range d.Schemas {
			if s.Validate() != nil {
				return false
			}
		}
		if d.Truth.Validate(d.Schemas) != nil {
			return false
		}
		labels := d.Labels()
		total := 0
		for _, s := range d.Schemas {
			total += s.NumElements()
		}
		return len(labels) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Integration: collaborative scoping on a synthetic scenario separates the
// unrelated schemas, as on the curated datasets.
func TestCollaborativeScopingOnSynthetic(t *testing.T) {
	d, err := Generate(Config{Schemas: 3, UnrelatedSchemas: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	enc := embed.NewHashEncoder(embed.WithDim(256))
	sets := must(embed.EncodeSchemasContext(context.Background(), 0, enc, d.Schemas))
	scoper, err := core.NewScoperContext(context.Background(), 0, sets, core.AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	keep, err := scoper.ScopeContext(context.Background(), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var bizKept, bizTotal, unrelKept, unrelTotal int
	for id, ok := range keep {
		if len(id.Schema) > 9 && id.Schema[:9] == "Unrelated" {
			unrelTotal++
			if ok {
				unrelKept++
			}
		} else {
			bizTotal++
			if ok {
				bizKept++
			}
		}
	}
	bizRate := float64(bizKept) / float64(bizTotal)
	unrelRate := float64(unrelKept) / float64(unrelTotal)
	if bizRate <= unrelRate {
		t.Fatalf("business keep rate %.2f should exceed unrelated %.2f", bizRate, unrelRate)
	}
}

func TestAllDomainsGenerate(t *testing.T) {
	base, err := Generate(Config{Schemas: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Generate(Config{
		Schemas: 3, WithHR: true, WithFinance: true, WithLogistics: true, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Schemas[0].NumTables() <= base.Schemas[0].NumTables()+2 {
		t.Fatalf("all domains should add ≥ 3 tables: %d vs %d",
			full.Schemas[0].NumTables(), base.Schemas[0].NumTables())
	}
	if err := full.Truth.Validate(full.Schemas); err != nil {
		t.Fatal(err)
	}
	// More shared vocabulary → more linkages.
	if full.Truth.Len() <= base.Truth.Len() {
		t.Fatalf("linkages did not grow: %d vs %d", full.Truth.Len(), base.Truth.Len())
	}
}
