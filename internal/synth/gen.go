package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"collabscope/internal/datasets"
	"collabscope/internal/schema"
)

// Config controls a synthetic scenario. The three probability knobs map
// onto the paper's heterogeneity axes: OptionalProb (volume), SplitProb
// (design), and UnrelatedSchemas (domain).
type Config struct {
	// Schemas is the number of business schemas drawn from the shared
	// commerce domain (≥ 2).
	Schemas int
	// WithHR adds the HR domain's tables to every business schema,
	// widening the shared vocabulary.
	WithHR bool
	// WithFinance and WithLogistics likewise add those domains.
	WithFinance, WithLogistics bool
	// UnrelatedSchemas appends schemas from unrelated domains whose
	// elements are all unlinkable.
	UnrelatedSchemas int
	// OptionalProb is the probability each optional concept materialises
	// in a schema (volume heterogeneity). Default 0.6.
	OptionalProb float64
	// SplitProb is the probability a splittable concept appears in its
	// split form (design heterogeneity). Default 0.4.
	SplitProb float64
	// FillerPerTable adds this many unlinkable filler attributes to every
	// table. Default 2.
	FillerPerTable int
	// Seed makes generation deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.OptionalProb == 0 {
		c.OptionalProb = 0.6
	}
	if c.SplitProb == 0 {
		c.SplitProb = 0.4
	}
	if c.FillerPerTable == 0 {
		c.FillerPerTable = 2
	}
	return c
}

// caseStyle renders canonical UPPER_SNAKE concept names in a schema-wide
// naming convention.
type caseStyle int

const (
	upperSnake caseStyle = iota
	lowerSnake
	camelCase
)

func (cs caseStyle) render(upper string) string {
	switch cs {
	case lowerSnake:
		return strings.ToLower(upper)
	case camelCase:
		parts := strings.Split(strings.ToLower(upper), "_")
		for i := 1; i < len(parts); i++ {
			if parts[i] != "" {
				parts[i] = strings.ToUpper(parts[i][:1]) + parts[i][1:]
			}
		}
		return strings.Join(parts, "")
	default:
		return upper
	}
}

// Generate builds a synthetic dataset with exact ground truth.
func Generate(cfg Config) (*datasets.Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.Schemas < 2 {
		return nil, fmt.Errorf("synth: need at least 2 business schemas, got %d", cfg.Schemas)
	}
	unrelated := unrelatedDomains()
	if cfg.UnrelatedSchemas > len(unrelated) {
		return nil, fmt.Errorf("synth: at most %d unrelated schemas available, got %d",
			len(unrelated), cfg.UnrelatedSchemas)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	doms := []domain{commerceDomain()}
	if cfg.WithHR {
		doms = append(doms, hrDomain())
	}
	if cfg.WithFinance {
		doms = append(doms, financeDomain())
	}
	if cfg.WithLogistics {
		doms = append(doms, logisticsDomain())
	}

	// attrConcepts maps attribute concept key → instantiations across all
	// schemas; tableConcepts likewise for tables. combinedOf maps a split
	// part's key to its combined concept key.
	attrInsts := map[string][]schema.ElementID{}
	tableInsts := map[string][]schema.ElementID{}
	combinedParts := map[string][]string{} // combined key → part keys

	var schemas []*schema.Schema
	for i := 0; i < cfg.Schemas; i++ {
		name := fmt.Sprintf("Biz%02d", i+1)
		style := caseStyle(i % 3)
		s := &schema.Schema{Name: name}
		for _, d := range doms {
			for _, tc := range d.tables {
				t := buildTable(rng, cfg, style, name, tc, attrInsts, combinedParts)
				addFiller(rng, cfg, style, &t, d.filler, i)
				s.Tables = append(s.Tables, t)
				tableInsts[tc.key] = append(tableInsts[tc.key], schema.TableID(name, t.Name))
			}
		}
		s.Normalize()
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("synth: generated schema invalid: %w", err)
		}
		schemas = append(schemas, s)
	}

	// Unrelated schemas: instantiate but record nothing in the
	// ground-truth maps (each unrelated domain appears exactly once).
	for i := 0; i < cfg.UnrelatedSchemas; i++ {
		d := unrelated[i]
		name := fmt.Sprintf("Unrelated-%s", d.name)
		style := caseStyle(rng.Intn(3))
		s := &schema.Schema{Name: name}
		discardAttr := map[string][]schema.ElementID{}
		discardParts := map[string][]string{}
		for _, tc := range d.tables {
			t := buildTable(rng, cfg, style, name, tc, discardAttr, discardParts)
			addFiller(rng, cfg, style, &t, d.filler, cfg.Schemas+i)
			s.Tables = append(s.Tables, t)
		}
		s.Normalize()
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("synth: generated schema invalid: %w", err)
		}
		schemas = append(schemas, s)
	}

	truth := deriveTruth(attrInsts, tableInsts, combinedParts)
	return &datasets.Dataset{
		Name:    fmt.Sprintf("Synth(k=%d,u=%d,seed=%d)", cfg.Schemas, cfg.UnrelatedSchemas, cfg.Seed),
		Schemas: schemas,
		Truth:   truth,
	}, nil
}

// buildTable instantiates one table concept in one schema.
func buildTable(rng *rand.Rand, cfg Config, style caseStyle, schemaName string,
	tc tableConcept, attrInsts map[string][]schema.ElementID, combinedParts map[string][]string) schema.Table {

	tName := style.render(tc.names[rng.Intn(len(tc.names))])
	t := schema.Table{Name: tName}
	add := func(con concept) {
		if len(con.splits) > 0 {
			combinedParts[con.key] = partKeys(con)
			if rng.Float64() < cfg.SplitProb {
				for _, part := range con.splits {
					appendConcept(rng, style, schemaName, &t, part, attrInsts)
				}
				return
			}
		}
		appendConcept(rng, style, schemaName, &t, con, attrInsts)
	}
	for _, con := range tc.core {
		add(con)
	}
	for _, con := range tc.optional {
		if rng.Float64() < cfg.OptionalProb {
			add(con)
		}
	}
	return t
}

func partKeys(con concept) []string {
	keys := make([]string, len(con.splits))
	for i, p := range con.splits {
		keys[i] = p.key
	}
	return keys
}

// appendConcept renders one concept as an attribute and records its
// instantiation for ground-truth derivation.
func appendConcept(rng *rand.Rand, style caseStyle, schemaName string,
	t *schema.Table, con concept, attrInsts map[string][]schema.ElementID) {

	name := style.render(con.names[rng.Intn(len(con.names))])
	// Per-table attribute names must be unique; on collision try other
	// synonyms, then suffix.
	if hasAttr(t, name) {
		placed := false
		for _, alt := range con.names {
			if n := style.render(alt); !hasAttr(t, n) {
				name, placed = n, true
				break
			}
		}
		if !placed {
			name = name + "_2"
		}
	}
	constraint := schema.NoConstraint
	switch {
	case con.isKey:
		constraint = schema.PrimaryKey
	case con.isForKey:
		constraint = schema.ForeignKey
	}
	t.Attributes = append(t.Attributes, schema.Attribute{
		Name: name, Type: con.typ, Constraint: constraint,
	})
	attrInsts[con.key] = append(attrInsts[con.key], schema.AttributeID(schemaName, t.Name, name))
}

func hasAttr(t *schema.Table, name string) bool {
	for _, a := range t.Attributes {
		if strings.EqualFold(a.Name, name) {
			return true
		}
	}
	return false
}

// addFiller appends unlinkable attributes: one (at most) reserved filler
// concept unique to this schema index, then synthetic nonsense columns.
func addFiller(rng *rand.Rand, cfg Config, style caseStyle, t *schema.Table, filler []concept, schemaIdx int) {
	n := cfg.FillerPerTable
	if n <= 0 {
		return
	}
	// Reserved realistic filler: schemaIdx selects a disjoint concept so
	// no two schemas share one.
	if schemaIdx < len(filler) {
		f := filler[schemaIdx]
		name := style.render(f.names[0])
		if !hasAttr(t, name) {
			t.Attributes = append(t.Attributes, schema.Attribute{Name: name, Type: f.typ})
			n--
		}
	}
	// Synthetic nonsense columns are unique by construction.
	for ; n > 0; n-- {
		name := style.render(fmt.Sprintf("%s_X%04d", nonsenseWord(rng), rng.Intn(10000)))
		if hasAttr(t, name) {
			continue
		}
		t.Attributes = append(t.Attributes, schema.Attribute{Name: name, Type: schema.TypeText})
	}
}

var nonsenseWords = []string{
	"QFLX", "ZORB", "VANT", "KRIM", "PLEX", "TRUV", "WOBL", "SNER",
	"GLIP", "DRON", "MUNT", "FIZT",
}

func nonsenseWord(rng *rand.Rand) string {
	return nonsenseWords[rng.Intn(len(nonsenseWords))]
}

// deriveTruth builds L(S) from the recorded instantiations: same concept
// across schemas → inter-identical; combined form versus split part →
// inter-sub-typed; same table concept → inter-identical tables.
func deriveTruth(attrInsts, tableInsts map[string][]schema.ElementID,
	combinedParts map[string][]string) *schema.GroundTruth {

	g := schema.NewGroundTruth()
	link := func(a, b schema.ElementID, typ schema.LinkageType) {
		if a.Schema == b.Schema {
			return
		}
		g.MustAdd(schema.Linkage{A: a, B: b, Type: typ})
	}
	for _, insts := range attrInsts {
		for i := 0; i < len(insts); i++ {
			for j := i + 1; j < len(insts); j++ {
				link(insts[i], insts[j], schema.InterIdentical)
			}
		}
	}
	for combined, parts := range combinedParts {
		for _, whole := range attrInsts[combined] {
			for _, pk := range parts {
				for _, part := range attrInsts[pk] {
					link(whole, part, schema.InterSubTyped)
				}
			}
		}
	}
	for _, insts := range tableInsts {
		for i := 0; i < len(insts); i++ {
			for j := i + 1; j < len(insts); j++ {
				link(insts[i], insts[j], schema.InterIdentical)
			}
		}
	}
	return g
}
