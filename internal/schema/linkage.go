package schema

import (
	"fmt"
	"sort"

	"collabscope/internal/token"
)

// LinkageType classifies an annotated linkage per Section 2.1.
type LinkageType string

// Linkage types of Section 2.1.
const (
	InterIdentical LinkageType = "inter-identical"
	InterSubTyped  LinkageType = "inter-sub-typed"
)

// Linkage is an annotated semantic congruence between two elements of
// different schemas. The relation is symmetric; a linkage and its swap are
// the same fact.
type Linkage struct {
	A, B ElementID
	Type LinkageType
}

// canonical orders the endpoints deterministically so that symmetric pairs
// compare equal.
func (l Linkage) canonical() Linkage {
	if elementLess(l.B, l.A) {
		l.A, l.B = l.B, l.A
	}
	return l
}

func elementLess(a, b ElementID) bool {
	if a.Schema != b.Schema {
		return a.Schema < b.Schema
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	return a.Attribute < b.Attribute
}

// GroundTruth is the annotated linkage set L(S) over a set of schemas.
type GroundTruth struct {
	links map[Linkage]bool // canonicalised, type-erased key handled below
}

// NewGroundTruth returns an empty linkage set.
func NewGroundTruth() *GroundTruth {
	return &GroundTruth{links: map[Linkage]bool{}}
}

// Add records a linkage. Symmetric duplicates collapse. It returns an error
// if the endpoints are in the same schema or of different kinds.
func (g *GroundTruth) Add(l Linkage) error {
	if l.A.Schema == l.B.Schema {
		return fmt.Errorf("schema: intra-schema linkage %s ~ %s", l.A, l.B)
	}
	if l.A.Kind != l.B.Kind {
		return fmt.Errorf("schema: kind mismatch in linkage %s ~ %s", l.A, l.B)
	}
	g.links[l.canonical()] = true
	return nil
}

// MustAdd is Add but panics on error; intended for curated datasets.
func (g *GroundTruth) MustAdd(l Linkage) {
	if err := g.Add(l); err != nil {
		panic(err)
	}
}

// Contains reports whether the (symmetric) pair a~b is annotated, with any
// linkage type.
func (g *GroundTruth) Contains(a, b ElementID) bool {
	if g.links[(Linkage{A: a, B: b, Type: InterIdentical}).canonical()] {
		return true
	}
	return g.links[(Linkage{A: a, B: b, Type: InterSubTyped}).canonical()]
}

// Linkages returns all annotated linkages in deterministic order.
func (g *GroundTruth) Linkages() []Linkage {
	out := make([]Linkage, 0, len(g.links))
	for l := range g.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return elementLess(out[i].A, out[j].A)
		}
		if out[i].B != out[j].B {
			return elementLess(out[i].B, out[j].B)
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// Len returns the number of distinct annotated linkages.
func (g *GroundTruth) Len() int { return len(g.links) }

// CountByType returns the number of inter-identical and inter-sub-typed
// linkages (Table 3 columns II and IS).
func (g *GroundTruth) CountByType() (identical, subTyped int) {
	for l := range g.links {
		if l.Type == InterIdentical {
			identical++
		} else {
			subTyped++
		}
	}
	return identical, subTyped
}

// CountBetween counts linkages whose endpoints lie in the two named schemas,
// split by type.
func (g *GroundTruth) CountBetween(schemaA, schemaB string) (identical, subTyped int) {
	for l := range g.links {
		if (l.A.Schema == schemaA && l.B.Schema == schemaB) ||
			(l.A.Schema == schemaB && l.B.Schema == schemaA) {
			if l.Type == InterIdentical {
				identical++
			} else {
				subTyped++
			}
		}
	}
	return identical, subTyped
}

// LinkableSet derives Definition 1: the set of elements that occur in at
// least one annotated linkage.
func (g *GroundTruth) LinkableSet() map[ElementID]bool {
	out := map[ElementID]bool{}
	for l := range g.links {
		out[l.A] = true
		out[l.B] = true
	}
	return out
}

// Labels returns the linkable (true) / unlinkable (false) label for every
// element of the given schemas, keyed by element identifier.
func (g *GroundTruth) Labels(schemas []*Schema) map[ElementID]bool {
	linkable := g.LinkableSet()
	out := map[ElementID]bool{}
	for _, s := range schemas {
		for _, id := range s.ElementIDs() {
			out[id] = linkable[id]
		}
	}
	return out
}

// Validate checks that every linkage endpoint exists in the given schemas.
func (g *GroundTruth) Validate(schemas []*Schema) error {
	byName := map[string]*Schema{}
	for _, s := range schemas {
		byName[s.Name] = s
	}
	exists := func(id ElementID) bool {
		s, ok := byName[id.Schema]
		if !ok {
			return false
		}
		if id.Kind == KindTable {
			return s.Table(id.Table) != nil
		}
		return s.Attribute(id.Table, id.Attribute) != nil
	}
	for l := range g.links {
		if !exists(l.A) {
			return fmt.Errorf("schema: linkage endpoint %s not found", l.A)
		}
		if !exists(l.B) {
			return fmt.Errorf("schema: linkage endpoint %s not found", l.B)
		}
	}
	return nil
}

// UnlinkableOverhead computes (|S| − |S′|)/|S′| of Definition 2 from the
// label distribution: unlinkable count over linkable count.
func UnlinkableOverhead(labels map[ElementID]bool) float64 { // lintobs:allow tests in schema and datasets check Definition 2 through it
	var linkable, unlinkable int
	for _, v := range labels {
		if v {
			linkable++
		} else {
			unlinkable++
		}
	}
	if linkable == 0 {
		return 0
	}
	return float64(unlinkable) / float64(linkable)
}

// FKTargets reconstructs intra-schema foreign-key reference targets:
// attribute element ID → name of the table the FK points at. The DDL
// parser deliberately drops REFERENCES targets from the metadata model
// (§2.3 keeps only the constraint marker), so targets are re-derived
// deterministically from structure alone: a FOREIGN KEY attribute points
// at the table — other than its own — whose name tokens best overlap the
// attribute's name tokens, plural-insensitively (CUSTOMER_ID → CUSTOMERS).
// Ties keep the earliest table in declaration order; zero overlap yields
// no target. Only schema structure is consulted, never GroundTruth — the
// enrichment stage built on this must stay label-free.
func FKTargets(s *Schema) map[ElementID]string {
	type tableTokens struct {
		name   string
		tokens map[string]bool
	}
	tables := make([]tableTokens, 0, len(s.Tables))
	for _, t := range s.Tables {
		toks := map[string]bool{}
		for _, tok := range token.Normalize(t.Name) {
			toks[singular(tok)] = true
		}
		tables = append(tables, tableTokens{name: t.Name, tokens: toks})
	}
	out := map[ElementID]string{}
	for _, t := range s.Tables {
		for _, a := range t.Attributes {
			if a.Constraint != ForeignKey {
				continue
			}
			best, bestScore := "", 0
			for _, cand := range tables {
				if cand.name == t.Name {
					continue
				}
				score := 0
				for _, tok := range token.Normalize(a.Name) {
					if cand.tokens[singular(tok)] {
						score++
					}
				}
				if score > bestScore {
					best, bestScore = cand.name, score
				}
			}
			if best != "" {
				out[AttributeID(s.Name, t.Name, a.Name)] = best
			}
		}
	}
	return out
}

// singular strips a trailing plural-s so CUSTOMERS and CUSTOMER compare
// equal. Tokens of ≤ 3 bytes and double-s endings pass through unchanged;
// the rule is applied to both comparison sides, so it only needs to be
// consistent, not linguistically perfect.
func singular(tok string) string {
	if len(tok) > 3 && tok[len(tok)-1] == 's' && tok[len(tok)-2] != 's' {
		return tok[:len(tok)-1]
	}
	return tok
}

// CartesianTables returns Σ over schema pairs of |tables_k|·|tables_m|.
func CartesianTables(schemas []*Schema) int {
	total := 0
	for i := 0; i < len(schemas); i++ {
		for j := i + 1; j < len(schemas); j++ {
			total += schemas[i].NumTables() * schemas[j].NumTables()
		}
	}
	return total
}

// CartesianAttributes returns Σ over schema pairs of |attrs_k|·|attrs_m|.
func CartesianAttributes(schemas []*Schema) int {
	total := 0
	for i := 0; i < len(schemas); i++ {
		for j := i + 1; j < len(schemas); j++ {
			total += schemas[i].NumAttributes() * schemas[j].NumAttributes()
		}
	}
	return total
}
