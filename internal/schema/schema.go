// Package schema models relational schema metadata for multi-source schema
// matching: schemas, tables, attributes, data types and key constraints, the
// textual serialisations T^a and T^t of Section 2.3 of the paper, annotated
// ground-truth linkages L(S), and the derived linkability labels of
// Definition 1.
//
// Instance data is deliberately absent: the paper targets privacy-preserving
// organisations and data markets where only metadata is exchanged.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// DataType is a coarse, vendor-neutral attribute data type. Vendor types
// (VARCHAR2, NVARCHAR, TEXT, …) normalise onto these buckets.
type DataType string

// Vendor-neutral data types.
const (
	TypeUnknown   DataType = "UNKNOWN"
	TypeText      DataType = "TEXT"
	TypeNumber    DataType = "NUMBER"
	TypeDecimal   DataType = "DECIMAL"
	TypeDate      DataType = "DATE"
	TypeTimestamp DataType = "TIMESTAMP"
	TypeBoolean   DataType = "BOOLEAN"
	TypeBinary    DataType = "BINARY"
)

// Constraint is a key constraint on an attribute. Per Section 2.3 the
// serialisation is restricted to PRIMARY KEY and FOREIGN KEY, the latter
// without its reference.
type Constraint string

// Supported constraints.
const (
	NoConstraint Constraint = ""
	PrimaryKey   Constraint = "PRIMARY KEY"
	ForeignKey   Constraint = "FOREIGN KEY"
)

// Attribute is a table column described only by metadata: its own name, the
// owning table name, a data type, and an optional key constraint.
//
// Samples optionally carries instance value samples, as data markets
// sometimes provide (§2.3). The default serialisation ignores them — the
// paper shows instance samples make matching LESS effective overall — but
// SerializeAttributeWithSamples includes them for the enrichment ablation.
type Attribute struct {
	Name       string     `json:"name"`
	Table      string     `json:"table"`
	Type       DataType   `json:"type"`
	Constraint Constraint `json:"constraint,omitempty"`
	Samples    []string   `json:"samples,omitempty"`
}

// Table is a named set of attributes.
type Table struct {
	Name       string      `json:"name"`
	Attributes []Attribute `json:"attributes"`
}

// Schema is a named set of tables.
type Schema struct {
	Name   string  `json:"name"`
	Tables []Table `json:"tables"`
}

// ElementKind distinguishes table elements from attribute elements.
type ElementKind int

// Element kinds.
const (
	KindTable ElementKind = iota
	KindAttribute
)

// String returns "table" or "attribute".
func (k ElementKind) String() string {
	if k == KindTable {
		return "table"
	}
	return "attribute"
}

// ElementID uniquely identifies a table or attribute across a set of
// schemas. For tables Attribute is empty.
type ElementID struct {
	Schema    string      `json:"schema"`
	Table     string      `json:"table"`
	Attribute string      `json:"attribute,omitempty"`
	Kind      ElementKind `json:"kind"`
}

// TableID returns the element identifier for a table.
func TableID(schemaName, table string) ElementID {
	return ElementID{Schema: schemaName, Table: table, Kind: KindTable}
}

// AttributeID returns the element identifier for an attribute.
func AttributeID(schemaName, table, attr string) ElementID {
	return ElementID{Schema: schemaName, Table: table, Attribute: attr, Kind: KindAttribute}
}

// String renders the identifier as schema.table or schema.table.attribute.
func (id ElementID) String() string {
	if id.Kind == KindTable {
		return id.Schema + "." + id.Table
	}
	return id.Schema + "." + id.Table + "." + id.Attribute
}

// Element couples an identifier with its serialised text sequence.
type Element struct {
	ID   ElementID
	Text string
}

// NumTables returns the number of tables in the schema.
func (s *Schema) NumTables() int { return len(s.Tables) }

// NumAttributes returns the total number of attributes across all tables.
func (s *Schema) NumAttributes() int {
	n := 0
	for _, t := range s.Tables {
		n += len(t.Attributes)
	}
	return n
}

// NumElements returns the number of schema elements (tables + attributes).
func (s *Schema) NumElements() int { return s.NumTables() + s.NumAttributes() }

// Table returns the named table, or nil if absent.
func (s *Schema) Table(name string) *Table {
	for i := range s.Tables {
		if strings.EqualFold(s.Tables[i].Name, name) {
			return &s.Tables[i]
		}
	}
	return nil
}

// Attribute returns the named attribute of the named table, or nil.
func (s *Schema) Attribute(table, attr string) *Attribute {
	t := s.Table(table)
	if t == nil {
		return nil
	}
	for i := range t.Attributes {
		if strings.EqualFold(t.Attributes[i].Name, attr) {
			return &t.Attributes[i]
		}
	}
	return nil
}

// Elements lists every element of the schema — all tables followed by their
// attributes, in declaration order — each with its serialised text (T^t for
// tables, T^a for attributes).
func (s *Schema) Elements() []Element {
	out := make([]Element, 0, s.NumElements())
	for _, t := range s.Tables {
		out = append(out, Element{ID: TableID(s.Name, t.Name), Text: SerializeTable(t)})
	}
	for _, t := range s.Tables {
		for _, a := range t.Attributes {
			out = append(out, Element{ID: AttributeID(s.Name, t.Name, a.Name), Text: SerializeAttribute(a)})
		}
	}
	return out
}

// ElementIDs lists every element identifier of the schema in the same order
// as Elements.
func (s *Schema) ElementIDs() []ElementID {
	els := s.Elements()
	out := make([]ElementID, len(els))
	for i, e := range els {
		out[i] = e.ID
	}
	return out
}

// Validate checks structural well-formedness: non-empty names, unique table
// names, and unique attribute names per table, with each attribute's Table
// field matching its owner.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: empty schema name")
	}
	seenT := map[string]bool{}
	for _, t := range s.Tables {
		if t.Name == "" {
			return fmt.Errorf("schema %s: empty table name", s.Name)
		}
		key := strings.ToLower(t.Name)
		if seenT[key] {
			return fmt.Errorf("schema %s: duplicate table %s", s.Name, t.Name)
		}
		seenT[key] = true
		seenA := map[string]bool{}
		for _, a := range t.Attributes {
			if a.Name == "" {
				return fmt.Errorf("schema %s.%s: empty attribute name", s.Name, t.Name)
			}
			akey := strings.ToLower(a.Name)
			if seenA[akey] {
				return fmt.Errorf("schema %s.%s: duplicate attribute %s", s.Name, t.Name, a.Name)
			}
			seenA[akey] = true
			if a.Table != "" && !strings.EqualFold(a.Table, t.Name) {
				return fmt.Errorf("schema %s.%s.%s: attribute table field %q does not match owner",
					s.Name, t.Name, a.Name, a.Table)
			}
		}
	}
	return nil
}

// Normalize fills in each attribute's Table field from its owning table and
// upgrades unknown data types, returning the schema for chaining.
func (s *Schema) Normalize() *Schema {
	for i := range s.Tables {
		t := &s.Tables[i]
		for j := range t.Attributes {
			a := &t.Attributes[j]
			a.Table = t.Name
			if a.Type == "" {
				a.Type = TypeUnknown
			}
		}
	}
	return s
}

// Subset returns a copy of the schema containing only the elements in keep.
// A kept attribute implies its table shell is kept (with only kept
// attributes); a kept table is retained even if none of its attributes are.
// This realises the streamlined schema S′ of Definition 2.
func (s *Schema) Subset(keep map[ElementID]bool) *Schema {
	out := &Schema{Name: s.Name}
	for _, t := range s.Tables {
		keepTable := keep[TableID(s.Name, t.Name)]
		var attrs []Attribute
		for _, a := range t.Attributes {
			if keep[AttributeID(s.Name, t.Name, a.Name)] {
				attrs = append(attrs, a)
			}
		}
		if keepTable || len(attrs) > 0 {
			out.Tables = append(out.Tables, Table{Name: t.Name, Attributes: attrs})
		}
	}
	return out
}

// SerializeAttribute renders T^a(a): "NAME TABLE TYPE [CONSTRAINT]", e.g.
// "CID CLIENT NUMBER PRIMARY KEY" (Section 2.3).
func SerializeAttribute(a Attribute) string {
	parts := []string{a.Name, a.Table, string(a.Type)}
	if a.Constraint != NoConstraint {
		parts = append(parts, string(a.Constraint))
	}
	return strings.Join(parts, " ")
}

// SerializeAttributeWithSamples renders T^a(a) with instance samples
// appended in parentheses, e.g. "NAME CLIENT TEXT (Michael Scott)" —
// the §2.3 enrichment variant.
func SerializeAttributeWithSamples(a Attribute) string {
	base := SerializeAttribute(a)
	if len(a.Samples) == 0 {
		return base
	}
	return base + " (" + strings.Join(a.Samples, ", ") + ")"
}

// ElementsWithSamples is Elements with attribute serialisations that
// include instance samples.
func (s *Schema) ElementsWithSamples() []Element { // lintobs:allow the §2.3 enrichment experiment in embed's tests and schema's tests call it
	out := make([]Element, 0, s.NumElements())
	for _, t := range s.Tables {
		out = append(out, Element{ID: TableID(s.Name, t.Name), Text: SerializeTable(t)})
	}
	for _, t := range s.Tables {
		for _, a := range t.Attributes {
			out = append(out, Element{
				ID:   AttributeID(s.Name, t.Name, a.Name),
				Text: SerializeAttributeWithSamples(a),
			})
		}
	}
	return out
}

// SerializeTable renders T^t(t): "TABLE [A1, A2, …]", e.g.
// "CLIENT [CID, NAME, ADDRESS, PHONE]" (Section 2.3).
func SerializeTable(t Table) string {
	names := make([]string, len(t.Attributes))
	for i, a := range t.Attributes {
		names[i] = a.Name
	}
	return t.Name + " [" + strings.Join(names, ", ") + "]"
}

// SortElementIDs orders identifiers deterministically (schema, kind, table,
// attribute) in place and returns the slice.
func SortElementIDs(ids []ElementID) []ElementID {
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
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
	})
	return ids
}
