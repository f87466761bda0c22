// Package er adapts collaborative scoping to entity resolution — the
// future-work direction of Section 5 and the setting of the authors' prior
// "Collective Scoping" work: multiple record sources, of which only a
// fraction of records have duplicates in other sources. Each source trains
// a local encoder-decoder over its record signatures; records no foreign
// model recognises are pruned before blocking, shrinking the candidate
// space without losing true matches.
//
// Records reuse the schema-element machinery by mapping a record to an
// ElementID{Schema: source, Table: entity type, Attribute: record key}.
package er

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"collabscope/internal/ann"
	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/schema"
)

// Record is one entity description from one source.
type Record struct {
	// Source names the owning record source.
	Source string
	// Key identifies the record within its source.
	Key string
	// Entity is the entity type (e.g. "person"); records of different
	// entity types never pair.
	Entity string
	// Fields holds attribute name → value.
	Fields map[string]string
}

// ID maps the record onto the element-identifier space.
func (r Record) ID() schema.ElementID {
	return schema.AttributeID(r.Source, r.Entity, r.Key)
}

// Serialize renders the record as a text sequence: field names and values
// in sorted field order, the record-level analogue of T^a.
func (r Record) Serialize() string {
	fields := make([]string, 0, len(r.Fields))
	for f := range r.Fields {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	parts := make([]string, 0, 2*len(fields)+1)
	parts = append(parts, r.Entity)
	for _, f := range fields {
		parts = append(parts, f, r.Fields[f])
	}
	return strings.Join(parts, " ")
}

// Source is a named set of records.
type Source struct {
	Name    string
	Records []Record
}

// EncodeSource encodes all records of a source into a signature set. All
// record serialisations go to the encoder as one batch (amortising round
// trips on remote backends), validated through the same ingress guard as
// schema encoding.
func EncodeSource(enc embed.Encoder, src Source) (*embed.SignatureSet, error) {
	if len(src.Records) == 0 {
		return nil, fmt.Errorf("er: source %s has no records", src.Name)
	}
	els := make([]schema.Element, len(src.Records))
	seen := map[string]bool{}
	for i, r := range src.Records {
		if r.Source != src.Name {
			return nil, fmt.Errorf("er: record %s claims source %s inside source %s", r.Key, r.Source, src.Name)
		}
		if seen[r.Key] {
			return nil, fmt.Errorf("er: duplicate record key %s in source %s", r.Key, src.Name)
		}
		seen[r.Key] = true
		els[i] = schema.Element{ID: r.ID(), Text: r.Serialize()}
	}
	return embed.EncodeElementsContext(context.Background(), 0, enc, els) // lintobs:allow the entity-resolution API takes no context
}

// Scope runs collaborative scoping over record sources at explained
// variance v: every record is kept iff some other source's model
// reconstructs it within range.
func Scope(enc embed.Encoder, sources []Source, v float64) (map[schema.ElementID]bool, error) {
	sets := make([]*embed.SignatureSet, len(sources))
	for i, src := range sources {
		set, err := EncodeSource(enc, src)
		if err != nil {
			return nil, err
		}
		sets[i] = set
	}
	ctx := context.Background() // lintobs:allow the entity-resolution API takes no context
	scoper, err := core.NewScoperContext(ctx, 0, sets, core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	return scoper.ScopeContext(ctx, v)
}

// CandidatePair is a blocking candidate between records of two sources.
type CandidatePair struct {
	A, B schema.ElementID
}

func (p CandidatePair) canonical() CandidatePair {
	if p.B.Schema < p.A.Schema || (p.B.Schema == p.A.Schema && p.B.Attribute < p.A.Attribute) {
		p.A, p.B = p.B, p.A
	}
	return p
}

// IndexBuilder constructs the ANN index the blocking stage searches over
// one source's signature matrix — ann.Build curried with a config in
// practice. nil means the exact FlatIndex.
type IndexBuilder func(x *linalg.Dense) (ann.Index, error)

// BlockTopK generates candidate pairs by top-k nearest-neighbour search of
// every (kept) record against every other source's kept records, matching
// the paper's LSH-style semantic blocking. keep may be nil to block all
// records.
func BlockTopK(enc embed.Encoder, sources []Source, keep map[schema.ElementID]bool, k int) ([]CandidatePair, error) {
	return BlockTopKIndex(enc, sources, keep, k, nil)
}

// BlockTopKIndex is BlockTopK with the neighbour search running on a
// caller-chosen index backend: each source's kept signatures are indexed
// once, then every other source's records query it. A sublinear backend
// (hnsw, ivf) turns the O(records²) pairwise scan into the index's query
// cost, which is what makes 10⁵+-record blocking tractable.
func BlockTopKIndex(enc embed.Encoder, sources []Source, keep map[schema.ElementID]bool, k int, build IndexBuilder) ([]CandidatePair, error) {
	if build == nil {
		build = func(x *linalg.Dense) (ann.Index, error) { return ann.NewFlatIndex(x), nil }
	}
	sets := make([]*embed.SignatureSet, len(sources))
	for i, src := range sources {
		set, err := EncodeSource(enc, src)
		if err != nil {
			return nil, err
		}
		if keep != nil {
			set = set.Select(keep)
		}
		sets[i] = set
	}
	// One index per target source, built once and queried by every other
	// source.
	idxs := make([]ann.Index, len(sets))
	for j := range sets {
		if sets[j].Len() == 0 {
			continue
		}
		idx, err := build(sets[j].Matrix)
		if err != nil {
			return nil, fmt.Errorf("er: blocking index for source %s: %w", sources[j].Name, err)
		}
		idxs[j] = idx
	}
	seen := map[CandidatePair]bool{}
	var out []CandidatePair
	var sc ann.Scratch
	var hits []ann.Neighbor
	for i := range sets {
		for j := range sets {
			if i == j || sets[j].Len() == 0 {
				continue
			}
			idx := idxs[j]
			for q := 0; q < sets[i].Len(); q++ {
				hits = idx.SearchInto(sets[i].Matrix.RowView(q), k, hits, &sc)
				for _, hit := range hits {
					a, b := sets[i].IDs[q], sets[j].IDs[hit.Index]
					if a.Table != b.Table {
						continue // different entity types
					}
					p := (CandidatePair{A: a, B: b}).canonical()
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].A != out[b].A {
			return out[a].A.String() < out[b].A.String()
		}
		return out[a].B.String() < out[b].B.String()
	})
	return out, nil
}

// Truth is the set of true duplicate pairs.
type Truth struct {
	pairs map[CandidatePair]bool
}

// NewTruth returns an empty duplicate-pair set.
func NewTruth() *Truth { return &Truth{pairs: map[CandidatePair]bool{}} }

// Add records a true duplicate pair (symmetric).
func (t *Truth) Add(a, b schema.ElementID) {
	t.pairs[(CandidatePair{A: a, B: b}).canonical()] = true
}

// Len returns the number of true pairs.
func (t *Truth) Len() int { return len(t.pairs) }

// Contains reports whether the pair is a true duplicate.
func (t *Truth) Contains(p CandidatePair) bool { return t.pairs[p.canonical()] }

// MatchedRecords returns the set of records occurring in any true pair —
// the "linkable" records of Definition 1 transposed to entity resolution.
func (t *Truth) MatchedRecords() map[schema.ElementID]bool { // lintobs:allow public API: er.Truth aliases this type
	out := map[schema.ElementID]bool{}
	for p := range t.pairs {
		out[p.A] = true
		out[p.B] = true
	}
	return out
}

// Eval holds blocking quality: pair quality, pair completeness, and the
// candidate count.
type Eval struct {
	PQ, PC     float64
	Candidates int
	Correct    int
}

// Evaluate scores candidate pairs against the truth.
func Evaluate(cands []CandidatePair, truth *Truth) Eval {
	var e Eval
	seen := map[CandidatePair]bool{}
	for _, p := range cands {
		p = p.canonical()
		if seen[p] {
			continue
		}
		seen[p] = true
		e.Candidates++
		if truth.Contains(p) {
			e.Correct++
		}
	}
	if e.Candidates > 0 {
		e.PQ = float64(e.Correct) / float64(e.Candidates)
	}
	if truth.Len() > 0 {
		e.PC = float64(e.Correct) / float64(truth.Len())
	}
	return e
}
