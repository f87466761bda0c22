// Package match implements the linkage-generating matching algorithms of
// the paper's ablation study (Section 4.1, after Meduri et al.'s "semantic
// blocking" variants): SIM (cosine-threshold enumeration of the Cartesian
// product), CLUSTER (k-means co-membership), and LSH (top-k
// nearest-neighbour search, FAISS-IndexFlatL2 style) — together with the
// match-quality metrics PQ, PC, F1, and RR of Section 4.2.
//
// All matchers pair only same-kind elements (tables with tables, attributes
// with attributes), matching the structure of the annotated ground truth.
package match

import (
	"context"
	"fmt"
	"sort"

	"collabscope/internal/ann"
	"collabscope/internal/cluster"
	"collabscope/internal/embed"
	"collabscope/internal/parallel"
	"collabscope/internal/schema"
)

// Pair is a generated linkage candidate between elements of two schemas.
// Pairs are symmetric; Canonical puts the endpoints in deterministic order.
type Pair struct {
	A, B schema.ElementID
}

// Canonical returns the pair with endpoints in deterministic order so that
// symmetric duplicates compare equal.
func (p Pair) Canonical() Pair {
	if less(p.B, p.A) {
		p.A, p.B = p.B, p.A
	}
	return p
}

func less(a, b schema.ElementID) bool {
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

// Matcher generates linkage candidates between the elements of two schemas'
// signature sets.
type Matcher interface {
	// Name identifies the matcher and its parameterisation, e.g. "SIM(0.6)".
	Name() string
	// Match returns candidate pairs between the two sets.
	Match(a, b *embed.SignatureSet) []Pair
}

// Sim enumerates the full same-kind Cartesian product and keeps pairs whose
// cosine similarity reaches the threshold — the paper's SIM matcher (and
// the "Preparation" module of Zhang et al.).
type Sim struct {
	// Threshold is the cosine similarity cut, e.g. 0.4, 0.6, 0.8.
	Threshold float64
}

// Name implements Matcher.
func (s Sim) Name() string { return fmt.Sprintf("SIM(%.1f)", s.Threshold) }

// Match implements Matcher. The cosine matrix comes from the blocked
// kernel with norms computed once per set; the kept pairs are identical to
// the per-pair formulation.
func (s Sim) Match(a, b *embed.SignatureSet) []Pair {
	if a.Len() == 0 || b.Len() == 0 {
		return nil
	}
	cos := cosineMatrix(a, b)
	var out []Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if a.IDs[i].Kind != b.IDs[j].Kind {
				continue
			}
			if cos.At(i, j) >= s.Threshold {
				out = append(out, Pair{A: a.IDs[i], B: b.IDs[j]}.Canonical())
			}
		}
	}
	return out
}

// Cluster links cross-schema same-kind elements that k-means groups into
// the same cluster over the joint signature set — the CLUSTER matcher
// (JedAI / Sahay et al. style).
type Cluster struct {
	// K is the number of clusters, e.g. 2, 5, 20.
	K int
	// Seed drives the deterministic k-means++ initialisation.
	Seed int64
}

// Name implements Matcher.
func (c Cluster) Name() string { return fmt.Sprintf("CLUSTER(%d)", c.K) }

// Match implements Matcher.
func (c Cluster) Match(a, b *embed.SignatureSet) []Pair {
	joint := embed.Union([]*embed.SignatureSet{a, b})
	if joint.Len() == 0 {
		return nil
	}
	res, err := cluster.KMeans(joint.Matrix, cluster.Config{K: c.K, Seed: c.Seed})
	if err != nil {
		return nil
	}
	var out []Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			if a.IDs[i].Kind != b.IDs[j].Kind {
				continue
			}
			if res.Assignments[i] == res.Assignments[a.Len()+j] {
				out = append(out, Pair{A: a.IDs[i], B: b.IDs[j]}.Canonical())
			}
		}
	}
	return out
}

// IndexConfig selects and parameterises the ANN index backend of the LSH
// matcher — an alias of ann.Config so callers outside internal/ can carry
// the full backend configuration (kind, tables/bits, M/ef, nlists/nprobe,
// seed) instead of the seed-only subset that used to be plumbed through.
type IndexConfig = ann.Config

// LSH links each element to its top-k nearest same-kind neighbours in the
// other schema, searched in both directions — the paper's LSH matcher,
// implemented like FAISS IndexFlatL2 (exact flat search) by default, with
// sublinear backends (lsh, hnsw, ivf) selected through Index.
type LSH struct {
	// K is the top-k cardinality, e.g. 1, 5, 20.
	K int
	// Index selects the ANN backend and its full parameterisation. The
	// zero value is the exact flat scan. Validate the config at
	// construction time (the registry and NewIndexedLSHMatcher do) — Match
	// cannot report errors.
	Index IndexConfig
}

// Name implements Matcher.
func (l LSH) Name() string {
	switch l.Index.Kind {
	case ann.KindLSH:
		return fmt.Sprintf("LSH*(%d)", l.K)
	case ann.KindHNSW, ann.KindIVF:
		return fmt.Sprintf("LSH[%s](%d)", l.Index.Kind, l.K)
	default:
		return fmt.Sprintf("LSH(%d)", l.K)
	}
}

// Match implements Matcher.
func (l LSH) Match(a, b *embed.SignatureSet) []Pair {
	seen := map[Pair]bool{}
	var out []Pair
	add := func(p Pair) {
		p = p.Canonical()
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, kind := range []schema.ElementKind{schema.KindTable, schema.KindAttribute} {
		fa, fb := filterKind(a, kind), filterKind(b, kind)
		l.direction(fa, fb, add)
		l.direction(fb, fa, add)
	}
	return out
}

// direction searches each query element's top-k in the target set.
func (l LSH) direction(queries, target *embed.SignatureSet, add func(Pair)) {
	if target.Len() == 0 || queries.Len() == 0 {
		return
	}
	idx, err := ann.Build(target.Matrix, l.Index)
	if err != nil {
		// Unreachable for configs validated at construction time.
		return
	}
	var sc ann.Scratch
	var hits []ann.Neighbor
	for i := 0; i < queries.Len(); i++ {
		hits = idx.SearchInto(queries.Matrix.RowView(i), l.K, hits, &sc)
		for _, hit := range hits {
			add(Pair{A: queries.IDs[i], B: target.IDs[hit.Index]})
		}
	}
}

func filterKind(s *embed.SignatureSet, kind schema.ElementKind) *embed.SignatureSet {
	if kind == schema.KindTable {
		return s.TableSignatures()
	}
	return s.AttributeSignatures()
}

// MatchAll runs the matcher over every pair of schemas and returns the
// deduplicated union of candidates — multi-source matching.
func MatchAll(m Matcher, sets []*embed.SignatureSet) []Pair {
	pairs, _ := MatchAllContext(context.Background(), 0, m, sets)
	return pairs
}

// MatchAllContext is MatchAll with cancellation and an explicit worker
// count (≤ 0 means GOMAXPROCS). The O(k²) schema pairs fan out over the
// pool; candidates are deduplicated in pair-enumeration order and sorted,
// so the result is identical for any worker count.
func MatchAllContext(ctx context.Context, workers int, m Matcher, sets []*embed.SignatureSet) ([]Pair, error) {
	type task struct{ i, j int }
	var tasks []task
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			tasks = append(tasks, task{i, j})
		}
	}
	batches, err := parallel.Map(ctx, workers, tasks, func(_ int, t task) ([]Pair, error) {
		return m.Match(sets[t.i], sets[t.j]), nil
	})
	if err != nil {
		return nil, err
	}
	seen := map[Pair]bool{}
	var out []Pair
	for _, batch := range batches {
		for _, p := range batch {
			p = p.Canonical()
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return less(out[i].A, out[j].A)
		}
		return less(out[i].B, out[j].B)
	})
	return out, nil
}

// Eval holds the match-quality metrics of Section 4.2.
type Eval struct {
	// PQ is Pair Quality (precision): |A∩L| / |A|.
	PQ float64
	// PC is Pair Completeness (recall): |A∩L| / |L|.
	PC float64
	// F1 is the harmonic mean of PQ and PC.
	F1 float64
	// RR is the Reduction Ratio: 1 − |A| / CartesianSize.
	RR float64
	// Generated is |A|, the number of generated pairs.
	Generated int
	// Correct is |A∩L|.
	Correct int
}

// Evaluate scores generated pairs against the ground truth. cartesian is
// the same-kind Cartesian product size of the ORIGINAL schemas
// (tables×tables + attributes×attributes summed over schema pairs), so RR
// measures the search-space reduction relative to unscoped matching.
func Evaluate(pairs []Pair, gt *schema.GroundTruth, cartesian int) Eval {
	var e Eval
	seen := map[Pair]bool{}
	for _, p := range pairs {
		p = p.Canonical()
		if seen[p] {
			continue
		}
		seen[p] = true
		e.Generated++
		if gt.Contains(p.A, p.B) {
			e.Correct++
		}
	}
	if e.Generated > 0 {
		e.PQ = float64(e.Correct) / float64(e.Generated)
	}
	if gt.Len() > 0 {
		e.PC = float64(e.Correct) / float64(gt.Len())
	}
	if e.PQ+e.PC > 0 {
		e.F1 = 2 * e.PQ * e.PC / (e.PQ + e.PC)
	}
	if cartesian > 0 {
		e.RR = 1 - float64(e.Generated)/float64(cartesian)
	}
	return e
}

// Cartesian returns the same-kind Cartesian product size over all schema
// pairs: Σ (tablesᵢ·tablesⱼ + attrsᵢ·attrsⱼ).
func Cartesian(schemas []*schema.Schema) int {
	return schema.CartesianTables(schemas) + schema.CartesianAttributes(schemas)
}
