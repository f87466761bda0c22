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
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"collabscope/internal/ann"
	"collabscope/internal/cluster"
	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
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

func less(a, b schema.ElementID) bool { return compareIDs(a, b) < 0 }

// compareIDs orders element IDs by schema, kind, table, then attribute.
func compareIDs(a, b schema.ElementID) int {
	if c := strings.Compare(a.Schema, b.Schema); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := strings.Compare(a.Table, b.Table); c != 0 {
		return c
	}
	return strings.Compare(a.Attribute, b.Attribute)
}

// comparePairs orders pairs by A, then B — the order of every sorted
// matcher result.
func comparePairs(p, q Pair) int {
	if c := compareIDs(p.A, q.A); c != 0 {
		return c
	}
	return compareIDs(p.B, q.B)
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
// sublinear backends (lsh, hnsw, ivf) selected through Index. A K below 1
// links nothing.
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
	return l.matchKinds(splitKinds(a), splitKinds(b))
}

// matchKinds links the same-kind halves of two split sets, tables first.
// Within a kind, a→b hits come first (queries of a ascending, each query's
// hits nearest first), then b→a hits; the first occurrence of a pair
// fixes its place. Exact flat search reads both directions off one
// distance panel; the approximate backends, whose indexes are not
// symmetric, search each direction through its own index.
func (l LSH) matchKinds(a, b kindSets) []Pair {
	backend, err := ann.ParseKind(string(l.Index.Kind))
	if err != nil || l.K < 1 {
		// A bad kind is unreachable for configs validated at construction.
		return nil
	}
	n := 0
	for k := range a {
		n += min(l.K, b[k].Len())*a[k].Len() + min(l.K, a[k].Len())*b[k].Len()
	}
	seen := make(map[Pair]struct{}, n)
	var out []Pair
	if n > 0 {
		out = make([]Pair, 0, n)
	}
	add := func(p Pair) {
		p = p.Canonical()
		if _, ok := seen[p]; !ok {
			seen[p] = struct{}{}
			out = append(out, p)
		}
	}
	var flat panel
	for k := range a {
		if backend == ann.KindFlat {
			flat.match(l.K, a[k], b[k], add)
			continue
		}
		l.direction(a[k], b[k], add)
		l.direction(b[k], a[k], add)
	}
	return out
}

// panel is the reusable storage of exact flat matching: the squared
// distance panel between two same-kind sets, one column of it, and the
// top-k heap.
type panel struct {
	dists *linalg.Dense
	col   []float64
	heap  []int
}

// match adds the top-k of every row and every column of the distance panel
// between a and b: row i ranks b's rows for a's row i, column j ranks a's
// rows for b's row j. Each cell is Σ_k (a_ik − b_jk)² in ascending k, and
// (x−y)² is exactly (y−x)², so a column holds the very distances a flat
// index over a computes for query b_j; TopKInto breaks ties by (value,
// index) as FlatIndex.SearchInto does. The hits are therefore those of
// two per-query flat scans, bit for bit.
func (p *panel) match(k int, a, b *embed.SignatureSet, add func(Pair)) {
	rows, cols := a.Len(), b.Len()
	if rows == 0 || cols == 0 {
		return
	}
	p.dists = linalg.EnsureDense(p.dists, rows, cols)
	linalg.PairwiseSquaredDistancesInto(p.dists, a.Matrix, b.Matrix)
	for i := 0; i < rows; i++ {
		p.heap = linalg.TopKInto(p.dists.RowView(i), k, p.heap)
		for _, j := range p.heap {
			add(Pair{A: a.IDs[i], B: b.IDs[j]})
		}
	}
	if cap(p.col) < rows {
		p.col = make([]float64, rows)
	}
	col := p.col[:rows]
	for j := 0; j < cols; j++ {
		for i := range col {
			col[i] = p.dists.At(i, j)
		}
		p.heap = linalg.TopKInto(col, k, p.heap)
		for _, i := range p.heap {
			add(Pair{A: b.IDs[j], B: a.IDs[i]})
		}
	}
}

// direction searches each query element's top-k in the target set through
// the configured approximate index.
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

// kindSets is one signature set split by element kind: tables, then
// attributes, the order the kind-pairing matchers visit the kinds in.
type kindSets [2]*embed.SignatureSet

// splitKinds copies s's tables and attributes into separate sets.
// MatchAllContext splits each set once, however many schema pairs it
// takes part in.
func splitKinds(s *embed.SignatureSet) kindSets {
	return kindSets{s.TableSignatures(), s.AttributeSignatures()}
}

// MatchAllContext runs the matcher over every pair of schemas and returns
// the deduplicated union of candidates — multi-source matching. The O(k²)
// schema pairs fan out over up to workers goroutines (≤ 0 means
// GOMAXPROCS); candidates are sorted and deduplicated, so the result is
// identical for any worker count. LSH splits each set by kind once here
// rather than once per schema pair.
func MatchAllContext(ctx context.Context, workers int, m Matcher, sets []*embed.SignatureSet) ([]Pair, error) {
	ctx, sp := obs.Start(ctx, "match.all")
	defer sp.End()
	type task struct{ i, j int }
	tasks := make([]task, 0, len(sets)*(len(sets)-1)/2)
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			tasks = append(tasks, task{i, j})
		}
	}
	sp.Annotate("schema_pairs", int64(len(tasks)))
	matchPair := func(t task) []Pair { return m.Match(sets[t.i], sets[t.j]) }
	if l, ok := m.(LSH); ok {
		split := make([]kindSets, len(sets))
		for i, s := range sets {
			split[i] = splitKinds(s)
		}
		matchPair = func(t task) []Pair { return l.matchKinds(split[t.i], split[t.j]) }
	}
	batches, err := parallel.Map(ctx, workers, tasks, func(_ int, t task) ([]Pair, error) {
		return matchPair(t), nil
	})
	if err != nil {
		return nil, err
	}
	out := sortedUnique(slices.Concat(batches...))
	sp.Annotate("pairs", int64(len(out)))
	return out, nil
}

// sortedUnique canonicalises pairs in place, sorts them by comparePairs and
// drops repeats — the one order every multi-pair result is returned in.
func sortedUnique(pairs []Pair) []Pair {
	for i := range pairs {
		pairs[i] = pairs[i].Canonical()
	}
	slices.SortFunc(pairs, comparePairs)
	return slices.Compact(pairs)
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
