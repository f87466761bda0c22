package match

import (
	"fmt"
	"math"
	"sort"

	"collabscope/internal/embed"
	"collabscope/internal/schema"
)

// Flooding implements Similarity Flooding (Melnik, Garcia-Molina, Rahm —
// ICDE 2002) over schema graphs: initial lexical similarities between node
// pairs propagate through the pairwise connectivity graph until a fixpoint,
// so structurally corresponding elements reinforce each other. It is one of
// the classic element+structure matchers the paper cites via the Valentine
// project.
//
// Match (the Matcher interface) works from SignatureSet identifiers alone —
// schema→table→attribute structure without data types.
type Flooding struct {
	// Threshold selects pairs whose converged similarity reaches this
	// fraction of the per-kind maximum (relative selection), e.g. 0.6.
	Threshold float64
	// MaxIter bounds fixpoint iterations; 50 if zero.
	MaxIter int
}

// Name implements Matcher.
func (f Flooding) Name() string { return fmt.Sprintf("FLOOD(%.1f)", f.Threshold) }

// Match implements Matcher.
func (f Flooding) Match(a, b *embed.SignatureSet) []Pair {
	return f.run(buildGraph(a), buildGraph(b))
}

// graphNode is a node of one schema's graph: the schema root, a table or
// an attribute.
type graphNode struct {
	kind string // "schema", "table", "attr"
	id   schema.ElementID
}

// schemaGraph is the directed labelled graph of one schema.
type schemaGraph struct {
	nodes []graphNode
	// edges[label] lists (from, to) node-index pairs.
	edges map[string][][2]int
}

// buildGraph derives a schema graph from a signature set's identifiers.
func buildGraph(set *embed.SignatureSet) *schemaGraph {
	g := &schemaGraph{edges: map[string][][2]int{}}
	add := func(n graphNode) int {
		g.nodes = append(g.nodes, n)
		return len(g.nodes) - 1
	}
	schemaIdx := add(graphNode{kind: "schema"})
	tableIdx := map[string]int{}
	for _, id := range set.IDs {
		if id.Kind != schema.KindTable {
			continue
		}
		ti := add(graphNode{kind: "table", id: id})
		tableIdx[id.Table] = ti
		g.edges["table"] = append(g.edges["table"], [2]int{schemaIdx, ti})
	}
	for _, id := range set.IDs {
		if id.Kind != schema.KindAttribute {
			continue
		}
		ai := add(graphNode{kind: "attr", id: id})
		if ti, ok := tableIdx[id.Table]; ok {
			g.edges["column"] = append(g.edges["column"], [2]int{ti, ai})
		} else {
			// Streamlined schemas may lack the table shell; attach the
			// attribute to the schema root so it still participates.
			g.edges["column"] = append(g.edges["column"], [2]int{schemaIdx, ai})
		}
	}
	return g
}

// run executes the fixpoint propagation and relative selection.
func (f Flooding) run(ga, gb *schemaGraph) []Pair {
	maxIter := f.MaxIter
	if maxIter <= 0 {
		maxIter = 50
	}
	na, nb := len(ga.nodes), len(gb.nodes)
	if na == 0 || nb == 0 {
		return nil
	}
	idx := func(i, j int) int { return i*nb + j }

	// σ⁰: lexical similarity for comparable node kinds.
	sigma0 := make([]float64, na*nb)
	for i, x := range ga.nodes {
		for j, y := range gb.nodes {
			sigma0[idx(i, j)] = initialSim(x, y)
		}
	}

	// Pairwise-connectivity-graph propagation arcs with inverse-product
	// coefficients, in both directions (the "C" fixpoint formula).
	type prop struct {
		from, to int
		w        float64
	}
	var props []prop
	for label, ea := range ga.edges {
		eb := gb.edges[label]
		if len(eb) == 0 {
			continue
		}
		outA := map[int]int{}
		for _, e := range ea {
			outA[e[0]]++
		}
		outB := map[int]int{}
		for _, e := range eb {
			outB[e[0]]++
		}
		for _, x := range ea {
			for _, y := range eb {
				w := 1 / float64(outA[x[0]]*outB[y[0]])
				from := idx(x[0], y[0])
				to := idx(x[1], y[1])
				props = append(props, prop{from, to, w})
				props = append(props, prop{to, from, w})
			}
		}
	}

	// Fixpoint: σ^{k+1} = normalize(σ⁰ + σ^k + Σ props).
	sigma := append([]float64(nil), sigma0...)
	next := make([]float64, na*nb)
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = sigma0[i] + sigma[i]
		}
		for _, p := range props {
			next[p.to] += sigma[p.from] * p.w
		}
		var max float64
		for _, v := range next {
			if v > max {
				max = v
			}
		}
		if max > 0 {
			inv := 1 / max
			for i := range next {
				next[i] *= inv
			}
		}
		var delta float64
		for i := range next {
			delta += math.Abs(next[i] - sigma[i])
		}
		sigma, next = next, sigma
		if delta < 1e-6 {
			break
		}
	}

	// Relative selection per element kind.
	type cand struct {
		p   Pair
		sim float64
	}
	var cands []cand
	maxByKind := map[string]float64{}
	for i, x := range ga.nodes {
		if x.kind != "table" && x.kind != "attr" {
			continue
		}
		for j, y := range gb.nodes {
			if y.kind != x.kind {
				continue
			}
			s := sigma[idx(i, j)]
			if s > maxByKind[x.kind] {
				maxByKind[x.kind] = s
			}
			cands = append(cands, cand{Pair{A: x.id, B: y.id}.Canonical(), s})
		}
	}
	var out []Pair
	for _, c := range cands {
		kind := "attr"
		if c.p.A.Kind == schema.KindTable {
			kind = "table"
		}
		if m := maxByKind[kind]; m > 0 && c.sim >= f.Threshold*m {
			out = append(out, c.p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return less(out[i].A, out[j].A)
		}
		return less(out[i].B, out[j].B)
	})
	return out
}

// initialSim scores two graph nodes lexically: names for tables and
// attributes, constant for schema roots.
func initialSim(a, b graphNode) float64 {
	switch {
	case a.kind != b.kind:
		return 0
	case a.kind == "schema":
		return 1
	default:
		return NameSimilarity(elementName(a.id), elementName(b.id))
	}
}
