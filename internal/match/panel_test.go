package match

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"collabscope/internal/ann"
	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/schema"
)

// perQueryScan is the exact LSH match by the per-direction route: per kind
// (tables, then attributes), a flat index over b answers each row of a,
// then a flat index over a answers each row of b, and the first occurrence
// of a canonical pair fixes its place.
func perQueryScan(k int, a, b *embed.SignatureSet) []Pair {
	seen := map[Pair]bool{}
	var out []Pair
	for _, kind := range []schema.ElementKind{schema.KindTable, schema.KindAttribute} {
		fa, fb := a.AttributeSignatures(), b.AttributeSignatures()
		if kind == schema.KindTable {
			fa, fb = a.TableSignatures(), b.TableSignatures()
		}
		for _, dir := range [][2]*embed.SignatureSet{{fa, fb}, {fb, fa}} {
			queries, target := dir[0], dir[1]
			if queries.Len() == 0 || target.Len() == 0 {
				continue
			}
			idx := ann.NewFlatIndex(target.Matrix)
			for i := 0; i < queries.Len(); i++ {
				for _, hit := range idx.Search(queries.Matrix.RowView(i), k) {
					p := Pair{A: queries.IDs[i], B: target.IDs[hit.Index]}.Canonical()
					if !seen[p] {
						seen[p] = true
						out = append(out, p)
					}
				}
			}
		}
	}
	return out
}

// randomSignatureSet draws a mixed-kind set for schema name. Coordinates
// come from a few small integers and some rows repeat earlier rows of the
// set or rows of the first set in pool, so many distances tie exactly.
// shape 1 leaves out tables, shape 2 leaves out attributes, shape 3 leaves
// out every row.
func randomSignatureSet(rng *rand.Rand, name string, dim, shape int, pool []*embed.SignatureSet) *embed.SignatureSet {
	n := 1 + rng.Intn(12)
	if shape == 3 {
		n = 0
	}
	s := &embed.SignatureSet{Matrix: linalg.NewDense(n, dim)}
	for i := 0; i < n; i++ {
		kind := schema.ElementKind(rng.Intn(2))
		switch shape {
		case 1:
			kind = schema.KindAttribute
		case 2:
			kind = schema.KindTable
		}
		id := schema.TableID(name, fmt.Sprintf("T%d", i))
		if kind == schema.KindAttribute {
			id = schema.AttributeID(name, fmt.Sprintf("T%d", i%3), fmt.Sprintf("A%d", i))
		}
		s.IDs = append(s.IDs, id)
		row := s.Matrix.RowView(i)
		switch r := rng.Intn(4); {
		case r == 0 && i > 0:
			copy(row, s.Matrix.RowView(rng.Intn(i)))
		case r == 1 && len(pool) > 0 && pool[0].Len() > 0:
			copy(row, pool[0].Matrix.RowView(rng.Intn(pool[0].Len())))
		default:
			for j := range row {
				row[j] = float64(rng.Intn(5) - 2)
			}
		}
	}
	return s
}

func equalPairs(got, want []Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("pair %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// TestLSHPanelMatchesPerQueryScan: exact LSH reads both directions off one
// distance panel per kind. On random mixed-kind sets — with empty kinds,
// empty sets and exact distance ties — it must return the per-direction
// flat scan's pairs element for element, order included, under every
// spelling of the flat kind; MatchAllContext must return the sorted union
// of those pairs at any worker count.
func TestLSHPanelMatchesPerQueryScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + rng.Intn(6)
		sets := make([]*embed.SignatureSet, 2+rng.Intn(3))
		for i := range sets {
			shape := 0
			if rng.Intn(3) == 0 {
				shape = 1 + rng.Intn(3)
			}
			sets[i] = randomSignatureSet(rng, fmt.Sprintf("S%d", i), dim, shape, sets[:i])
		}
		for _, k := range []int{0, 1, 3, 13} {
			var union []Pair
			seen := map[Pair]bool{}
			for i := range sets {
				for j := i + 1; j < len(sets); j++ {
					want := perQueryScan(k, sets[i], sets[j])
					for _, kind := range []ann.Kind{"", "flat", "FLAT"} {
						got := LSH{K: k, Index: IndexConfig{Kind: kind}}.Match(sets[i], sets[j])
						if err := equalPairs(got, want); err != nil {
							t.Fatalf("trial %d k=%d kind %q sets %d/%d: %v", trial, k, kind, i, j, err)
						}
					}
					for _, p := range want {
						if !seen[p] {
							seen[p] = true
							union = append(union, p)
						}
					}
				}
			}
			sort.Slice(union, func(x, y int) bool {
				if union[x].A != union[y].A {
					return less(union[x].A, union[y].A)
				}
				return less(union[x].B, union[y].B)
			})
			for workers := 1; workers <= 4; workers++ {
				got, err := MatchAllContext(context.Background(), workers, LSH{K: k}, sets)
				if err != nil {
					t.Fatal(err)
				}
				if err := equalPairs(got, union); err != nil {
					t.Fatalf("trial %d k=%d MatchAllContext workers=%d: %v", trial, k, workers, err)
				}
			}
		}
	}
}
