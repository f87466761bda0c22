package match

import (
	"math"
	"testing"
	"testing/quick"

	"collabscope/internal/schema"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"order", "order", 0},
		{"order_date", "orderdate", 1},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSimilarity(t *testing.T) {
	if got := LevenshteinSimilarity("abc", "abc"); got != 1 {
		t.Fatalf("identical = %v", got)
	}
	if got := LevenshteinSimilarity("", ""); got != 1 {
		t.Fatalf("empty = %v", got)
	}
	if got := LevenshteinSimilarity("abc", "xyz"); got != 0 {
		t.Fatalf("disjoint = %v", got)
	}
}

func TestTrigramJaccard(t *testing.T) {
	if got := TrigramJaccard("order", "order"); got != 1 {
		t.Fatalf("identical = %v", got)
	}
	if got := TrigramJaccard("", ""); got != 1 {
		t.Fatalf("empty = %v", got)
	}
	mid := TrigramJaccard("order_date", "orderdate")
	if mid <= 0.3 || mid >= 1 {
		t.Fatalf("near-duplicate = %v", mid)
	}
	if far := TrigramJaccard("order", "podium"); far >= mid {
		t.Fatalf("unrelated %v should score below near-duplicate %v", far, mid)
	}
}

func TestNameSimilarity(t *testing.T) {
	// Token normalisation bridges abbreviations via the shared lexicon.
	bridged := NameSimilarity("CUST_NO", "customerNumber")
	if bridged < 0.5 {
		t.Fatalf("CUST_NO vs customerNumber = %v, want ≥ 0.5", bridged)
	}
	// But pure string similarity cannot bridge synonyms — the labeling
	// conflict the paper warns about (§2.2).
	if s := NameSimilarity("CLIENT", "CUSTOMER"); s > 0.6 {
		t.Fatalf("CLIENT vs CUSTOMER = %v; string similarity should stay low", s)
	}
}

// Property: Levenshtein is a metric — symmetric, zero iff equal, triangle
// inequality.
func TestLevenshteinMetricProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		if len(c) > 12 {
			c = c[:12]
		}
		ab, ba := Levenshtein(a, b), Levenshtein(b, a)
		if ab != ba {
			return false
		}
		if (ab == 0) != (a == b) {
			return false
		}
		return Levenshtein(a, c) <= ab+Levenshtein(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: both similarities land in [0, 1].
func TestSimilarityBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 24 {
			a = a[:24]
		}
		if len(b) > 24 {
			b = b[:24]
		}
		for _, s := range []float64{
			LevenshteinSimilarity(a, b),
			TrigramJaccard(a, b),
			NameSimilarity(a, b),
		} {
			if math.IsNaN(s) || s < -1e-9 || s > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNameMatcherFindsLexicalPairsOnly(t *testing.T) {
	_, sets, _ := matchSchemas()
	// NAME vs CUSTOMER_NAME shares only a token — lexical similarity ≈ 0.3,
	// exactly the weakness of string-only matching the paper criticises.
	pairs := NameMatcher{Threshold: 0.3}.Match(sets[0], sets[1])
	got := pairSet(pairs)
	namePair := Pair{
		A: schema.AttributeID("S1", "CLIENT", "NAME"),
		B: schema.AttributeID("S2", "CUSTOMER", "CUSTOMER_NAME"),
	}.Canonical()
	if !got[namePair] {
		t.Fatalf("NAME matcher missed the lexical NAME pair; got %v", pairs)
	}
	// A high threshold prunes it again.
	strict := pairSet(NameMatcher{Threshold: 0.9}.Match(sets[0], sets[1]))
	if strict[namePair] {
		t.Fatal("0.9 threshold should drop the weak lexical pair")
	}
	if (NameMatcher{Threshold: 0.6}).Name() != "NAME(0.6)" {
		t.Fatal("name wrong")
	}
}

func TestFloodingMatcher(t *testing.T) {
	schemas, sets, gt := matchSchemas()
	f := Flooding{Threshold: 0.7}
	if f.Name() != "FLOOD(0.7)" {
		t.Fatalf("name = %q", f.Name())
	}
	pairs := f.Match(sets[0], sets[1])
	if len(pairs) == 0 {
		t.Fatal("flooding produced no pairs")
	}
	got := pairSet(pairs)
	tablePair := Pair{
		A: schema.TableID("S1", "CLIENT"), B: schema.TableID("S2", "CUSTOMER"),
	}.Canonical()
	if !got[tablePair] {
		t.Fatal("flooding missed the only table pair")
	}
	for _, p := range pairs {
		if p.A.Kind != p.B.Kind {
			t.Fatalf("cross-kind pair %v", p)
		}
	}
	ev := Evaluate(pairs, gt, Cartesian(schemas))
	if ev.PC == 0 {
		t.Fatal("flooding found no true linkages")
	}
}

func TestFloodingEmptyInputs(t *testing.T) {
	_, sets, _ := matchSchemas()
	empty := sets[0].Select(nil)
	if got := (Flooding{Threshold: 0.5}).Match(empty, sets[1]); len(got) != 0 {
		// An empty side has only the schema root; no table/attr pairs.
		t.Fatalf("empty side produced %v", got)
	}
}

func TestCompositeMatcher(t *testing.T) {
	schemas, sets, gt := matchSchemas()
	c := Composite{Threshold: 0.5}
	if c.Name() != "COMA(0.5)" {
		t.Fatalf("name = %q", c.Name())
	}
	pairs := c.Match(sets[0], sets[1])
	if len(pairs) == 0 {
		t.Fatal("composite matcher found nothing")
	}
	for _, p := range pairs {
		if p.A.Kind != p.B.Kind {
			t.Fatalf("cross-kind pair %v", p)
		}
	}
	ev := Evaluate(pairs, gt, Cartesian(schemas))
	if ev.PC == 0 {
		t.Fatal("composite matcher found no true linkages")
	}
	// Pure-name weighting and pure-signature weighting both work and give
	// different candidate sets.
	nameOnly := Composite{Threshold: 0.5, NameWeight: 1}.Match(sets[0], sets[1])
	sigHeavy := Composite{Threshold: 0.5, NameWeight: 0.01}.Match(sets[0], sets[1])
	if len(nameOnly) == len(sigHeavy) {
		same := true
		no := pairSet(nameOnly)
		for _, p := range sigHeavy {
			if !no[p.Canonical()] {
				same = false
				break
			}
		}
		if same {
			t.Log("name-only and signature-heavy coincide on this tiny scenario")
		}
	}
	// Higher threshold prunes.
	strict := Composite{Threshold: 0.95}.Match(sets[0], sets[1])
	if len(strict) > len(pairs) {
		t.Fatal("stricter threshold generated more pairs")
	}
}
