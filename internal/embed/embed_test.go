package embed

import (
	"context"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"collabscope/internal/linalg"
	"collabscope/internal/schema"
)

func cos(e TextEncoder, a, b string) float64 {
	return linalg.CosineSimilarity(e.Encode(a), e.Encode(b))
}

func TestEncodeDeterministic(t *testing.T) {
	e := NewHashEncoder()
	a := e.Encode("NAME CLIENT TEXT")
	b := e.Encode("NAME CLIENT TEXT")
	if linalg.Distance(a, b) != 0 {
		t.Fatal("encoding must be deterministic")
	}
	e2 := NewHashEncoder()
	c := e2.Encode("NAME CLIENT TEXT")
	if linalg.Distance(a, c) != 0 {
		t.Fatal("encoding must be stable across encoder instances")
	}
}

func TestEncodeUnitNorm(t *testing.T) {
	e := NewHashEncoder()
	v := e.Encode("ORDER_DATE ORDERS DATE")
	if math.Abs(linalg.Norm(v)-1) > 1e-9 {
		t.Fatalf("norm = %v, want 1", linalg.Norm(v))
	}
	if len(v) != DefaultDim {
		t.Fatalf("dim = %d", len(v))
	}
}

func TestEncodeEmpty(t *testing.T) {
	e := NewHashEncoder(WithDim(32))
	v := e.Encode("")
	if linalg.Norm(v) != 0 || len(v) != 32 {
		t.Fatalf("empty text: norm=%v dim=%d", linalg.Norm(v), len(v))
	}
}

func TestSynonymBridging(t *testing.T) {
	// The paper's running example: CLIENT and CUSTOMER must be close
	// despite sharing no characters beyond 'c'.
	e := NewHashEncoder()
	same := cos(e, "NAME CLIENT TEXT", "NAME CUSTOMER TEXT")
	diff := cos(e, "NAME CLIENT TEXT", "YEAR RACES NUMBER")
	if same < 0.5 {
		t.Fatalf("synonym similarity = %v, want ≥ 0.5", same)
	}
	if diff > 0.3 {
		t.Fatalf("cross-domain similarity = %v, want ≤ 0.3", diff)
	}
	if same <= diff+0.3 {
		t.Fatalf("margin too small: synonym %v vs cross-domain %v", same, diff)
	}
}

func TestLexicalAffinity(t *testing.T) {
	// ORDERDATE has no token split, so only n-grams connect it to
	// ORDER_DATE (the paper's §4.3 false-negative example).
	e := NewHashEncoder()
	lexical := cos(e, "ORDERDATE ORDERS DATE", "ORDER_DATE ORDERS DATE")
	unrelated := cos(e, "ORDERDATE ORDERS DATE", "LOGO STORES BINARY")
	if lexical <= unrelated {
		t.Fatalf("lexical affinity %v should exceed unrelated %v", lexical, unrelated)
	}
	if lexical < 0.4 {
		t.Fatalf("lexical affinity = %v, want ≥ 0.4", lexical)
	}
}

func TestDomainSeparation(t *testing.T) {
	// Formula-One metadata must stay far from order-customer metadata
	// even when lexically plausible (CITY vs COUNTRY both geography-ish
	// is the paper's Figure-1 false-linkage warning: the margin between
	// in-domain and cross-domain must be large).
	e := NewHashEncoder()
	inDomain := cos(e, "ADDRESS CLIENT TEXT", "CITY CUSTOMER TEXT")
	crossDomain := cos(e, "ADDRESS CLIENT TEXT", "COUNTRY CAR TEXT")
	if inDomain <= crossDomain {
		t.Fatalf("in-domain %v must beat cross-domain %v", inDomain, crossDomain)
	}
}

func TestChannelAblation(t *testing.T) {
	// Without the n-gram channel, purely lexical variants lose affinity.
	noNgram := NewHashEncoder(WithNgramWeight(0))
	with := NewHashEncoder()
	lexNo := cos(noNgram, "ORDERDATE X TEXT", "ORDER_DATE X TEXT")
	lexWith := cos(with, "ORDERDATE X TEXT", "ORDER_DATE X TEXT")
	if lexWith <= lexNo {
		t.Fatalf("n-gram channel should raise lexical similarity: %v vs %v", lexWith, lexNo)
	}
}

func TestWithDim(t *testing.T) {
	e := NewHashEncoder(WithDim(64))
	if e.Dim() != 64 || len(e.Encode("x")) != 64 {
		t.Fatal("WithDim not honoured")
	}
}

func TestNgrams(t *testing.T) {
	got := ngrams("name", 3)
	want := []string{"^na", "nam", "ame", "me$"}
	if len(got) != len(want) {
		t.Fatalf("ngrams = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ngrams = %v, want %v", got, want)
		}
	}
	if got := ngrams("a", 5); len(got) != 1 || got[0] != "^a$" {
		t.Fatalf("short token ngrams = %v", got)
	}
}

// Property: all signatures have norm 0 or 1, and cosine similarity of any
// pair is within [−1, 1].
func TestSignatureNormProperty(t *testing.T) {
	e := NewHashEncoder(WithDim(64))
	f := func(a, b string) bool {
		va, vb := e.Encode(a), e.Encode(b)
		na, nb := linalg.Norm(va), linalg.Norm(vb)
		okNorm := func(n float64) bool {
			return n == 0 || math.Abs(n-1) < 1e-9
		}
		if !okNorm(na) || !okNorm(nb) {
			return false
		}
		cs := linalg.CosineSimilarity(va, vb)
		return cs >= -1-1e-9 && cs <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianVectorStats(t *testing.T) {
	v := gaussianVector("feature", 4096)
	mean := linalg.Mean(v)
	sd := linalg.StdDev(v)
	if math.Abs(mean) > 0.1 {
		t.Fatalf("mean = %v, want ≈ 0", mean)
	}
	if math.Abs(sd-1) > 0.1 {
		t.Fatalf("stddev = %v, want ≈ 1", sd)
	}
	// Different features give quasi-orthogonal vectors.
	w := gaussianVector("other", 4096)
	if c := linalg.CosineSimilarity(v, w); math.Abs(c) > 0.1 {
		t.Fatalf("distinct features cosine = %v, want ≈ 0", c)
	}
}

func testSchema() *schema.Schema {
	return (&schema.Schema{
		Name: "S1",
		Tables: []schema.Table{{
			Name: "CLIENT",
			Attributes: []schema.Attribute{
				{Name: "CID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
				{Name: "NAME", Type: schema.TypeText},
			},
		}},
	}).Normalize()
}

func TestEncodeSchema(t *testing.T) {
	e := NewHashEncoder(WithDim(64))
	set := EncodeSchema(e, testSchema())
	if set.Len() != 3 {
		t.Fatalf("Len = %d, want 3", set.Len())
	}
	if set.IDs[0].Kind != schema.KindTable {
		t.Fatal("first signature should be the table")
	}
	if set.Matrix.Rows() != 3 || set.Matrix.Cols() != 64 {
		t.Fatalf("matrix = %dx%d", set.Matrix.Rows(), set.Matrix.Cols())
	}
	if linalg.Norm(set.Matrix.RowView(1)) == 0 {
		t.Fatal("attribute signature should be nonzero")
	}
}

func TestUnionAndFilters(t *testing.T) {
	e := NewHashEncoder(WithDim(32))
	s1 := testSchema()
	s2 := (&schema.Schema{
		Name: "S2",
		Tables: []schema.Table{{
			Name:       "CUSTOMER",
			Attributes: []schema.Attribute{{Name: "CUSTOMER_ID", Type: schema.TypeNumber}},
		}},
	}).Normalize()
	sets := EncodeSchemas(e, []*schema.Schema{s1, s2})
	u := Union(sets)
	if u.Len() != 5 {
		t.Fatalf("union Len = %d, want 5", u.Len())
	}
	if u.IDs[0].Schema != "S1" || u.IDs[3].Schema != "S2" {
		t.Fatalf("union order wrong: %v", u.IDs)
	}
	attrs := u.AttributeSignatures()
	if attrs.Len() != 3 {
		t.Fatalf("attribute filter Len = %d", attrs.Len())
	}
	tabs := u.TableSignatures()
	if tabs.Len() != 2 {
		t.Fatalf("table filter Len = %d", tabs.Len())
	}
	sel := u.Select(map[schema.ElementID]bool{u.IDs[0]: true, u.IDs[4]: true})
	if sel.Len() != 2 || sel.IDs[0] != u.IDs[0] || sel.IDs[1] != u.IDs[4] {
		t.Fatalf("select = %v", sel.IDs)
	}
}

// encodeSchemaWithSamples is EncodeSchema with attribute serialisations
// that include instance value samples (§2.3 enrichment variant). The paper
// shows this enrichment helps some pairs and hurts others, and reduces
// matching effectiveness overall.
func encodeSchemaWithSamples(enc Encoder, s *schema.Schema) *SignatureSet {
	set, _ := EncodeElementsContext(context.Background(), 0, enc, s.ElementsWithSamples())
	return set
}

func TestInstanceSampleEnrichment(t *testing.T) {
	// §2.3's worked example: including instance samples pulls NAME
	// (Michael Scott) towards FIRST_NAME (Michael) and pushes it away
	// from LAST_NAME (Bluth).
	e := NewHashEncoder()
	s1 := (&schema.Schema{Name: "S1", Tables: []schema.Table{{
		Name: "CLIENT",
		Attributes: []schema.Attribute{
			{Name: "NAME", Type: schema.TypeText, Samples: []string{"Michael Scott"}},
		},
	}}}).Normalize()
	s2 := (&schema.Schema{Name: "S2", Tables: []schema.Table{{
		Name: "CUSTOMER",
		Attributes: []schema.Attribute{
			{Name: "FIRST_NAME", Type: schema.TypeText, Samples: []string{"Michael"}},
			{Name: "LAST_NAME", Type: schema.TypeText, Samples: []string{"Bluth"}},
		},
	}}}).Normalize()

	plain1 := EncodeSchema(e, s1)
	plain2 := EncodeSchema(e, s2)
	rich1 := encodeSchemaWithSamples(e, s1)
	rich2 := encodeSchemaWithSamples(e, s2)

	sim := func(a *SignatureSet, i int, b *SignatureSet, j int) float64 {
		return linalg.CosineSimilarity(a.Matrix.RowView(i), b.Matrix.RowView(j))
	}
	// Row 0 is the table; rows 1.. are attributes.
	firstPlain := sim(plain1, 1, plain2, 1)
	firstRich := sim(rich1, 1, rich2, 1)
	lastPlain := sim(plain1, 1, plain2, 2)
	lastRich := sim(rich1, 1, rich2, 2)

	// The paper reports +5 % / −11 % with Sentence-BERT. A token-bag
	// encoder cannot reproduce the positive sign on the matched pair
	// (appending partially shared tokens to an already-similar pair
	// dilutes), but the ASYMMETRY — mismatching samples hurt far more
	// than matching samples — and the paper's conclusion that enrichment
	// degrades overall effectiveness both hold.
	if lastRich >= lastPlain {
		t.Errorf("mismatching sample should lower NAME~LAST_NAME: %.3f -> %.3f", lastPlain, lastRich)
	}
	dMatch := firstPlain - firstRich
	dMismatch := lastPlain - lastRich
	if dMismatch <= dMatch {
		t.Errorf("mismatch penalty %.3f should exceed match penalty %.3f", dMismatch, dMatch)
	}
	// The matched pair must stay clearly ahead of the mismatched one.
	if firstRich <= lastRich {
		t.Errorf("enriched NAME~FIRST_NAME %.3f should beat NAME~LAST_NAME %.3f", firstRich, lastRich)
	}
}

func TestEncodeSchemaWithSamplesNoSamples(t *testing.T) {
	// Without samples the two encodings are identical.
	e := NewHashEncoder(WithDim(64))
	s := testSchema()
	a := EncodeSchema(e, s)
	b := encodeSchemaWithSamples(e, s)
	if linalg.MaxAbsDiff(a.Matrix, b.Matrix) != 0 {
		t.Fatal("sample-less encodings should be identical")
	}
}

func TestEncoderConcurrentUse(t *testing.T) {
	// The feature-vector cache is shared; concurrent encoding must be
	// race-free (run with -race) and agree with sequential results.
	e := NewHashEncoder(WithDim(96))
	texts := []string{
		"NAME CLIENT TEXT", "CUSTOMER_ID ORDERS NUMBER", "CITY BUYER TEXT",
		"YEAR RACES NUMBER", "PRICE PRODUCTS DECIMAL",
	}
	want := make([][]float64, len(texts))
	for i, s := range texts {
		want[i] = NewHashEncoder(WithDim(96)).Encode(s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, s := range texts {
				got := e.Encode(s)
				if linalg.Distance(got, want[i]) != 0 {
					t.Errorf("concurrent encode of %q diverged", s)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkEncodeAttribute(b *testing.B) {
	e := NewHashEncoder()
	for i := 0; i < b.N; i++ {
		e.Encode("CUSTOMER_ID ORDERS NUMBER FOREIGN KEY")
	}
}

func BenchmarkEncodeColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewHashEncoder().Encode("CUSTOMER_ID ORDERS NUMBER FOREIGN KEY")
	}
}
