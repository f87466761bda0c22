package collabscope

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"collabscope/internal/embed"
	"collabscope/internal/encoder"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := ParseDDL("crm", `
CREATE TABLE CUSTOMERS (
  CUST_ID INT PRIMARY KEY,
  ACCT_BAL DECIMAL
);
CREATE TABLE ORDERS (
  ORDER_ID INT PRIMARY KEY,
  CUSTOMER_ID INT REFERENCES CUSTOMERS(CUST_ID)
);
`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWithEncoderBackendHash pins that the spec-selected hash backend is
// bit-identical to the default construction at the same dimension.
func TestWithEncoderBackendHash(t *testing.T) {
	s := testSchema(t)
	base := must(New(WithDimension(64)).EncodeContext(context.Background(), s))
	spec := must(New(WithDimension(64), WithEncoderBackend("hash")).EncodeContext(context.Background(), s))
	if base.Len() != spec.Len() {
		t.Fatalf("element counts diverged: %d vs %d", base.Len(), spec.Len())
	}
	for i := 0; i < base.Len(); i++ {
		a, b := base.Matrix.RowView(i), spec.Matrix.RowView(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("signature %d diverged at dim %d", i, j)
			}
		}
	}
	// Option order must not matter for the inherited dimension.
	if got := New(WithEncoderBackend("hash"), WithDimension(32)).Encoder().Dim(); got != 32 {
		t.Fatalf("backend ignored later WithDimension: dim = %d", got)
	}
}

// TestWithEncoderBackendInvalidSpec pins the deferred-error contract: a
// bad spec fails on first use with a helpful message, not at New.
func TestWithEncoderBackendInvalidSpec(t *testing.T) {
	p := New(WithEncoderBackend("quantum"))
	if _, err := p.EncodeContext(context.Background(), testSchema(t)); err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Fatalf("want unknown-backend error, got %v", err)
	}
	if _, err := p.EncodeAllContext(context.Background(), []*Schema{testSchema(t)}); err == nil {
		t.Fatal("EncodeAllContext should surface the backend error too")
	}
}

// TestWithEnrichersChangesSignatures pins end-to-end enrichment: the
// enriched pipeline produces different signatures, deterministically, and
// the default pipeline is untouched.
func TestWithEnrichersChangesSignatures(t *testing.T) {
	s := testSchema(t)
	plain := must(New(WithDimension(64)).EncodeContext(context.Background(), s))
	enriched1 := must(New(WithDimension(64), WithEnrichers(NewLexiconEnricher(), NewFKContextEnricher())).EncodeContext(context.Background(), s))
	enriched2 := must(New(WithDimension(64), WithEnrichers(NewLexiconEnricher(), NewFKContextEnricher())).EncodeContext(context.Background(), s))

	changed := false
	for i := 0; i < plain.Len(); i++ {
		a, b, c := plain.Matrix.RowView(i), enriched1.Matrix.RowView(i), enriched2.Matrix.RowView(i)
		for j := range a {
			if b[j] != c[j] {
				t.Fatalf("enrichment is nondeterministic at %d/%d", i, j)
			}
			if a[j] != b[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("enrichers changed nothing")
	}
}

func TestParseEnrichers(t *testing.T) {
	if es, err := ParseEnrichers(""); err != nil || es != nil {
		t.Fatalf("empty spec: %v, %v", es, err)
	}
	if es, err := ParseEnrichers("none"); err != nil || es != nil {
		t.Fatalf("none spec: %v, %v", es, err)
	}
	es, err := ParseEnrichers("lexicon, fk")
	if err != nil || len(es) != 2 {
		t.Fatalf("lexicon,fk: %v, %v", es, err)
	}
	if es[0].Name() != "lexicon" || es[1].Name() != "fk" {
		t.Fatalf("order not preserved: %s, %s", es[0].Name(), es[1].Name())
	}
	if _, err := ParseEnrichers("lexicon,nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown enricher: %v", err)
	}
	if _, err := ParseEnrichers("lexicon,,fk"); err == nil {
		t.Fatal("empty name in list should fail")
	}
}

// wrongDimEncoder declares one dimension and returns another.
type wrongDimEncoder struct{}

func (wrongDimEncoder) Dim() int                { return 8 }
func (wrongDimEncoder) Encode(string) []float64 { return make([]float64, 5) }

// TestErrDimMismatchSurfaced pins the satellite ingress guard through the
// public surface, including the taxonomy hint.
func TestErrDimMismatchSurfaced(t *testing.T) {
	p := New(WithEncoder(BatchEncoder(wrongDimEncoder{})))
	_, err := p.EncodeContext(context.Background(), testSchema(t))
	if !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("want ErrDimMismatch, got %v", err)
	}
	if hint := ExplainError(err); !strings.Contains(hint, "shape") {
		t.Fatalf("ExplainError(%v) = %q", err, hint)
	}
}

// TestWithEncoderCacheRemote covers the facade's remote wiring: a second
// pipeline pointed at the same cache directory encodes bit-identically
// without any HTTP traffic.
func TestWithEncoderCacheRemote(t *testing.T) {
	stub := encoder.NewStubServer(embed.NewHashEncoder(embed.WithDim(32)))
	srv := httptest.NewServer(stub)
	defer srv.Close()
	dir := t.TempDir()
	s := testSchema(t)

	opts := func() []Option {
		return []Option{
			WithDimension(32),
			WithEncoderBackend("remote:" + srv.URL),
			WithEncoderCache(dir),
		}
	}
	cold := must(New(opts()...).EncodeContext(context.Background(), s))
	coldReqs := stub.Requests()
	if coldReqs == 0 {
		t.Fatal("cold pipeline made no requests")
	}
	warm := must(New(opts()...).EncodeContext(context.Background(), s))
	if delta := stub.Requests() - coldReqs; delta != 0 {
		t.Fatalf("warm pipeline made %d requests, want 0", delta)
	}
	for i := 0; i < cold.Len(); i++ {
		a, b := cold.Matrix.RowView(i), warm.Matrix.RowView(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("cached signature %d diverged at dim %d", i, j)
			}
		}
	}
}

func TestEncoderBackendsListing(t *testing.T) {
	names := EncoderBackends()
	if len(names) != 2 || names[0] != "hash" || names[1] != "remote" {
		t.Fatalf("EncoderBackends() = %v", names)
	}
	if es := Enrichers(); len(es) != 2 {
		t.Fatalf("Enrichers() = %v", es)
	}
}
