package embed

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"collabscope/internal/linalg"
	"collabscope/internal/schema"
)

// nanEncoder emits a NaN at one dimension for texts containing a marker —
// standing in for a buggy or numerically unstable production encoder.
type nanEncoder struct{ dim int }

func (e nanEncoder) Dim() int { return e.dim }

func (e nanEncoder) Encode(text string) []float64 {
	out := make([]float64, e.dim)
	for i := range out {
		out[i] = float64(len(text)%7) * 0.25
	}
	if strings.Contains(text, "RUNTIME") {
		out[3] = math.NaN()
	}
	return out
}

func ingressSchema(t *testing.T) *schema.Schema {
	t.Helper()
	s, err := schema.ParseDDL("S1", `
		CREATE TABLE ORDERS (ID NUMBER PRIMARY KEY, RUNTIME NUMBER, TOTAL NUMBER);
	`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEncodeSchemaIngressGuard pins the pipeline-ingress taxonomy: a
// non-finite signature fails encoding with ErrNonFinite, naming the
// offending element and dimension, for any worker count.
func TestEncodeSchemaIngressGuard(t *testing.T) {
	s := ingressSchema(t)
	for _, workers := range []int{1, 4} {
		_, err := EncodeSchemaContext(context.Background(), workers, Batch(nanEncoder{dim: 8}), s)
		if !errors.Is(err, linalg.ErrNonFinite) {
			t.Fatalf("workers=%d: err = %v, want ErrNonFinite", workers, err)
		}
		// The table element serialises its attribute names, so the table
		// itself (the lowest offending index) is the named element.
		if !strings.Contains(err.Error(), "S1.ORDERS") || !strings.Contains(err.Error(), "dimension 3") {
			t.Fatalf("workers=%d: err %q does not name the element and dimension", workers, err)
		}
	}
	// A clean schema through the same encoder encodes fine.
	clean, err := schema.ParseDDL("S2", `CREATE TABLE T (A NUMBER, B NUMBER);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeSchemaContext(context.Background(), 2, Batch(nanEncoder{dim: 8}), clean); err != nil {
		t.Fatalf("clean schema rejected: %v", err)
	}
}
