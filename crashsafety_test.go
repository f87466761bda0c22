package collabscope

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// faultyEncoder panics or emits NaN for elements whose serialisation
// contains a marker, imitating a broken production encoder behind the
// Encoder interface.
type faultyEncoder struct {
	dim    int
	marker string
	mode   string // "panic" or "nan"
}

func (e faultyEncoder) Dim() int { return e.dim }

func (e faultyEncoder) Encode(text string) []float64 {
	if strings.Contains(text, e.marker) {
		if e.mode == "panic" {
			panic("encoder bug on " + e.marker)
		}
		out := make([]float64, e.dim)
		out[0] = math.NaN()
		return out
	}
	out := make([]float64, e.dim)
	for i := range out {
		out[i] = float64((len(text)+i)%5) * 0.2
	}
	return out
}

func TestPipelineIsolatesEncoderPanic(t *testing.T) {
	schemas := figure1Schemas()
	marker := schemas[0].Tables[0].Name
	pipe := New(WithEncoder(BatchEncoder(faultyEncoder{dim: 16, marker: marker, mode: "panic"})))
	_, err := pipe.CollaborativeScopeContext(context.Background(), schemas, 0.7)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "encoder bug") {
		t.Fatalf("panic value lost: %v", pe)
	}
	if hint := ExplainError(err); !strings.Contains(hint, "panicked") {
		t.Fatalf("ExplainError(%v) = %q", err, hint)
	}
	// The pipeline object survives and works with a healthy encoder.
	if _, err := New(WithDimension(64)).CollaborativeScopeContext(context.Background(), schemas, 0.7); err != nil {
		t.Fatalf("later run broken: %v", err)
	}
}

func TestPipelineSurfacesNonFiniteSignature(t *testing.T) {
	schemas := figure1Schemas()
	marker := schemas[1].Tables[0].Name
	pipe := New(WithEncoder(BatchEncoder(faultyEncoder{dim: 16, marker: marker, mode: "nan"})))
	_, err := pipe.CollaborativeScopeContext(context.Background(), schemas, 0.7)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), schemas[1].Name) {
		t.Fatalf("err %q does not name schema %q", err, schemas[1].Name)
	}
	if hint := ExplainError(err); !strings.Contains(hint, "NaN") {
		t.Fatalf("ExplainError(%v) = %q", err, hint)
	}
}

func TestExplainErrorClassification(t *testing.T) {
	if h := ExplainError(nil); h != "" {
		t.Fatalf("nil error: %q", h)
	}
	if h := ExplainError(errors.New("ordinary")); h != "" {
		t.Fatalf("unclassified error: %q", h)
	}
	for _, sentinel := range []error{ErrNonFinite, ErrSVDNoConvergence, ErrDegenerateModel} {
		wrapped := fmt.Errorf("stage: %w", sentinel)
		if h := ExplainError(wrapped); h == "" {
			t.Errorf("no hint for %v", sentinel)
		}
	}
}
