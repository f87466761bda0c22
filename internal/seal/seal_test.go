package seal_test

import (
	"errors"
	"testing"

	"collabscope/internal/seal"
)

// TestVerifyClassifiesTrailers pins Verify's three outcomes and that it
// leaves the trailer as it found it.
func TestVerifyClassifiesTrailers(t *testing.T) {
	type envelope struct {
		Body string `json:"body"`
		Sum  string `json:"sum,omitempty"`
	}
	e := envelope{Body: "x"}
	if err := seal.Seal(&e, &e.Sum); err != nil || e.Sum == "" {
		t.Fatalf("Seal: sum %q, err %v", e.Sum, err)
	}
	sealed := e.Sum
	if err := seal.Verify(&e, &e.Sum); err != nil || e.Sum != sealed {
		t.Fatalf("sealed envelope: %v (sum %q)", err, e.Sum)
	}
	e.Body = "y"
	if err := seal.Verify(&e, &e.Sum); !errors.Is(err, seal.ErrMismatch) || e.Sum != sealed {
		t.Fatalf("tampered envelope: %v (sum %q), want ErrMismatch and the trailer kept", err, e.Sum)
	}
	e.Sum = ""
	if err := seal.Verify(&e, &e.Sum); !errors.Is(err, seal.ErrMissing) || errors.Is(err, seal.ErrMismatch) {
		t.Fatalf("unsealed envelope: %v, want ErrMissing only", err)
	}
}
