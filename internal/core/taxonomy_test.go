package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/schema"
)

// poison injects a NaN into one signature of the set.
func poison(set *embed.SignatureSet, row, dim int) {
	set.Matrix.Set(row, dim, math.NaN())
}

func TestTrainNamesNonFiniteElement(t *testing.T) {
	_, sets := encodeAll(t)
	poison(sets[0], 2, 5)
	_, err := Train(sets[0], 0.7)
	if !errors.Is(err, linalg.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	want := sets[0].IDs[2].String()
	if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "dimension 5") {
		t.Fatalf("err %q does not name element %s and dimension 5", err, want)
	}
}

func TestTrainFixedComponentsNamesNonFiniteElement(t *testing.T) {
	_, sets := encodeAll(t)
	poison(sets[1], 0, 0)
	_, err := TrainFixedComponents(sets[1], 2)
	if !errors.Is(err, linalg.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if !strings.Contains(err.Error(), sets[1].IDs[0].String()) {
		t.Fatalf("err %q does not name the offending element", err)
	}
}

func TestNewScoperRejectsPoisonedSchemaByName(t *testing.T) {
	_, sets := encodeAll(t)
	poison(sets[2], 1, 3)
	_, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if !errors.Is(err, linalg.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if name := sets[2].IDs[0].Schema; !strings.Contains(err.Error(), name) {
		t.Fatalf("err %q does not name schema %q", err, name)
	}
}

func TestDegenerateModelConstantSignatures(t *testing.T) {
	// Bit-identical signatures mean a zero linkability range — the paper's
	// conservative floor, explicitly NOT degenerate (Range 0 accepts only
	// exact fits). Degeneracy is reserved for NComp = 0 or non-finite
	// ranges, which cannot arise from finite input; enforce via checkModel
	// directly.
	ids := make([]schema.ElementID, 3)
	m := linalg.NewDense(3, 4)
	for i := range ids {
		ids[i] = schema.AttributeID("C", "T", string(rune('A'+i)))
		for j := 0; j < 4; j++ {
			m.Set(i, j, 1.5)
		}
	}
	model, err := Train(&embed.SignatureSet{IDs: ids, Matrix: m}, 0.5)
	if err != nil {
		t.Fatalf("constant signatures must train (conservative floor): %v", err)
	}
	if model.Range != 0 {
		t.Fatalf("Range = %v, want the documented zero floor", model.Range)
	}

	bad := &Model{Schema: "C", Range: math.NaN(), pca: model.pca}
	if err := checkModel(bad); !errors.Is(err, ErrDegenerateModel) {
		t.Fatalf("NaN range: err = %v, want ErrDegenerateModel", err)
	}
	if !strings.Contains(checkModel(bad).Error(), `"C"`) {
		t.Fatalf("degenerate error does not name the schema: %v", checkModel(bad))
	}
}
