package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"collabscope/internal/seal"
)

func TestModelJSONRoundTrip(t *testing.T) {
	_, sets := encodeAll(t)
	m, err := Train(sets[1], 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModelJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != m.Schema || back.Variance != m.Variance {
		t.Fatalf("metadata lost: %+v", back)
	}
	if back.Components() != m.Components() || back.Range != m.Range {
		t.Fatalf("model shape lost: %d/%v vs %d/%v",
			back.Components(), back.Range, m.Components(), m.Range)
	}
	// The round-tripped model must give identical verdicts.
	orig := must(AssessContext(context.Background(), 0, sets[0], []*Model{m}, AssessConfig{}))
	rt := must(AssessContext(context.Background(), 0, sets[0], []*Model{back}, AssessConfig{}))
	for id, v := range orig {
		if rt[id] != v {
			t.Fatalf("verdict for %v changed after round trip", id)
		}
	}
}

// sealedWire returns the wire bytes of a small valid v1 model after edit,
// sealed with a matching trailer, so a hostile shape reaches its own check
// instead of failing at the version or trailer gate.
func sealedWire(t *testing.T, edit func(*modelJSON)) string {
	t.Helper()
	w := modelJSON{
		Version: WireVersion, Schema: "S", Variance: 0.5, Dim: 2,
		Mean: []float64{0, 0}, Components: [][]float64{{1, 0}}, Range: 0.1,
	}
	edit(&w)
	if err := seal.Seal(&w, &w.Sum); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(&w)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestReadModelJSONValidation(t *testing.T) {
	cases := map[string]struct{ payload, want string }{
		"bad json": {`{`, "decode model"},
		"no components": {sealedWire(t, func(w *modelJSON) { w.Components = [][]float64{} }),
			"no principal components"},
		"mean mismatch": {sealedWire(t, func(w *modelJSON) { w.Dim, w.Components = 3, [][]float64{{0, 0, 0}} }),
			"mean has 2 values, header says 3"},
		"ragged rows": {sealedWire(t, func(w *modelJSON) { w.Components = [][]float64{{0, 0}, {0}} }),
			"component 1 has 1 values, want 2"},
		"negative range": {sealedWire(t, func(w *modelJSON) { w.Range = -1 }),
			"linkability range -1 must be finite and non-negative"},
		"zero dim": {sealedWire(t, func(w *modelJSON) { w.Dim, w.Mean, w.Components = 0, []float64{}, [][]float64{{}} }),
			"dimension 0 must be positive"},
		"empty schema": {sealedWire(t, func(w *modelJSON) { w.Schema = "" }), "empty schema name"},
		"variance > 1": {sealedWire(t, func(w *modelJSON) { w.Variance = 1.5 }), "variance 1.5 outside [0, 1]"},
		"variance < 0": {sealedWire(t, func(w *modelJSON) { w.Variance = -0.1 }), "variance -0.1 outside [0, 1]"},
		"huge dim": {sealedWire(t, func(w *modelJSON) { w.Dim = 1048576 }),
			"dimension 1048576 exceeds the wire cap"},
		"rank > dim": {sealedWire(t, func(w *modelJSON) {
			w.Dim, w.Mean, w.Components = 1, []float64{0}, [][]float64{{1}, {0}, {1}}
		}), "3 components for 1 dimensions"},
		"future version": {`{"version":2,"schema":"S","variance":0.5,"dim":2,"mean":[0,0],"components":[[1,0]],"range":0.1,"sum":"x"}`,
			"wire version 2 not supported"},
		"v1 missing sum": {`{"version":1,"schema":"S","variance":0.5,"dim":2,"mean":[0,0],"components":[[1,0]],"range":0.1}`,
			"missing checksum trailer"},
		"v1 wrong sum": {`{"version":1,"schema":"S","variance":0.5,"dim":2,"mean":[0,0],"components":[[1,0]],"range":0.1,"sum":"deadbeef"}`,
			"checksum mismatch"},
		"huge range": {`{"schema":"S","dim":2,"mean":[0,0],"components":[[1,0]],"range":1e999}`,
			"decode model"},
		"negative varver": {`{"version":-1,"schema":"S","dim":2,"mean":[0,0],"components":[[1,0]],"range":0.1}`,
			"wire version -1 not supported"},
	}
	for name, c := range cases {
		_, err := ReadModelJSON(strings.NewReader(c.payload))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
}

// TestReadModelJSONV0Compat pins the retirement of the unsealed v0 format:
// a genuine model body with its "version" key and hash trailer stripped is
// rejected at the version gate. Variance 0 — the fixed-component ablation
// sentinel — is still accepted on a sealed v1 body.
func TestReadModelJSONV0Compat(t *testing.T) {
	_, sets := encodeAll(t)
	m, err := Train(sets[0], 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	delete(wire, "version")
	delete(wire, "sum")
	v0, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModelJSON(bytes.NewReader(v0)); err == nil || !strings.Contains(err.Error(), "wire version 0 not supported") {
		t.Fatalf("unsealed v0 payload: error %v, want a version rejection", err)
	}

	fc, err := TrainFixedComponents(sets[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := fc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModelJSON(&buf)
	if err != nil {
		t.Fatalf("variance-0 sentinel (fixed-component models) rejected: %v", err)
	}
	if back.Variance != 0 || back.Components() != 2 {
		t.Fatalf("variance-0 model mis-parsed: variance %v, %d components", back.Variance, back.Components())
	}
}

// TestWriteJSONEmitsV1 checks the writer side of the wire contract: the
// current version key and a hash trailer that matches Fingerprint.
func TestWriteJSONEmitsV1(t *testing.T) {
	_, sets := encodeAll(t)
	m, err := Train(sets[0], 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var wire modelJSON
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Version != WireVersion {
		t.Fatalf("emitted version %d, want %d", wire.Version, WireVersion)
	}
	fp, err := m.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if wire.Sum == "" || wire.Sum != fp {
		t.Fatalf("hash trailer %q does not match fingerprint %q", wire.Sum, fp)
	}
	// A fixed-component model (variance 0) must round-trip too.
	fc, err := TrainFixedComponents(sets[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := fc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadModelJSON(&buf)
	if err != nil {
		t.Fatalf("fixed-component model does not round-trip: %v", err)
	}
	if back.Variance != 0 || back.Components() != fc.Components() {
		t.Fatalf("fixed-component round trip lost shape: %+v", back)
	}
}
