package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"collabscope/internal/linalg"
	"collabscope/internal/seal"
)

// WireVersion is the model wire-format version WriteJSON emits and the only
// one ReadModelJSON accepts. A payload without the "version" key (the
// retired v0 format, which also had no hash trailer) or with any other
// version is rejected with a descriptive error: a newer peer fails loudly
// rather than being half-parsed, and stripping the key and trailer cannot
// load a model around the integrity check.
const WireVersion = 1

// Wire-level resource caps. A model is exchanged with untrusted peers, so
// the reader bounds what it will materialise before allocating: the
// signature dimensionality, and the total float count of the component
// matrix (maxWireFloats × 8 bytes ≈ 128 MiB worst case).
const (
	maxWireDim    = 1 << 16
	maxWireFloats = 1 << 24
)

// modelJSON is the wire format of an exchanged local model. It carries
// exactly the three components of Algorithm 1's output — mean, retained
// principal components, linkability range — plus identification metadata
// and (since v1) an integrity trailer. Nothing about individual schema
// elements leaves the schema.
type modelJSON struct {
	Version    int         `json:"version,omitempty"`
	Schema     string      `json:"schema"`
	Variance   float64     `json:"variance"`
	Dim        int         `json:"dim"`
	Mean       []float64   `json:"mean"`
	Components [][]float64 `json:"components"`
	Range      float64     `json:"range"`
	// Sum is the hash trailer, sealed by internal/seal: the hex SHA-256 of
	// the compact JSON encoding of this object with Sum empty (and
	// therefore omitted). Field order is the struct order above; floats use
	// Go's shortest round-trip formatting, so any reader that decodes and
	// re-encodes the payload reproduces the same bytes. Mandatory from v1
	// on; absent in v0 payloads.
	Sum string `json:"sum,omitempty"`
}

// wire builds the v1 wire object of a model, hash trailer included.
func (m *Model) wire() (*modelJSON, error) {
	w := &modelJSON{
		Version:  WireVersion,
		Schema:   m.Schema,
		Variance: m.Variance,
		Dim:      len(m.pca.Mean),
		Mean:     m.pca.Mean,
		Range:    m.Range,
	}
	for i := 0; i < m.pca.Components.Rows(); i++ {
		w.Components = append(w.Components, m.pca.Components.Row(i))
	}
	if err := seal.Seal(w, &w.Sum); err != nil {
		return nil, fmt.Errorf("core: hash model: %w", err)
	}
	return w, nil
}

// Fingerprint returns the model's content hash — the hex SHA-256 of its
// canonical wire form, identical to the "sum" trailer WriteJSON emits. The
// exchange subsystem serves it as the ETag of the published model.
func (m *Model) Fingerprint() (string, error) {
	w, err := m.wire()
	if err != nil {
		return "", err
	}
	return w.Sum, nil
}

// WriteJSON serialises the model for exchange with other schemas in wire
// format v1 (explicit version key and SHA-256 hash trailer).
func (m *Model) WriteJSON(w io.Writer) error {
	wire, err := m.wire()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(wire)
}

// ReadModelJSON deserialises an exchanged model and validates it. It
// accepts wire version WireVersion only and treats the payload as hostile:
// another version, shape mismatches, out-of-domain values (negative range,
// variance outside [0, 1], empty schema name, non-finite numbers),
// oversized dimensions, and a missing or mismatching hash trailer all fail
// with descriptive errors before any large allocation happens.
//
// Variance 0 is accepted: it is the sentinel of fixed-component ablation
// models (TrainFixedComponents), which have no explained-variance target.
func ReadModelJSON(r io.Reader) (*Model, error) {
	var wire modelJSON
	if err := json.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if wire.Version != WireVersion {
		return nil, fmt.Errorf("core: model wire version %d not supported (this build speaks %d)",
			wire.Version, WireVersion)
	}
	if wire.Schema == "" {
		return nil, fmt.Errorf("core: model has an empty schema name")
	}
	if math.IsNaN(wire.Variance) || wire.Variance < 0 || wire.Variance > 1 {
		return nil, fmt.Errorf("core: model variance %v outside [0, 1]", wire.Variance)
	}
	if wire.Dim <= 0 {
		return nil, fmt.Errorf("core: model dimension %d must be positive", wire.Dim)
	}
	if wire.Dim > maxWireDim {
		return nil, fmt.Errorf("core: model dimension %d exceeds the wire cap %d", wire.Dim, maxWireDim)
	}
	if len(wire.Mean) != wire.Dim {
		return nil, fmt.Errorf("core: model mean has %d values, header says %d", len(wire.Mean), wire.Dim)
	}
	if len(wire.Components) == 0 {
		return nil, fmt.Errorf("core: model has no principal components")
	}
	if len(wire.Components) > wire.Dim {
		return nil, fmt.Errorf("core: model has %d components for %d dimensions — PCA rank cannot exceed the dimensionality",
			len(wire.Components), wire.Dim)
	}
	if len(wire.Components)*wire.Dim > maxWireFloats {
		return nil, fmt.Errorf("core: model component matrix %d×%d exceeds the wire cap of %d values",
			len(wire.Components), wire.Dim, maxWireFloats)
	}
	if math.IsNaN(wire.Range) || math.IsInf(wire.Range, 0) || wire.Range < 0 {
		return nil, fmt.Errorf("core: linkability range %v must be finite and non-negative", wire.Range)
	}
	if err := seal.Verify(&wire, &wire.Sum); err != nil {
		return nil, fmt.Errorf("core: v%d model %w", wire.Version, err)
	}
	comp := linalg.NewDense(len(wire.Components), wire.Dim)
	for i, row := range wire.Components {
		if len(row) != wire.Dim {
			return nil, fmt.Errorf("core: component %d has %d values, want %d", i, len(row), wire.Dim)
		}
		copy(comp.RowView(i), row)
	}
	pca := &linalg.PCA{
		Mean:       wire.Mean,
		Components: comp,
		NComp:      comp.Rows(),
	}
	return &Model{
		Schema:   wire.Schema,
		Variance: wire.Variance,
		pca:      pca,
		Range:    wire.Range,
	}, nil
}
