package embed

import (
	"context"
	"errors"
	"fmt"

	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// ErrDimMismatch reports signatures of the wrong shape: an Encoder that
// violated the batch contract (a signature length other than Dim(), or a
// vector count other than the text count), caught at EncodeElementsContext
// ingress before it can truncate or zero-pad the signature matrix, or a
// foreign model of another dimension, caught by core.Columns before any
// reconstruction pass.
var ErrDimMismatch = errors.New("signature dimension mismatch")

// SignatureSet couples schema element identifiers with their signatures,
// row i of Matrix belonging to IDs[i]. It is the S_k^v of the paper.
type SignatureSet struct {
	IDs    []schema.ElementID
	Matrix *linalg.Dense
}

// Len returns the number of signatures.
func (s *SignatureSet) Len() int { return len(s.IDs) }

// EncodeSchemaContext serialises every element of the schema (T^t for
// tables, T^a for attributes) and encodes the sequences into a signature
// set — phase (I) of collaborative scoping, lines 1-2 of Algorithm 1.
// Per-element encoding fans out over up to workers goroutines (≤ 0 means
// GOMAXPROCS); each worker writes its own signature row, so the result is
// identical for any worker count.
func EncodeSchemaContext(ctx context.Context, workers int, enc Encoder, s *schema.Schema) (*SignatureSet, error) {
	return EncodeElementsContext(ctx, workers, enc, s.Elements())
}

// EncodeElementsContext encodes already-serialised elements — the entry
// point the enrichment stage (internal/enrich) feeds after rewriting
// element texts. The whole element list goes to the encoder as ONE batch
// (local backends fan out over the worker pool internally; remote backends
// amortise round trips), then every returned signature is validated at
// this ingress: exactly one vector per element (ErrDimMismatch), exactly
// Dim() entries each (ErrDimMismatch), and all entries finite
// (linalg.ErrNonFinite) — a NaN/Inf signature would flow unchecked into
// every trained model and linkability range l_k (Definition 3), poisoning
// all downstream Algorithm 2 verdicts. Errors name the lowest offending
// element, matching the pool's lowest-index determinism.
func EncodeElementsContext(ctx context.Context, workers int, enc Encoder, els []schema.Element) (*SignatureSet, error) {
	ctx, sp := obs.Start(ctx, "embed.encode")
	sp.Annotate("elements", int64(len(els)))
	defer sp.End()
	ids := make([]schema.ElementID, len(els))
	texts := make([]string, len(els))
	for i, el := range els {
		ids[i] = el.ID
		texts[i] = el.Text
	}
	rows, err := enc.EncodeBatch(WithWorkers(ctx, workers), texts)
	if err != nil {
		return nil, err
	}
	if len(rows) != len(els) {
		return nil, fmt.Errorf("embed: encoder returned %d signatures for %d elements: %w",
			len(rows), len(els), ErrDimMismatch)
	}
	m := linalg.NewDense(len(els), enc.Dim())
	for i, row := range rows {
		if len(row) != enc.Dim() {
			return nil, fmt.Errorf("embed: signature of %s has %d dimensions, encoder declares Dim() = %d: %w",
				els[i].ID, len(row), enc.Dim(), ErrDimMismatch)
		}
		if j := linalg.FirstNonFinite(row); j >= 0 {
			return nil, fmt.Errorf("embed: signature of %s is non-finite at dimension %d (%v): %w",
				els[i].ID, j, row[j], linalg.ErrNonFinite)
		}
		copy(m.RowView(i), row)
	}
	return &SignatureSet{IDs: ids, Matrix: m}, nil
}

// EncodeSchemasContext encodes each schema independently with the shared
// encoder. Schemas encode sequentially while their elements fan out over
// the worker pool, keeping it saturated without nesting pools.
func EncodeSchemasContext(ctx context.Context, workers int, enc Encoder, schemas []*schema.Schema) ([]*SignatureSet, error) {
	out := make([]*SignatureSet, len(schemas))
	for i, s := range schemas {
		set, err := EncodeSchemaContext(ctx, workers, enc, s)
		if err != nil {
			return nil, err
		}
		out[i] = set
	}
	return out, nil
}

// Union concatenates signature sets into one, preserving order — the
// unified S^v used by the global scoping baseline.
func Union(sets []*SignatureSet) *SignatureSet {
	total, dim := 0, 0
	for _, s := range sets {
		total += s.Len()
		if s.Matrix.Cols() > dim {
			dim = s.Matrix.Cols()
		}
	}
	ids := make([]schema.ElementID, 0, total)
	m := linalg.NewDense(total, dim)
	row := 0
	for _, s := range sets {
		for i := 0; i < s.Len(); i++ {
			ids = append(ids, s.IDs[i])
			copy(m.RowView(row), s.Matrix.RowView(i))
			row++
		}
	}
	return &SignatureSet{IDs: ids, Matrix: m}
}

// AttributeSignatures returns the subset of the signature set containing
// only attribute elements, used by matchers that compare attributes.
func (s *SignatureSet) AttributeSignatures() *SignatureSet {
	return s.filter(schema.KindAttribute)
}

// TableSignatures returns the subset containing only table elements.
func (s *SignatureSet) TableSignatures() *SignatureSet {
	return s.filter(schema.KindTable)
}

func (s *SignatureSet) filter(kind schema.ElementKind) *SignatureSet {
	var rows []int
	for i, id := range s.IDs {
		if id.Kind == kind {
			rows = append(rows, i)
		}
	}
	ids := make([]schema.ElementID, len(rows))
	m := linalg.NewDense(len(rows), s.Matrix.Cols())
	for j, i := range rows {
		ids[j] = s.IDs[i]
		copy(m.RowView(j), s.Matrix.RowView(i))
	}
	return &SignatureSet{IDs: ids, Matrix: m}
}

// Select returns the subset of the signature set whose identifiers are in
// keep, preserving order.
func (s *SignatureSet) Select(keep map[schema.ElementID]bool) *SignatureSet {
	var rows []int
	for i, id := range s.IDs {
		if keep[id] {
			rows = append(rows, i)
		}
	}
	ids := make([]schema.ElementID, len(rows))
	m := linalg.NewDense(len(rows), s.Matrix.Cols())
	for j, i := range rows {
		ids[j] = s.IDs[i]
		copy(m.RowView(j), s.Matrix.RowView(i))
	}
	return &SignatureSet{IDs: ids, Matrix: m}
}
