// Package encoder provides pluggable signature-encoder backends behind the
// batch-first embed.Encoder contract (DESIGN.md §16): the deterministic
// hash encoder as the default and test double, and a remote HTTP backend —
// batched, coalesced, retried, and content-addressed-cached — so a real
// embedding server (Sentence-BERT behind an HTTP front) can slot into the
// pipeline without changing any call site.
package encoder

import (
	"encoding/json"
	"fmt"
	"math"

	"collabscope/internal/seal"
)

// WireVersion is the encode wire-format version. Version bumps are
// explicit: a response from a future server is rejected, never guessed at.
const WireVersion = 1

// maxResponseBody bounds how much of a response is read before parsing;
// a misbehaving server cannot stream unbounded garbage into memory.
const maxResponseBody = 256 << 20

// EncodeRequest is the POST body of one encode round trip. Sum is a
// SHA-256 trailer over the canonical encoding with Sum empty — the same
// end-to-end corruption discipline as the model exchange wire format.
type EncodeRequest struct {
	Version int      `json:"version"`
	Model   string   `json:"model,omitempty"`
	Dim     int      `json:"dim"`
	Texts   []string `json:"texts"`
	Sum     string   `json:"sum"`
}

// EncodeResponse carries one signature per request text, in order, under
// the same versioned envelope and SHA-256 trailer as the request.
type EncodeResponse struct {
	Version int         `json:"version"`
	Model   string      `json:"model,omitempty"`
	Dim     int         `json:"dim"`
	Vectors [][]float64 `json:"vectors"`
	Sum     string      `json:"sum"`
}

// MarshalRequest seals and encodes a request: the trailer is computed over
// the canonical encoding with Sum empty, then stamped in.
func MarshalRequest(r EncodeRequest) ([]byte, error) {
	r.Version = WireVersion
	if err := seal.Seal(&r, &r.Sum); err != nil {
		return nil, fmt.Errorf("encoder: seal request: %w", err)
	}
	return json.Marshal(r)
}

// UnmarshalRequest decodes and validates a request: version, checksum
// trailer, and a positive dimension.
func UnmarshalRequest(data []byte) (*EncodeRequest, error) {
	var r EncodeRequest
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("encoder: decode request: %w", err)
	}
	if r.Version != WireVersion {
		return nil, fmt.Errorf("encoder: request wire version %d, this build speaks %d", r.Version, WireVersion)
	}
	if r.Dim <= 0 {
		return nil, fmt.Errorf("encoder: request dimension %d is not positive", r.Dim)
	}
	if err := seal.Verify(&r, &r.Sum); err != nil {
		return nil, fmt.Errorf("encoder: request %w", err)
	}
	return &r, nil
}

// MarshalResponse seals and encodes a response.
func MarshalResponse(r EncodeResponse) ([]byte, error) {
	r.Version = WireVersion
	if err := seal.Seal(&r, &r.Sum); err != nil {
		return nil, fmt.Errorf("encoder: seal response: %w", err)
	}
	return json.Marshal(r)
}

// UnmarshalResponse decodes and validates a response against the request
// it answers: wire version, checksum trailer, the declared dimension
// (wantDim, 0 skips), one vector per requested text (wantTexts, negative
// skips), every vector exactly Dim long, and every entry finite — a NaN
// from a remote backend must fail here with the offending index, not
// deep inside a model fit. This is the decoder FuzzEncoderResponseJSON
// hammers: any input may error, none may panic.
func UnmarshalResponse(data []byte, wantDim, wantTexts int) (*EncodeResponse, error) {
	var r EncodeResponse
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("encoder: decode response: %w", err)
	}
	if r.Version != WireVersion {
		return nil, fmt.Errorf("encoder: response wire version %d, this build speaks %d", r.Version, WireVersion)
	}
	if r.Dim <= 0 {
		return nil, fmt.Errorf("encoder: response dimension %d is not positive", r.Dim)
	}
	if err := seal.Verify(&r, &r.Sum); err != nil {
		return nil, fmt.Errorf("encoder: response %w", err)
	}
	if wantDim > 0 && r.Dim != wantDim {
		return nil, fmt.Errorf("encoder: response dimension %d, requested %d", r.Dim, wantDim)
	}
	if wantTexts >= 0 && len(r.Vectors) != wantTexts {
		return nil, fmt.Errorf("encoder: response carries %d vectors for %d texts", len(r.Vectors), wantTexts)
	}
	for i, v := range r.Vectors {
		if len(v) != r.Dim {
			return nil, fmt.Errorf("encoder: response vector %d has %d dimensions, envelope declares %d", i, len(v), r.Dim)
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("encoder: response vector %d is non-finite at dimension %d", i, j)
			}
		}
	}
	return &r, nil
}
