package encoder

import (
	"io"
	"net/http"
	"sync/atomic"

	"collabscope/internal/embed"
)

// StubServer is an http.Handler implementing the encode wire format over
// any local encoder — conformance tests and the encodersmoke binary wrap
// the deterministic hash encoder with it, so the remote backend's full
// network path can be exercised hermetically and its output compared
// bit-for-bit against the local path.
type StubServer struct {
	enc      embed.Encoder
	requests atomic.Int64
	texts    atomic.Int64
}

// NewStubServer returns a stub encode server backed by enc.
func NewStubServer(enc embed.Encoder) *StubServer {
	return &StubServer{enc: enc}
}

// Requests returns how many well-formed encode requests the server has
// answered — coalescing tests count round trips with it.
func (s *StubServer) Requests() int64 { return s.requests.Load() }

// Texts returns how many texts those requests carried in total.
func (s *StubServer) Texts() int64 { return s.texts.Load() }

// ServeHTTP implements http.Handler.
func (s *StubServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "encode endpoint accepts POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxResponseBody+1))
	if err != nil || len(body) > maxResponseBody {
		http.Error(w, "unreadable or oversized request body", http.StatusBadRequest)
		return
	}
	req, err := UnmarshalRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Dim != s.enc.Dim() {
		http.Error(w, "requested dimension not served by this model", http.StatusBadRequest)
		return
	}
	s.requests.Add(1)
	s.texts.Add(int64(len(req.Texts)))
	vectors, err := s.enc.EncodeBatch(r.Context(), req.Texts)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	payload, err := MarshalResponse(EncodeResponse{Model: req.Model, Dim: s.enc.Dim(), Vectors: vectors})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}
