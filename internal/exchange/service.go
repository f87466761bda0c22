package exchange

// The service hot path: POST /v1/models (registry uploads) and
// POST /v1/assess (signatures in → linkability verdicts out).
//
// An assess body is first decoded in one pass from wire bytes to the
// row-major signature matrix (decode.go): one buffer sized from a bounded
// Content-Length holds the body, one flat buffer the floats, and the
// scorer adopts that buffer. The request then passes three gates:
//
//  1. Coalescing — a request byte-identical to one already in flight for
//     the same tenant and registry generation joins it and shares the one
//     computation, so a thundering herd of identical queries costs one
//     worker-pool pass.
//  2. Admission — computations beyond the queue depth (or one tenant's
//     quota) are shed with 429 + Retry-After instead of queueing without
//     bound; a shed request costs no model arithmetic.
//  3. Computation — core.Columns, the one Algorithm 2 engine, reconstructs
//     the signature matrix under every foreign model of the tenant on the
//     internal/parallel pool, reusing the delta cache's columns (delta.go),
//     and core's one Definition 4 fold (AssessConfig.Linkable) turns the
//     columns into verdicts in deterministic model order.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"collabscope/internal/core"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
)

// Request body caps: a model upload is a few MB even at wire-format
// limits; an assess matrix can be large (elements × dimension floats).
const (
	maxUploadBody = 64 << 20
	maxAssessBody = 512 << 20
	// maxAssessFloats caps elements × dimension of one assess request,
	// mirroring the wire format's maxWireFloats.
	maxAssessFloats = 1 << 24
	// maxBodyPresize bounds what a request's Content-Length alone, before
	// any body byte arrives, can make a POST handler allocate. It covers
	// the benchmark's ~1.1 MB assess bodies; a larger body grows by
	// doubling.
	maxBodyPresize = 4 << 20
)

// flightCall is one in-flight assess computation that coalesced requests
// can join. done is closed after resp/err are set.
type flightCall struct {
	done chan struct{}
	resp *AssessResponse
	err  error
}

// statusErr carries an HTTP status + error code through the compute path.
type statusErr struct {
	status int
	code   string
	msg    string
}

func (e *statusErr) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &statusErr{status: http.StatusBadRequest, code: CodeInvalidRequest, msg: fmt.Sprintf(format, args...)}
}

// handleUpload implements POST /v1/models: the body is one model in wire
// format v1; its embedded SHA-256 trailer is validated end to end before
// the model enters the registry (and, when persistence is on, the
// checkpoint store).
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	reg := s.reg
	tenant, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	if s.draining.Load() {
		s.rejectDraining(w, reg)
		return
	}
	reg.Counter("service.uploads").Inc()
	body, ok := readBody(w, r, maxUploadBody, "model")
	if !ok {
		return
	}
	m, err := core.ReadModelJSON(bytes.NewReader(body))
	if err != nil {
		reg.Counter("service.upload_rejects").Inc()
		writeV1Error(w, http.StatusBadRequest, CodeInvalidModel, "%v", err)
		return
	}
	version, err := s.PublishTenant(tenant, m)
	if err != nil {
		writeV1Error(w, http.StatusInternalServerError, CodeInternal, "publish: %v", err)
		return
	}
	p, _ := s.lookup(tenant, m.Schema)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", p.etag)
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(UploadResponse{
		Tenant: tenant, Schema: m.Schema, Version: version, ETag: p.etag,
	})
}

// readBody reads a POST body of at most limit bytes into one buffer
// pre-sized from the request's Content-Length. It answers 413 for a longer
// body and 400 for one that cannot be read, and then reports ok=false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, what string) ([]byte, bool) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), maxBodyPresize)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, limit+1)); err != nil {
		writeV1Error(w, http.StatusBadRequest, CodeInvalidRequest, "read body: %v", err)
		return nil, false
	}
	if int64(buf.Len()) > limit {
		writeV1Error(w, http.StatusRequestEntityTooLarge, CodeInvalidRequest,
			"%s body exceeds %d bytes", what, limit)
		return nil, false
	}
	return buf.Bytes(), true
}

// validate checks an assess request's shape before it can touch the
// admission gates.
func (req *AssessRequest) validate() error {
	if req.Schema == "" {
		return badRequest("schema must be named (self-models are skipped by name)")
	}
	n := len(req.Signatures)
	if n == 0 {
		return badRequest("no signatures to assess")
	}
	dim := len(req.Signatures[0])
	if dim == 0 {
		return badRequest("signature rows are empty")
	}
	if n*dim > maxAssessFloats {
		return badRequest("request holds %d floats, cap is %d", n*dim, maxAssessFloats)
	}
	for i, row := range req.Signatures {
		if len(row) != dim {
			return badRequest("signature row %d has %d values, row 0 has %d", i, len(row), dim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return badRequest("signature[%d][%d] is not finite", i, j)
			}
		}
	}
	if len(req.IDs) != 0 && len(req.IDs) != n {
		return badRequest("%d ids for %d signature rows", len(req.IDs), n)
	}
	switch req.Mode {
	case "", "any", "all":
	default:
		return badRequest("mode %q (want \"any\" or \"all\")", req.Mode)
	}
	if req.RelaxEpsilon < 0 || math.IsNaN(req.RelaxEpsilon) || math.IsInf(req.RelaxEpsilon, 0) {
		return badRequest("relax_epsilon %v must be finite and ≥ 0", req.RelaxEpsilon)
	}
	return nil
}

func (req *AssessRequest) mode() core.AcceptanceMode {
	if req.Mode == "all" {
		return core.AllModels
	}
	return core.AnyModel
}

// handleAssess implements POST /v1/assess.
func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	reg := s.reg
	tenant, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	sw := obs.NewStopwatch()
	reg.Counter("service.requests").Inc()
	reg.Counter("service.tenant." + tenant + ".requests").Inc()
	body, ok := readBody(w, r, maxAssessBody, "assess")
	if !ok {
		return
	}
	req, flat, err := decodeAssess(r.Context(), body, s.workers)
	if err != nil {
		writeV1Error(w, http.StatusBadRequest, CodeInvalidRequest, "decode request: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		s.writeAssessError(w, reg, err)
		return
	}
	if budget, ok := deadlineBudget(r); ok && s.shedDeadline(reg, budget) {
		reg.Counter("service.deadline_shed").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.admission.RetryAfterSeconds))
		writeV1Error(w, http.StatusServiceUnavailable, CodeDeadline,
			"advertised deadline budget %v is below the observed assess latency", budget)
		return
	}

	// Coalesce or admit — one atomic decision under assessMu. The key pins
	// tenant, request bytes and registry generation, so a republish between
	// two identical requests never lets the second ride a stale verdict.
	// The draining flag is read under the same lock, so Drain's
	// lock-barrier can guarantee every admitted flight is in the inflight
	// WaitGroup before it starts waiting.
	sum := sha256.Sum256(body)
	key := fmt.Sprintf("%s|%d|%x", tenant, s.Generation(), sum)
	s.assessMu.Lock()
	if fc, ok := s.flight[key]; ok {
		s.assessMu.Unlock()
		reg.Counter("service.coalesced").Inc()
		reg.Counter("service.tenant." + tenant + ".coalesced").Inc()
		select {
		case <-fc.done:
			s.writeAssess(w, reg, tenant, sw, fc)
		case <-r.Context().Done():
			writeV1Error(w, http.StatusServiceUnavailable, CodeInternal,
				"request cancelled while awaiting coalesced result")
		}
		return
	}
	if s.draining.Load() {
		s.assessMu.Unlock()
		s.rejectDraining(w, reg)
		return
	}
	if s.admission.QueueDepth > 0 && s.active >= s.admission.QueueDepth {
		s.assessMu.Unlock()
		s.shed(w, reg, tenant, "queue")
		return
	}
	if s.admission.TenantQuota > 0 && s.tenantActive[tenant] >= s.admission.TenantQuota {
		s.assessMu.Unlock()
		s.shed(w, reg, tenant, "tenant")
		return
	}
	s.active++
	s.tenantActive[tenant]++
	s.inflight.Add(1)
	fc := &flightCall{done: make(chan struct{})}
	s.flight[key] = fc
	s.assessMu.Unlock()
	reg.Gauge("service.inflight").Add(1)

	// Compute detached from this request's cancellation: coalesced
	// followers share the result, so the leader hanging up must not void
	// their work. The server-level computeCtx stands in for the request
	// context — it only dies when Drain force-cancels stragglers.
	fc.resp, fc.err = s.computeAssess(s.computeCtx, tenant, &req, flat)
	s.assessMu.Lock()
	delete(s.flight, key)
	s.active--
	s.tenantActive[tenant]--
	if s.tenantActive[tenant] <= 0 {
		delete(s.tenantActive, tenant)
	}
	s.assessMu.Unlock()
	reg.Gauge("service.inflight").Add(-1)
	close(fc.done)
	s.inflight.Done()
	s.writeAssess(w, reg, tenant, sw, fc)
}

// shed rejects an assess request with 429 + Retry-After.
func (s *Server) shed(w http.ResponseWriter, reg *obs.Registry, tenant, gate string) {
	reg.Counter("service.shed").Inc()
	reg.Counter("service.tenant." + tenant + ".shed").Inc()
	w.Header().Set("Retry-After", strconv.Itoa(s.admission.RetryAfterSeconds))
	writeV1Error(w, http.StatusTooManyRequests, CodeOverloaded,
		"assess %s full, retry after %ds", gate, s.admission.RetryAfterSeconds)
}

func (s *Server) writeAssess(w http.ResponseWriter, reg *obs.Registry, tenant string, sw obs.Stopwatch, fc *flightCall) {
	if fc.err != nil {
		s.writeAssessError(w, reg, fc.err)
		return
	}
	reg.Histogram("service.assess").ObserveSince(sw)
	reg.Histogram("service.tenant." + tenant + ".assess").ObserveSince(sw)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(fc.resp)
}

func (s *Server) writeAssessError(w http.ResponseWriter, reg *obs.Registry, err error) {
	reg.Counter("service.errors").Inc()
	var se *statusErr
	if errors.As(err, &se) {
		writeV1Error(w, se.status, se.code, "%s", se.msg)
		return
	}
	if errors.Is(err, context.Canceled) && s.draining.Load() {
		// The flight was force-cancelled by Drain: waiters get the typed
		// draining answer, not an opaque 500.
		w.Header().Set("Retry-After", strconv.Itoa(s.admission.RetryAfterSeconds))
		writeV1Error(w, http.StatusServiceUnavailable, CodeDraining,
			"assessment cancelled by server drain, retry against another replica")
		return
	}
	writeV1Error(w, http.StatusInternalServerError, CodeInternal, "%v", err)
}

// snapshotForeign returns the tenant's models excluding the requesting
// schema's own, in deterministic schema-name order, plus the registry
// generation the snapshot belongs to.
func (s *Server) snapshotForeign(tenant, schema string) []*published {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sp, ok := s.tenants[tenant]
	if !ok {
		return nil
	}
	out := make([]*published, 0, len(sp.models))
	for name, p := range sp.models {
		if name == schema {
			continue // Algorithm 2 never assesses a schema against itself
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].model.Schema < out[j].model.Schema })
	return out
}

// computeAssess runs one admitted assessment: score the signature matrix —
// flat, the decoder's row-major buffer behind req.Signatures — under every
// foreign model of the tenant through core.Columns (parallel across
// models) and fold acceptances in model order through the same fold as
// core.AssessContext, so service verdicts match in-process ones.
// "exchange.service.assess" is a fault-injection hook point: injected
// delays stall the computation inside the admission window (exercising
// shedding and coalescing), injected errors become 500s.
func (s *Server) computeAssess(ctx context.Context, tenant string, req *AssessRequest, flat []float64) (*AssessResponse, error) {
	if err := s.hit("exchange.service.assess"); err != nil {
		return nil, err
	}
	foreign := s.snapshotForeign(tenant, req.Schema)
	n := len(req.Signatures)
	dim := len(req.Signatures[0])
	models := make([]*core.Model, len(foreign))
	etags := make(map[string]string, len(foreign))
	for k, p := range foreign {
		if p.model.Dim() != dim {
			return nil, badRequest("model %q has dimension %d, request signatures have %d",
				p.model.Schema, p.model.Dim(), dim)
		}
		models[k] = p.model
		etags[p.model.Schema] = p.etag
	}
	// Delta assessment: reuse cached per-model error columns whose model
	// ETag still matches, re-score only the columns of models that were
	// republished (version-bumped) or never scored for these signatures.
	// Reused columns are the exact values a cold pass would recompute, so
	// verdicts are identical either way; the counters prove the saved work.
	x := linalg.WrapDense(n, dim, flat)
	cache := &deltaColumns{store: s.delta, key: core.SignatureDigest(tenant, req.Schema, x), etags: etags}
	errs, rep, err := core.Columns(ctx, s.workers, x, models, cache)
	if err != nil {
		return nil, err
	}
	reg := s.reg
	reg.Counter("service.delta.reused").Add(int64(rep.Reused))
	reg.Counter("service.delta.rescored").Add(int64(rep.Rescored))
	reg.Counter("service.tenant." + tenant + ".delta.reused").Add(int64(rep.Reused))
	reg.Counter("service.tenant." + tenant + ".delta.rescored").Add(int64(rep.Rescored))
	cfg := core.AssessConfig{Mode: req.mode(), RelaxEpsilon: req.RelaxEpsilon}
	verdicts := make([]Verdict, n)
	for i, linkable := range cfg.Linkable(models, errs, n) {
		label := strconv.Itoa(i)
		if len(req.IDs) != 0 {
			label = req.IDs[i]
		}
		verdicts[i] = Verdict{Element: label, Linkable: linkable}
	}
	resp := &AssessResponse{
		Tenant:     tenant,
		Schema:     req.Schema,
		Verdicts:   verdicts,
		Used:       make([]ModelRef, 0, len(foreign)),
		Generation: s.Generation(),
	}
	for _, p := range foreign {
		resp.Used = append(resp.Used, ModelRef{Schema: p.model.Schema, Version: p.version, ETag: p.etag})
	}
	return resp, nil
}
