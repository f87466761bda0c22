package exchange

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The /v1 wire surface of the scoping service. Every route lives under /v1/,
// speaks the typed request/response structs below and reports failures
// through one JSON error envelope; any other path answers 404 in that
// envelope.
//
// Routes:
//
//	GET  /v1/models          → ListingV1 (published schemas of the tenant)
//	POST /v1/models          → upload one model (wire-format JSON body,
//	                           checksum-validated) → UploadResponse
//	GET  /v1/models/<schema> → model wire JSON, content-hash ETag, 304s
//	POST /v1/assess          → AssessRequest → AssessResponse
//	GET  /v1/metrics         → metrics registry snapshot (when enabled)
//	GET  /v1/healthz         → liveness: HealthResponse, always 200 while
//	                           the process serves requests (draining too)
//	GET  /v1/readyz          → readiness: HealthResponse, 200 only when the
//	                           server should receive new traffic
//
// Tenancy is carried by the X-Collabscope-Tenant header; an absent header
// means the DefaultTenant namespace.

// TenantHeader is the HTTP header naming the tenant namespace of a /v1
// request. Absent or empty means DefaultTenant.
const TenantHeader = "X-Collabscope-Tenant"

// DefaultTenant is the namespace used when no tenant header is sent, and
// the one Server.Publish and WithModels publish into.
const DefaultTenant = "default"

// DeadlineHeader carries the client's per-attempt deadline budget in
// integer milliseconds. A server that knows it cannot answer within the
// advertised budget sheds the request up front (503) instead of burning
// compute on an answer the client will have abandoned.
const DeadlineHeader = "X-Collabscope-Deadline"

// ListingV1 is the body of GET /v1/models: the wire version the service
// speaks, the tenant the listing belongs to, and the tenant's published
// models.
type ListingV1 struct {
	Version int              `json:"version"`
	Tenant  string           `json:"tenant"`
	Models  []ListingEntryV1 `json:"models"`
}

// ListingEntryV1 describes one published model of a tenant.
type ListingEntryV1 struct {
	Schema string `json:"schema"`
	ETag   string `json:"etag"`
	// ModelVersion counts uploads of this schema's model within its
	// tenant, starting at 1; re-publishing a changed model bumps it.
	ModelVersion int `json:"model_version"`
}

// UploadResponse answers POST /v1/models.
type UploadResponse struct {
	Tenant string `json:"tenant"`
	Schema string `json:"schema"`
	// Version is the registry version assigned to this upload (idempotent:
	// re-uploading identical content returns the existing version).
	Version int `json:"version"`
	// ETag is the content-hash ETag under which the model is now served.
	ETag string `json:"etag"`
}

// AssessRequest is the body of POST /v1/assess: local element signatures
// in, linkability verdicts out. Only signatures travel — never element
// names beyond the opaque IDs the caller chooses to send — preserving the
// paper's models-only exchange discipline.
type AssessRequest struct {
	// Schema names the requesting schema; models published under the same
	// name are skipped during assessment (Algorithm 2 never assesses a
	// schema against its own model).
	Schema string `json:"schema"`
	// IDs optionally labels each signature row; verdicts echo the labels.
	// Empty means rows are labelled by their index.
	IDs []string `json:"ids,omitempty"`
	// Signatures is the element-signature matrix, one row per element.
	Signatures [][]float64 `json:"signatures"`
	// Mode selects verdict combination: "any" (default, the paper's
	// Algorithm 2 union) or "all" (the stricter intersection ablation).
	Mode string `json:"mode,omitempty"`
	// RelaxEpsilon widens each model's linkability range to l·(1+ε).
	RelaxEpsilon float64 `json:"relax_epsilon,omitempty"`
}

// Verdict is one element's linkability outcome — the shared verdict type
// of the /v1/assess wire format and of the CLI's assessment rendering, so
// local and remote assessment render identically.
type Verdict struct {
	Element  string `json:"element"`
	Linkable bool   `json:"linkable"`
}

// ModelRef identifies one registry model that contributed to a verdict.
type ModelRef struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	ETag    string `json:"etag"`
}

// AssessResponse answers POST /v1/assess. Verdicts align with the request
// rows; Used names the foreign models applied, in deterministic (schema
// name) order.
type AssessResponse struct {
	Tenant   string     `json:"tenant"`
	Schema   string     `json:"schema"`
	Verdicts []Verdict  `json:"verdicts"`
	Used     []ModelRef `json:"used"`
	// Generation is the registry generation the verdicts were computed
	// against; it changes whenever any model of the process is published.
	Generation int64 `json:"generation"`
}

// ErrorEnvelope is the single JSON error shape of every /v1 route.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries a stable machine-readable code and a human message.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error codes of the /v1 API.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeInvalidModel     = "invalid_model"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeOverloaded       = "overloaded"
	CodeInternal         = "internal"
	// CodeDraining marks work rejected because the server is shutting down
	// gracefully; clients should retry against another replica.
	CodeDraining = "draining"
	// CodeDeadline marks work shed because the client's advertised deadline
	// budget cannot be met.
	CodeDeadline = "deadline_unmeetable"
)

// HealthResponse answers GET /v1/healthz and GET /v1/readyz.
type HealthResponse struct {
	// Status is "ok" when the probe passes, else a short reason
	// ("draining", "overloaded", "starting").
	Status string `json:"status"`
	// Checks itemises the readiness gates by name → pass/fail detail.
	// Liveness responses leave it empty.
	Checks map[string]string `json:"checks,omitempty"`
}

// writeV1Error writes the JSON error envelope with the given status.
func writeV1Error(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// validTenant reports whether a tenant name is acceptable as a namespace
// (and, lowercased, as a metric-name fragment): 1–64 characters from
// [A-Za-z0-9._-].
func validTenant(t string) bool {
	if len(t) == 0 || len(t) > 64 {
		return false
	}
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// tenantOf resolves the tenant namespace of a request ("" is an invalid
// result only when the header is present but malformed).
func tenantOf(r *http.Request) (string, bool) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return DefaultTenant, true
	}
	if !validTenant(t) {
		return "", false
	}
	return t, true
}
