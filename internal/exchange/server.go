// Package exchange moves trained models between schemas over HTTP — the
// production transport for the paper's exchange step, in which only models
// M_k = {μ_k, PC_k, l_k} ever travel, never schema elements.
//
// A Server is a long-running multi-tenant scoping service. Each tenant
// namespace holds a versioned model registry fed by POST /v1/models
// uploads (checksum-validated, optionally persisted through
// internal/checkpoint so the registry survives restarts) and answers
// linkability queries on its hot path, POST /v1/assess: signatures in,
// verdicts out, with request coalescing and admission control. Models are
// served at /v1/models/<schema> in wire format v1 (versioned JSON with a
// SHA-256 hash trailer) with the content hash as a strong ETag, so
// unchanged models revalidate with 304s. Every route lives under /v1;
// there is no unversioned dialect.
//
// A Client fetches peers' models with per-request timeouts, capped
// exponential backoff with jitter, and end-to-end checksum validation.
//
// The failure model follows the paper's design: collaborative scoping
// degrades gracefully when foreign models are missing (fewer models ⇒ more
// conservative verdicts), so FetchAll never aborts on a flaky peer — it
// returns every model it could get plus a per-peer error report, and the
// caller assesses against whoever responded.
package exchange

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"collabscope/internal/checkpoint"
	"collabscope/internal/core"
	"collabscope/internal/faultinject"
	"collabscope/internal/obs"
)

// published is one model frozen at publish time: its canonical v1 wire
// bytes, the content-hash ETag derived from them, the decoded model kept
// for the assess hot path, and the registry version of the upload.
type published struct {
	body    []byte
	etag    string // strong ETag, quotes included
	model   *core.Model
	version int // per-(tenant, schema) upload version, starting at 1
}

// tenantSpace is one tenant's model registry.
type tenantSpace struct {
	models map[string]*published
}

// AdmissionConfig bounds the /v1/assess hot path. Requests beyond the
// bounds are shed with 429 and a Retry-After header rather than queued
// without limit.
type AdmissionConfig struct {
	// QueueDepth caps concurrently admitted assess computations across all
	// tenants. 0 means DefaultQueueDepth; negative disables shedding.
	QueueDepth int
	// TenantQuota caps one tenant's concurrently admitted computations, so
	// a single hot tenant cannot starve the rest. 0 means QueueDepth;
	// negative disables the per-tenant cap.
	TenantQuota int
	// RetryAfterSeconds is advertised in the Retry-After header of shed
	// responses. 0 means DefaultRetryAfterSeconds.
	RetryAfterSeconds int
}

// Admission defaults.
const (
	DefaultQueueDepth        = 64
	DefaultRetryAfterSeconds = 1
)

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.QueueDepth == 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.TenantQuota == 0 {
		c.TenantQuota = c.QueueDepth
	}
	if c.RetryAfterSeconds == 0 {
		c.RetryAfterSeconds = DefaultRetryAfterSeconds
	}
	return c
}

// Server is the scoping service: an http.Handler whose routes are listed
// in the package comment and specified in DESIGN.md §12. Publishing and
// uploading are safe during serving; a model can be re-published after
// retraining and its ETag changes with the content.
type Server struct {
	mu      sync.RWMutex
	tenants map[string]*tenantSpace
	// generation counts content-changing publishes across all tenants. The
	// assess coalescer keys on it so a republish can never serve a verdict
	// computed against the previous registry state.
	generation int64
	// store, when set, persists the registry (one checkpoint cell per
	// model plus a manifest cell) so uploads survive restarts.
	store *checkpoint.Store
	// inject, when set, scopes fault injection to this hub instance (sites
	// exchange.server.request, exchange.server.body and
	// exchange.service.assess), so chaos tests can make exactly one peer of
	// a fleet misbehave.
	inject *faultinject.Injector
	// reg, when set, backs GET /v1/metrics and the service counters. Nil
	// keeps both disabled: the metrics route answers 404 and the counters
	// are no-ops. Only NewServer writes reg and pprofEnabled, so handlers
	// read both without the lock.
	reg *obs.Registry
	// pprofEnabled exposes net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints leak timing and heap internals, so a hub
	// must opt in (e.g. `collabscope serve -pprof`).
	pprofEnabled bool
	// workers bounds the worker-pool fan-out of one assess request, its
	// decode and its scoring (0 = GOMAXPROCS).
	workers int

	admission AdmissionConfig

	// Assess admission + coalescing state; assessMu also guards flight so
	// the join-or-admit decision is atomic (see service.go).
	assessMu     sync.Mutex
	flight       map[string]*flightCall
	active       int
	tenantActive map[string]int

	// Lifecycle state (lifecycle.go). draining refuses new work; inflight
	// counts admitted assess computations so Drain can wait them out;
	// computeCtx is the detached context computations run under, cancelled
	// by Drain when its own context expires.
	draining      atomic.Bool
	inflight      sync.WaitGroup
	computeCtx    context.Context
	computeCancel context.CancelFunc
	drainOnce     sync.Once
	drainDone     chan struct{}
	drainErr      error

	// delta caches per-model assess error columns across registry
	// generations, so a single-model republish re-scores only that model's
	// column on the next identical-signature assessment (delta.go).
	delta *deltaStore
}

// ServerOption configures NewServer, mirroring the Pipeline option style.
type ServerOption func(*serverConfig)

type serverConfig struct {
	models      []*core.Model
	reg         *obs.Registry
	pprof       bool
	registryDir string
	admission   AdmissionConfig
	workers     int
}

// WithModels publishes the given models (into the default tenant) at
// construction time.
func WithModels(models ...*core.Model) ServerOption {
	return func(c *serverConfig) { c.models = append(c.models, models...) }
}

// WithServerMetrics attaches a metrics registry: the service then counts
// requests, sheds and latencies, and serves a JSON snapshot of the
// registry — which may be shared with the rest of the process — at
// GET /v1/metrics.
func WithServerMetrics(reg *obs.Registry) ServerOption {
	return func(c *serverConfig) { c.reg = reg }
}

// WithPprof exposes the net/http/pprof handlers under /debug/pprof/.
func WithPprof() ServerOption {
	return func(c *serverConfig) { c.pprof = true }
}

// WithRegistryDir persists the model registry in a checkpoint store rooted
// at dir: every publish and upload is written through, and NewServer
// reloads the registry from the same directory, so a restarted server
// serves byte-identical model bodies and verdicts.
func WithRegistryDir(dir string) ServerOption {
	return func(c *serverConfig) { c.registryDir = dir }
}

// WithAdmission bounds the /v1/assess hot path (queue depth, per-tenant
// quota, Retry-After). The zero config means the defaults.
func WithAdmission(cfg AdmissionConfig) ServerOption {
	return func(c *serverConfig) { c.admission = cfg }
}

// WithServerWorkers bounds the worker-pool fan-out of one assess request
// (0 = GOMAXPROCS): the row walk that decodes its signatures and the
// reconstruction passes that score them.
func WithServerWorkers(n int) ServerOption {
	return func(c *serverConfig) { c.workers = n }
}

// NewServer returns a scoping service configured by the given options.
func NewServer(opts ...ServerOption) (*Server, error) {
	var cfg serverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Server{
		tenants:      make(map[string]*tenantSpace),
		reg:          cfg.reg,
		pprofEnabled: cfg.pprof,
		workers:      cfg.workers,
		admission:    cfg.admission.withDefaults(),
		flight:       make(map[string]*flightCall),
		tenantActive: make(map[string]int),
		drainDone:    make(chan struct{}),
		delta:        newDeltaStore(cfg.reg),
	}
	s.computeCtx, s.computeCancel = context.WithCancel(context.Background())
	if cfg.registryDir != "" {
		st, err := checkpoint.Open(cfg.registryDir)
		if err != nil {
			return nil, fmt.Errorf("exchange: open registry: %w", err)
		}
		s.store = st
	}
	if s.store != nil {
		if err := s.loadRegistry(); err != nil {
			return nil, err
		}
	}
	for _, m := range cfg.models {
		if err := s.Publish(m); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SetFaultInjector arms (or, with nil, disarms) an instance-scoped fault
// injector on this hub, which takes precedence over a globally armed one.
// It acts on a live server: the chaos SLO harness arms and disarms one
// replica mid-run.
func (s *Server) SetFaultInjector(in *faultinject.Injector) { // lintobs:allow the chaos seam: service tests and the chaos SLO harness fault one live hub through it
	s.mu.Lock()
	s.inject = in
	s.mu.Unlock()
}

func (s *Server) injector() *faultinject.Injector {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inject
}

func (s *Server) hit(site string) error {
	if in := s.injector(); in != nil {
		return in.Hit(site)
	}
	return faultinject.Hit(site)
}

// Registry persistence: one checkpoint cell per model keyed
// "model.<tenant>.<schema>", plus a manifest cell enumerating the live
// (tenant, schema) pairs — the store has no directory listing, so the
// manifest is how a restart finds its cells. Model bytes are stored in
// canonical wire form; the cell envelope's own hash trailer plus the wire
// format's embedded checksum make a corrupted registry a detected miss,
// never silently wrong verdicts.

const manifestKey = "registry.manifest"

type manifestCell struct {
	Entries []manifestEntry `json:"entries"`
}

type manifestEntry struct {
	Tenant string `json:"tenant"`
	Schema string `json:"schema"`
}

type modelCell struct {
	Tenant  string          `json:"tenant"`
	Schema  string          `json:"schema"`
	Version int             `json:"version"`
	Wire    json.RawMessage `json:"wire"`
}

func modelCellKey(tenant, schema string) string {
	return "model." + tenant + "." + schema
}

// loadRegistry rebuilds the in-memory registry from the checkpoint store.
// A missing or quarantined cell skips that model (the uploader re-uploads)
// rather than failing startup.
func (s *Server) loadRegistry() error {
	var man manifestCell
	ok, err := s.store.Load(manifestKey, &man)
	if err != nil {
		return fmt.Errorf("exchange: load registry manifest: %w", err)
	}
	if !ok {
		return nil
	}
	for _, e := range man.Entries {
		var cell modelCell
		ok, err := s.store.Load(modelCellKey(e.Tenant, e.Schema), &cell)
		if err != nil {
			return fmt.Errorf("exchange: load registry cell %s/%s: %w", e.Tenant, e.Schema, err)
		}
		if !ok {
			continue
		}
		m, err := core.ReadModelJSON(bytes.NewReader(cell.Wire))
		if err != nil {
			// The envelope verified but the wire payload does not: treat
			// like a quarantined cell and let the uploader re-upload.
			continue
		}
		p, err := freeze(m)
		if err != nil {
			return err
		}
		p.version = cell.Version
		s.space(e.Tenant).models[e.Schema] = p
		s.generation++
	}
	return nil
}

// persist writes one model's cell and the refreshed manifest. Callers hold
// s.mu.
func (s *Server) persistLocked(tenant, schema string, p *published) error {
	if s.store == nil {
		return nil
	}
	cell := modelCell{Tenant: tenant, Schema: schema, Version: p.version, Wire: p.body}
	if err := s.store.Save(modelCellKey(tenant, schema), &cell); err != nil {
		return fmt.Errorf("exchange: persist model %s/%s: %w", tenant, schema, err)
	}
	man := s.manifestLocked()
	if err := s.store.Save(manifestKey, &man); err != nil {
		return fmt.Errorf("exchange: persist registry manifest: %w", err)
	}
	return nil
}

// manifestLocked enumerates the live (tenant, schema) pairs in sorted
// order. Callers hold s.mu (read or write).
func (s *Server) manifestLocked() manifestCell {
	var man manifestCell
	for t, sp := range s.tenants {
		for name := range sp.models {
			man.Entries = append(man.Entries, manifestEntry{Tenant: t, Schema: name})
		}
	}
	sort.Slice(man.Entries, func(i, j int) bool {
		if man.Entries[i].Tenant != man.Entries[j].Tenant {
			return man.Entries[i].Tenant < man.Entries[j].Tenant
		}
		return man.Entries[i].Schema < man.Entries[j].Schema
	})
	return man
}

// space returns (creating if needed) a tenant's registry. Callers hold
// s.mu or run before serving starts.
func (s *Server) space(tenant string) *tenantSpace {
	sp, ok := s.tenants[tenant]
	if !ok {
		sp = &tenantSpace{models: make(map[string]*published)}
		s.tenants[tenant] = sp
	}
	return sp
}

// freeze serialises a model to its canonical wire bytes and content-hash
// ETag.
func freeze(m *core.Model) (*published, error) {
	if m == nil {
		return nil, fmt.Errorf("exchange: cannot publish a nil model")
	}
	if m.Schema == "" {
		return nil, fmt.Errorf("exchange: cannot publish a model with an empty schema name")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("exchange: serialise model %q: %w", m.Schema, err)
	}
	sum, err := m.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("exchange: fingerprint model %q: %w", m.Schema, err)
	}
	return &published{body: buf.Bytes(), etag: `"` + sum + `"`, model: m}, nil
}

// Publish (re-)publishes a model in the default tenant. The model is
// serialised once; subsequent requests serve the frozen bytes.
func (s *Server) Publish(m *core.Model) error {
	_, err := s.PublishTenant(DefaultTenant, m)
	return err
}

// PublishTenant (re-)publishes a model under its schema name in the given
// tenant namespace and returns the registry version assigned to it.
// Publishing identical content is idempotent: the existing version (and
// generation) is kept.
func (s *Server) PublishTenant(tenant string, m *core.Model) (int, error) {
	if !validTenant(tenant) {
		return 0, fmt.Errorf("exchange: invalid tenant name %q", tenant)
	}
	p, err := freeze(m)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.space(tenant)
	if prev, ok := sp.models[m.Schema]; ok {
		if prev.etag == p.etag {
			return prev.version, nil
		}
		p.version = prev.version + 1
	} else {
		p.version = 1
	}
	sp.models[m.Schema] = p
	s.generation++
	if err := s.persistLocked(tenant, m.Schema, p); err != nil {
		return 0, err
	}
	return p.version, nil
}

// Schemas returns the default tenant's published schema names, sorted.
func (s *Server) Schemas() []string { return s.TenantSchemas(DefaultTenant) }

// TenantSchemas returns one tenant's published schema names, sorted.
func (s *Server) TenantSchemas(tenant string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sp, ok := s.tenants[tenant]
	if !ok {
		return nil
	}
	names := make([]string, 0, len(sp.models))
	for name := range sp.models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Generation returns the registry generation: the count of
// content-changing publishes across all tenants since startup (reloaded
// models count once each).
func (s *Server) Generation() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.generation
}

// lookup returns a tenant's published model.
func (s *Server) lookup(tenant, schema string) (*published, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sp, ok := s.tenants[tenant]
	if !ok {
		return nil, false
	}
	p, ok := sp.models[schema]
	return p, ok
}

// ServeHTTP routes the service API (see the package comment for the route
// table). Every path outside /v1 and, under WithPprof, /debug/pprof/
// answers 404 in the error envelope. "exchange.server.request" is a
// fault-injection hook point: injected delays stall the response
// (exercising client timeouts) and injected errors turn into 500s
// (exercising client retries).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := s.hit("exchange.server.request"); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reg := s.reg
	reg.Counter("server.requests").Inc()
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "/v1/models":
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			tenant, ok := s.resolveTenant(w, r)
			if !ok {
				return
			}
			s.serveListing(w, tenant)
		case http.MethodPost:
			s.handleUpload(w, r)
		default:
			s.methodNotAllowed(w, "GET, HEAD, POST")
		}
	case strings.HasPrefix(path, "/v1/models/"):
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			s.methodNotAllowed(w, "GET, HEAD")
			return
		}
		tenant, ok := s.resolveTenant(w, r)
		if !ok {
			return
		}
		s.serveModel(w, r, tenant, strings.TrimPrefix(path, "/v1/models/"))
	case path == "/v1/assess":
		if r.Method != http.MethodPost {
			s.methodNotAllowed(w, "POST")
			return
		}
		s.handleAssess(w, r)
	case path == "/v1/healthz" || path == "/v1/readyz":
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			s.methodNotAllowed(w, "GET, HEAD")
			return
		}
		s.serveHealth(w, path == "/v1/readyz")
	case path == "/v1/metrics" && reg != nil:
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			s.methodNotAllowed(w, "GET, HEAD")
			return
		}
		s.serveMetrics(w, reg)
	case strings.HasPrefix(r.URL.Path, "/debug/pprof/") && s.pprofEnabled:
		servePprof(w, r)
	default:
		reg.Counter("server.not_found").Inc()
		writeV1Error(w, http.StatusNotFound, CodeNotFound, "no route for %s", r.URL.Path)
	}
}

// resolveTenant reads the tenant header, answering 400 on a malformed one.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	tenant, ok := tenantOf(r)
	if !ok {
		writeV1Error(w, http.StatusBadRequest, CodeInvalidRequest,
			"malformed %s header (want 1-64 chars of [A-Za-z0-9._-])", TenantHeader)
		return "", false
	}
	return tenant, true
}

// methodNotAllowed answers 405 with an accurate Allow header.
func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	writeV1Error(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "allowed methods: %s", allow)
}

// serveMetrics answers GET /v1/metrics with an indented JSON snapshot
// of the registry — the same format obs.ReadSnapshotJSON and `collabscope
// stats -metrics` consume.
func (s *Server) serveMetrics(w http.ResponseWriter, reg *obs.Registry) {
	w.Header().Set("Content-Type", "application/json")
	snap := reg.Snapshot()
	_ = snap.WriteJSON(w)
}

// servePprof dispatches to the net/http/pprof handlers. The index handler
// itself routes /debug/pprof/<profile> for named profiles; the four
// special handlers need explicit dispatch.
func servePprof(w http.ResponseWriter, r *http.Request) {
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// serveListing answers GET /v1/models: the tenant's published models with
// their content-hash ETags and registry versions.
func (s *Server) serveListing(w http.ResponseWriter, tenant string) {
	listing := ListingV1{Version: core.WireVersion, Tenant: tenant, Models: []ListingEntryV1{}}
	s.mu.RLock()
	if sp, ok := s.tenants[tenant]; ok {
		for name, p := range sp.models {
			listing.Models = append(listing.Models, ListingEntryV1{
				Schema: name, ETag: p.etag, ModelVersion: p.version,
			})
		}
	}
	s.mu.RUnlock()
	sort.Slice(listing.Models, func(i, j int) bool { return listing.Models[i].Schema < listing.Models[j].Schema })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(listing)
}

func (s *Server) serveModel(w http.ResponseWriter, r *http.Request, tenant, name string) {
	reg := s.reg
	p, ok := s.lookup(tenant, name)
	if !ok {
		reg.Counter("server.not_found").Inc()
		writeV1Error(w, http.StatusNotFound, CodeNotFound, "no model published for schema %q", name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", p.etag)
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, p.etag) {
		reg.Counter("server.not_modified").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	reg.Counter("server.model_fetches").Inc()
	// "exchange.server.body" corrupts the served model bytes (on a copy —
	// the published bytes are frozen and shared). The client's end-to-end
	// checksum validation must catch the damage.
	body := p.body
	if in := s.injector(); in != nil {
		body = in.Corrupt("exchange.server.body", append([]byte(nil), body...))
	} else if faultinject.Armed() {
		body = faultinject.Corrupt("exchange.server.body", append([]byte(nil), body...))
	}
	_, _ = w.Write(body)
}

// etagMatches reports whether an If-None-Match header value matches the
// ETag (handles "*" and comma-separated candidate lists).
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}
