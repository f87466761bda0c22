package collabscope

import (
	"context"
	"net/http"
	"sort"

	"collabscope/internal/core"
	"collabscope/internal/exchange"
	"collabscope/internal/obs"
)

// Remote model exchange: the distributed deployment of the paper's
// algorithms, where every party trains locally and only models — never
// schema elements — cross the network. A party publishes its model through
// NewScopingServer (or `collabscope serve`) and assesses against its peers
// with AssessRemote / CollaborativeScopeRemote, which tolerate missing
// peers by design: collaborative scoping just grows more conservative with
// fewer foreign models, and the result names every peer that was absent.

type (
	// RetryPolicy tunes the exchange client's fault tolerance: attempts
	// per request, capped exponential backoff with jitter, and the
	// per-request timeout. The zero value means the defaults (3 attempts,
	// 100 ms base delay, 2 s cap, 5 s timeout).
	RetryPolicy = exchange.RetryPolicy
	// PeerError names one peer that could not contribute to an exchange
	// round and why.
	PeerError = exchange.PeerError
	// BreakerPolicy tunes the per-peer circuit breaker enabled by
	// WithCircuitBreaker: consecutive-failure and error-rate triggers plus
	// the cooldown before the half-open probe. The zero value means the
	// defaults (5 consecutive failures, 16-request window, 2 s cooldown).
	BreakerPolicy = exchange.BreakerPolicy
	// HedgePolicy tunes hedged GETs enabled by WithHedgedGets: the latency
	// quantile of the primary replica after which a backup request races
	// it, and the delay floor. The zero fields mean the defaults (p95,
	// 50 ms).
	HedgePolicy = exchange.HedgePolicy
)

// ErrCircuitOpen is matched by errors.Is when a remote call was
// short-circuited because every candidate peer's breaker is open.
var ErrCircuitOpen = exchange.ErrCircuitOpen

// DefaultRetryPolicy returns the exchange client defaults.
func DefaultRetryPolicy() RetryPolicy { return exchange.DefaultRetryPolicy() }

// WithHTTPClient sets the HTTP transport of the remote-exchange methods
// (http.DefaultClient if unset). Per-request timeouts still come from the
// retry policy.
func WithHTTPClient(hc *http.Client) Option {
	return func(p *Pipeline) { p.httpClient = hc }
}

// WithRetryPolicy sets the retry policy of the remote-exchange methods.
func WithRetryPolicy(rp RetryPolicy) Option {
	return func(p *Pipeline) { p.retry = rp; p.hasRetry = true }
}

// WithCircuitBreaker arms the per-peer circuit breaker on the pipeline's
// exchange client: a peer that keeps failing is short-circuited with
// ErrCircuitOpen until its cooldown elapses, then probed half-open. Off by
// default.
func WithCircuitBreaker(bp BreakerPolicy) Option {
	return func(p *Pipeline) { p.exchOpts = append(p.exchOpts, exchange.WithBreaker(bp)) }
}

// WithPeerReplicas declares replicas for a logical peer base URL: remote
// calls addressed under logical fail over across the replicas in order,
// skipping hosts whose breaker is open. Repeat the option to declare
// further groups.
func WithPeerReplicas(logical string, replicas ...string) Option {
	return func(p *Pipeline) { p.exchOpts = append(p.exchOpts, exchange.WithReplicas(logical, replicas...)) }
}

// WithHedgedGets enables hedged GETs across peer replica groups: when the
// primary replica has not answered within its observed latency quantile, a
// backup request races it on the next replica and the first success wins.
func WithHedgedGets(hp HedgePolicy) Option {
	return func(p *Pipeline) { p.exchOpts = append(p.exchOpts, exchange.WithHedge(hp)) }
}

// exchangeClient builds the pipeline's exchange client from its options —
// once. The client persists across exchange rounds so its ETag cache can
// turn repeat fetches of unchanged models into 304 revalidations, and so
// its metrics (per-peer latency, retries, cache hits) accumulate in the
// pipeline's registry.
func (p *Pipeline) exchangeClient() *exchange.Client {
	p.exchOnce.Do(func() {
		var opts []exchange.ClientOption
		if p.httpClient != nil {
			opts = append(opts, exchange.WithHTTPClient(p.httpClient))
		}
		if p.hasRetry {
			opts = append(opts, exchange.WithRetryPolicy(p.retry))
		}
		if p.reg != nil {
			opts = append(opts, exchange.WithMetrics(p.reg))
		}
		opts = append(opts, p.exchOpts...)
		p.exch = exchange.NewClient(opts...)
	})
	return p.exch
}

// ModelServer is the scoping service (an http.Handler): a multi-tenant
// model registry fed by POST /v1/models uploads, the POST /v1/assess
// linkability hot path with admission control and request coalescing,
// model serving at /v1/models/<schema>, and an optional GET /v1/metrics
// JSON snapshot.
type ModelServer = exchange.Server

type (
	// ServerOption configures NewScopingServer, in the same functional
	// style as the Pipeline options.
	ServerOption = exchange.ServerOption
	// AdmissionConfig bounds the /v1/assess hot path: queue depth,
	// per-tenant quota, and the Retry-After advice on shed requests.
	AdmissionConfig = exchange.AdmissionConfig
	// Verdict is one element's linkability outcome — the shared shape of
	// the /v1/assess wire format and the CLI's assessment rendering.
	Verdict = exchange.Verdict
	// AssessRequest is the POST /v1/assess wire request.
	AssessRequest = exchange.AssessRequest
	// AssessResponse is the POST /v1/assess wire response.
	AssessResponse = exchange.AssessResponse
)

// WithServerModels publishes models (into the default tenant) at server
// construction time.
func WithServerModels(models ...*Model) ServerOption { return exchange.WithModels(models...) }

// WithServerMetrics attaches a metrics registry to the server: request,
// shed and latency metrics, served back at GET /v1/metrics.
func WithServerMetrics(m *Metrics) ServerOption { return exchange.WithServerMetrics(m) }

// WithServerPprof exposes net/http/pprof under /debug/pprof/.
func WithServerPprof() ServerOption { return exchange.WithPprof() }

// WithServerRegistry persists the server's model registry in the given
// directory (via the checkpoint store), so uploads survive restarts with
// byte-identical model bodies and verdicts.
func WithServerRegistry(dir string) ServerOption { return exchange.WithRegistryDir(dir) }

// WithServerAdmission bounds the assess hot path; the zero config means
// the defaults (queue depth 64, tenant quota = queue depth, Retry-After
// 1 s).
func WithServerAdmission(cfg AdmissionConfig) ServerOption { return exchange.WithAdmission(cfg) }

// WithServerWorkers bounds the worker-pool fan-out of one assess request
// (0 = GOMAXPROCS): the row walk that decodes its signatures and the
// reconstruction passes that score them.
func WithServerWorkers(n int) ServerOption { return exchange.WithServerWorkers(n) }

// NewScopingServer returns the scoping service configured by the given
// options. Serve it with net/http to run a long-lived multi-tenant hub.
func NewScopingServer(opts ...ServerOption) (*ModelServer, error) {
	return exchange.NewServer(opts...)
}

// FetchModels fetches every peer's published models, degrading gracefully:
// it returns the models it could get (in peer order) and a report naming
// each peer that failed. Peers are base URLs of model hubs, e.g.
// "http://host:8080".
func (p *Pipeline) FetchModels(ctx context.Context, peers []string) ([]*Model, []PeerError) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.fetch")
	sp.Annotate("peers", int64(len(peers)))
	defer sp.End()
	return p.exchangeClient().FetchAll(ctx, peers)
}

// Assessment is the shared outcome shape of every linkability assessment —
// local (Pipeline.AssessContext wrapped for rendering), peer-fetched
// (AssessRemote, CollaborativeScopeRemote) or service-side (AssessServer).
// The CLI renders all of them through List, so local and remote assessment
// print identically.
type Assessment struct {
	// Verdicts maps every local element to its linkability verdict.
	Verdicts map[ElementID]bool
	// Used names the schemas of the foreign models that were applied.
	Used []string
	// Failed names the peers (or individual peer models) that could not
	// contribute. The verdicts above exclude their models.
	Failed []PeerError
}

// List renders the verdicts as the shared Verdict type of the /v1/assess
// wire format, sorted by element name for deterministic output.
func (a *Assessment) List() []Verdict {
	out := make([]Verdict, 0, len(a.Verdicts))
	for id, linkable := range a.Verdicts {
		out = append(out, Verdict{Element: id.String(), Linkable: linkable})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Element < out[j].Element })
	return out
}

// RemoteAssessment is the outcome of assessing a local schema against the
// models fetched from remote peers.
type RemoteAssessment struct {
	Assessment
}

// AssessRemote fetches the peers' models and runs Algorithm 2 for the local
// schema against whichever peers responded. Missing peers do not abort the
// round: assessment proceeds with fewer foreign models — conservative, per
// the paper's design — and Failed reports who was absent. Models published
// under the local schema's own name are skipped, as Algorithm 2 requires.
func (p *Pipeline) AssessRemote(ctx context.Context, s *Schema, peers []string) (*RemoteAssessment, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.assess_remote")
	sp.Annotate("peers", int64(len(peers)))
	defer sp.End()
	fetched, failed := p.exchangeClient().FetchAll(ctx, peers)
	set, err := p.EncodeContext(ctx, s)
	if err != nil {
		return nil, err
	}
	foreign := foreignModels(fetched, s.Name)
	verdicts, err := core.AssessContext(ctx, p.workers, set, foreign, core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	res := &RemoteAssessment{Assessment: Assessment{Verdicts: verdicts, Failed: failed}}
	for _, m := range foreign {
		res.Used = append(res.Used, m.Schema)
	}
	return res, nil
}

// RemoteScopeResult is the outcome of a remote collaborative-scoping round
// for one party: the streamlined-schema ScopeResult plus the shared
// Assessment shape (verdicts, used models, failed peers).
type RemoteScopeResult struct {
	ScopeResult
	Assessment
	// Local is the local model trained at the round's explained variance —
	// the model this party publishes to its peers.
	Local *Model
}

// CollaborativeScopeRemote runs one party's side of the paper's distributed
// workflow end to end: train the local model at explained variance
// v ∈ (0, 1] (Algorithm 1), fetch the peers' models, and assess the local
// schema against whoever responded (Algorithm 2). The result carries the
// local verdicts and streamlined schema, the local model (for publishing),
// and the per-peer failure report. With every peer absent the verdicts are
// all-unlinkable — the method's conservative floor — so callers that need
// a quorum should check Failed.
func (p *Pipeline) CollaborativeScopeRemote(ctx context.Context, s *Schema, v float64, peers []string) (*RemoteScopeResult, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.scope_remote")
	sp.Annotate("peers", int64(len(peers)))
	defer sp.End()
	set, err := p.EncodeContext(ctx, s)
	if err != nil {
		return nil, err
	}
	local, err := core.Train(set, v)
	if err != nil {
		return nil, err
	}
	fetched, failed := p.exchangeClient().FetchAll(ctx, peers)
	foreign := foreignModels(fetched, s.Name)
	verdicts, err := core.AssessContext(ctx, p.workers, set, foreign, core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	res := &RemoteScopeResult{
		ScopeResult: *newScopeResult([]*Schema{s}, verdicts),
		Assessment:  Assessment{Verdicts: verdicts, Failed: failed},
		Local:       local,
	}
	for _, m := range foreign {
		res.Used = append(res.Used, m.Schema)
	}
	return res, nil
}

// UploadModel publishes a trained model into a scoping service's registry
// via POST /v1/models (tenant "" means the default namespace). The hub
// re-validates the wire checksum and the returned ETag is cross-checked
// against the local fingerprint.
func (p *Pipeline) UploadModel(ctx context.Context, base, tenant string, m *Model) error {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.upload")
	defer sp.End()
	_, err := p.exchangeClient().Upload(ctx, base, tenant, m)
	return err
}

// AssessServer assesses a local schema against a scoping service: the
// schema's signatures are encoded locally and posted to the hub's
// POST /v1/assess hot path (tenant "" means the default namespace), which
// runs Algorithm 2 against every foreign model in its registry. Only
// signatures travel — the schema's structure stays local. Shed responses
// (429) are retried under the pipeline's retry policy, honouring the
// hub's Retry-After advice.
func (p *Pipeline) AssessServer(ctx context.Context, s *Schema, base, tenant string) (*RemoteAssessment, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.assess_server")
	defer sp.End()
	set, err := p.EncodeContext(ctx, s)
	if err != nil {
		return nil, err
	}
	req := &AssessRequest{Schema: s.Name, IDs: make([]string, len(set.IDs)), Signatures: make([][]float64, len(set.IDs))}
	for i, id := range set.IDs {
		req.IDs[i] = id.String()
		req.Signatures[i] = set.Matrix.RowView(i)
	}
	resp, err := p.exchangeClient().Assess(ctx, base, tenant, req)
	if err != nil {
		return nil, err
	}
	res := &RemoteAssessment{Assessment: Assessment{Verdicts: make(map[ElementID]bool, len(set.IDs))}}
	// The client already checked the row/verdict count; map verdicts back
	// to local element IDs by request order.
	for i, id := range set.IDs {
		res.Verdicts[id] = resp.Verdicts[i].Linkable
	}
	for _, ref := range resp.Used {
		res.Used = append(res.Used, ref.Schema)
	}
	return res, nil
}

// foreignModels drops models stamped with the local schema's name: a hub
// may republish every party's model, and Algorithm 2 must not let a schema
// assess against itself (self-reconstruction trivially succeeds). Every
// Pipeline assessment entry point filters its models through it.
func foreignModels(models []*Model, local string) []*Model {
	foreign := make([]*Model, 0, len(models))
	for _, m := range models {
		if m.Schema != local {
			foreign = append(foreign, m)
		}
	}
	return foreign
}
