package encoder

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"

	"collabscope/internal/checkpoint"
	"collabscope/internal/exchange"
	"collabscope/internal/faultinject"
	"collabscope/internal/obs"
)

// DefaultMaxBatch is the coalescing window: the most texts one HTTP
// request carries. Larger batches amortise round trips; the cap keeps a
// single request's body (and the server's per-request work) bounded.
const DefaultMaxBatch = 256

// Remote is the HTTP encoder backend: it speaks the versioned encode wire
// format (SHA-256 trailers both ways) against a server's POST endpoint,
// coalesces requests across concurrent callers, and keeps a
// content-addressed signature cache so repeat texts — and with a
// checkpoint store, repeat runs — never leave the process. It has no
// transport of its own: every request goes through the model-exchange
// client's retry loop (an exchange.Client named "encoder"), so retry
// classification, backoff, Retry-After floors, per-attempt deadlines and
// error wording are the model exchange's.
//
// Determinism contract: the server must be a pure function of the text
// (the stub server wraps the deterministic hash encoder). Under that
// contract the backend is bit-identical to calling the server per text,
// regardless of batching, coalescing, caching, or retries — pinned by the
// backend conformance test.
type Remote struct {
	url      string
	dim      int
	maxBatch int

	// client carries every request; copts collects the options forwarded
	// to it until NewRemote builds it.
	client *exchange.Client
	copts  []exchange.ClientOption
	reg    *obs.Registry

	cache *sigCache
	// store is the cache's persistent tier, consumed in NewRemote.
	store *checkpoint.Store

	co coalescer
}

// RemoteOption configures a Remote backend.
type RemoteOption func(*Remote)

// WithDim sets the signature dimensionality the backend requests and
// validates (default embed.DefaultDim via New; 768).
func WithDim(d int) RemoteOption {
	return func(r *Remote) { r.dim = d }
}

// WithMaxBatch sets the coalescing window (texts per HTTP request;
// default DefaultMaxBatch).
func WithMaxBatch(n int) RemoteOption { // lintobs:allow the coalescing tests set a window of 4; production keeps DefaultMaxBatch
	return func(r *Remote) {
		if n > 0 {
			r.maxBatch = n
		}
	}
}

// WithHTTPClient replaces the transport (http.DefaultClient if unset).
func WithHTTPClient(hc *http.Client) RemoteOption {
	return func(r *Remote) { r.copts = append(r.copts, exchange.WithHTTPClient(hc)) }
}

// WithRetryPolicy replaces the default retry policy (the exchange client
// defaults: 3 attempts, 100 ms base delay, 2 s cap, 5 s attempt timeout).
func WithRetryPolicy(p exchange.RetryPolicy) RemoteOption {
	return func(r *Remote) { r.copts = append(r.copts, exchange.WithRetryPolicy(p)) }
}

// WithStore persists the signature cache through a checkpoint store, so a
// rerun over the same texts costs zero requests even across restarts.
func WithStore(s *checkpoint.Store) RemoteOption {
	return func(r *Remote) { r.store = s }
}

// WithMetrics attaches a metrics registry: request latency
// ("encoder.request"), request/retry/failure counters, and cache
// hit/miss/eviction counters. A nil registry keeps instrumentation
// disabled.
func WithMetrics(reg *obs.Registry) RemoteOption {
	return func(r *Remote) {
		r.reg = reg
		r.copts = append(r.copts, exchange.WithMetrics(reg))
	}
}

// WithFaultInjector arms a fault injector on this backend only (sites
// encoder.client.request and encoder.client.body).
func WithFaultInjector(in *faultinject.Injector) RemoteOption { // lintobs:allow the chaos seam: encoder tests inject faults into one backend through it
	return func(r *Remote) { r.copts = append(r.copts, exchange.WithFaultInjector(in)) }
}

// WithJitterRand replaces the backoff jitter's randomness source, pinning
// the retry schedule for tests.
func WithJitterRand(rng *rand.Rand) RemoteOption { // lintobs:allow the retry-schedule tests pin the backoff jitter through it
	return func(r *Remote) { r.copts = append(r.copts, exchange.WithJitterRand(rng)) }
}

// NewRemote returns a remote backend for the given encode endpoint URL.
func NewRemote(url string, opts ...RemoteOption) (*Remote, error) {
	if strings.TrimSpace(url) == "" {
		return nil, fmt.Errorf("encoder: remote backend needs a server URL")
	}
	r := &Remote{url: url, maxBatch: DefaultMaxBatch}
	for _, o := range opts {
		o(r)
	}
	if r.dim <= 0 {
		return nil, fmt.Errorf("encoder: remote backend needs a positive dimension")
	}
	r.client = exchange.NewNamedClient("encoder", r.copts...)
	r.cache = newSigCache(r.store, r.reg)
	r.co.flush = r.flush
	r.co.window = r.maxBatch
	return r, nil
}

// Dim implements embed.Encoder.
func (r *Remote) Dim() int { return r.dim }

// EncodeBatch implements embed.Encoder: cache lookups first, then the
// misses — deduplicated — through the coalescer, which groups concurrent
// misses into requests of at most the coalescing window. A cancelled ctx
// releases the caller promptly; an in-flight request finishes in the
// background and still feeds the cache.
func (r *Remote) EncodeBatch(ctx context.Context, texts []string) ([][]float64, error) {
	ctx, sp := obs.Start(ctx, "encoder.remote")
	sp.Annotate("texts", int64(len(texts)))
	defer sp.End()
	out := make([][]float64, len(texts))
	if len(texts) == 0 {
		return out, nil
	}
	// Cache pass: resolve hits, collect one pending item per distinct
	// missing text (batch-internal duplicates share it).
	byKey := make(map[string]*pending)
	itemOf := make([]*pending, len(texts))
	var misses []*pending
	for i, text := range texts {
		key := CacheKey("", r.dim, text)
		if p, ok := byKey[key]; ok {
			itemOf[i] = p
			continue
		}
		if v, ok := r.cache.get(key); ok {
			out[i] = v
			continue
		}
		p := &pending{key: key, text: text, done: make(chan struct{})}
		byKey[key] = p
		itemOf[i] = p
		misses = append(misses, p)
	}
	sp.Annotate("misses", int64(len(misses)))
	if len(misses) > 0 {
		r.co.submit(misses)
	}
	for i := range texts {
		p := itemOf[i]
		if p == nil {
			continue // cache hit
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-p.done:
		}
		if p.err != nil {
			return nil, fmt.Errorf("encoder: remote %s: %w", r.url, p.err)
		}
		out[i] = append([]float64(nil), p.vec...)
	}
	return out, nil
}

// pending is one not-yet-encoded text awaiting a coalesced request.
type pending struct {
	key, text string
	done      chan struct{}
	vec       []float64
	err       error
}

// coalescer groups pending texts from concurrent EncodeBatch calls into
// requests of at most `window` texts. The drain goroutine is started on
// demand by the first submitter and exits once the queue runs dry — no
// long-lived goroutine, nothing to leak or Close.
type coalescer struct {
	mu       sync.Mutex
	queue    []*pending
	draining bool
	window   int
	flush    func(batch []*pending)
}

func (c *coalescer) submit(items []*pending) {
	c.mu.Lock()
	c.queue = append(c.queue, items...)
	start := !c.draining
	if start {
		c.draining = true
	}
	c.mu.Unlock()
	if start {
		go c.drain()
	}
}

func (c *coalescer) drain() {
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.draining = false
			c.mu.Unlock()
			return
		}
		n := len(c.queue)
		if n > c.window {
			n = c.window
		}
		batch := c.queue[:n:n]
		c.queue = c.queue[n:]
		c.mu.Unlock()
		c.flush(batch)
	}
}

// flush sends one coalesced request and resolves its pending items. It
// runs on the drain goroutine with no caller context: callers may have
// gone away (cancellation), yet the result still warms the cache for the
// next run. The retry policy's per-attempt timeout bounds each attempt,
// so an abandoned flush terminates promptly.
func (r *Remote) flush(batch []*pending) {
	texts := make([]string, len(batch))
	for i, p := range batch {
		texts[i] = p.text
	}
	resp, err := r.post(texts)
	for i, p := range batch {
		if err != nil {
			p.err = err
		} else {
			p.vec = resp.Vectors[i]
			r.cache.put(p.key, p.vec)
		}
		close(p.done)
	}
}

// post sends one batch through the exchange client's retry loop and
// validates the answer outside it, as the model exchange does: a
// malformed or checksum-invalid response is not retried and counts as a
// request failure. encoder.requests and encoder.texts count batches, not
// attempts; the client counts each extra attempt as encoder.retries.
func (r *Remote) post(texts []string) (*EncodeResponse, error) {
	payload, err := MarshalRequest(EncodeRequest{Dim: r.dim, Texts: texts})
	if err != nil {
		return nil, err
	}
	r.reg.Counter("encoder.requests").Inc()
	r.reg.Counter("encoder.texts").Add(int64(len(texts)))
	body, err := r.client.Post(context.Background(), r.url, payload, maxResponseBody) // lintobs:allow a coalesced batch serves several callers, so no one caller's context may cancel it
	if err != nil {
		return nil, err
	}
	resp, err := UnmarshalResponse(body, r.dim, len(texts))
	if err != nil {
		r.reg.Counter("encoder.request_failures").Inc()
		return nil, err
	}
	return resp, nil
}
