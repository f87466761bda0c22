package exchange

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/faultinject"
	"collabscope/internal/lru"
	"collabscope/internal/obs"
	"collabscope/internal/parallel"
	"collabscope/internal/seal"
)

// maxResponseBody bounds how much a single response may occupy before
// parsing — generous headroom over the serialize-layer wire caps, but a
// hostile peer cannot stream unbounded garbage into memory.
const maxResponseBody = 512 << 20

// RetryPolicy tunes the client's fault tolerance. The zero value means
// "defaults" (3 attempts, 100 ms base delay, 2 s cap, 5 s per-attempt
// timeout); any field left zero individually falls back to its default.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request, including the
	// first.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay. The actual sleep is jittered
	// uniformly over [delay/2, delay] to decorrelate retry storms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff.
	MaxDelay time.Duration
	// Timeout bounds each individual attempt (connection + response).
	Timeout time.Duration
}

// DefaultRetryPolicy returns the client defaults.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second, Timeout: 5 * time.Second}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	if p.Timeout <= 0 {
		p.Timeout = def.Timeout
	}
	return p
}

// PeerError reports why one peer (or one of its models) could not
// contribute to an exchange round.
type PeerError struct {
	// Peer is the peer's base URL.
	Peer string
	// Err is the underlying failure, already wrapped with retry context.
	Err error
}

// Error implements the error interface.
func (e PeerError) Error() string { return e.Peer + ": " + e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e PeerError) Unwrap() error { return e.Err }

// Client fetches models from exchange hubs. It keeps a per-URL ETag cache:
// a refetch of an unchanged model revalidates with If-None-Match, and the
// hub's 304 Not Modified answer serves the cached model without a body
// transfer. Cache hits are first-class in the metrics ("exchange.etag_hits"
// and per-peer variants) and are never counted as fresh fetches or fed into
// the retry bookkeeping.
type Client struct {
	// ns prefixes every metric name and fault site: "exchange" from
	// NewClient, "encoder" for the remote encoder backend.
	ns     string
	hc     *http.Client
	policy RetryPolicy
	// randN draws the backoff jitter: a uniform duration in [0, n). It
	// defaults to the shared math/rand/v2 generator and is injectable so
	// tests can pin the exact retry schedule.
	randN func(n time.Duration) time.Duration
	// inject, when set, scopes fault injection to this client instance
	// (taking precedence over any globally armed injector).
	inject *faultinject.Injector
	// reg, when set, receives the client's metrics. A nil registry is the
	// disabled no-op path.
	reg *obs.Registry

	// epoch anchors the client's monotonic clock; now reads it and is
	// injectable so breaker-cooldown tests can drive a fake clock.
	epoch obs.Stopwatch
	now   func() time.Duration

	// Replica failover and hedged GETs (replica.go).
	groups       []replicaGroup
	hedge        HedgePolicy
	hedgeEnabled bool

	// Per-peer circuit breaking (breaker.go).
	breakPolicy  BreakerPolicy
	breakEnabled bool
	breakMu      sync.Mutex
	breakers     map[string]*breaker

	// cache maps model URL → the last validated model and its ETag. Keys
	// are the caller's (logical) URLs, so a replica group shares one cache
	// entry — content-hash ETags make replicas interchangeable. The cache
	// is size-capped (DefaultModelCacheSize) with least-recently-used
	// eviction, so a long-lived client scanning many peers holds a bounded
	// number of models; evictions are counted as "exchange.etag_evictions".
	cacheMu sync.Mutex
	cache   *lru.Cache[string, cacheEntry]
}

// DefaultModelCacheSize bounds the per-URL ETag/model cache: enough for a
// federation-scale peer set, small enough that cached models cannot grow
// without bound in a long-lived client.
const DefaultModelCacheSize = 256

// cacheEntry is one validated model frozen under its content-hash ETag.
type cacheEntry struct {
	etag  string
	model *core.Model
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient replaces the transport (http.DefaultClient if unset).
// Per-attempt timeouts still come from the retry policy.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithRetryPolicy replaces the default retry policy.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.policy = p.withDefaults() }
}

// WithJitterRand replaces the backoff jitter's randomness source with a
// dedicated generator, making the full retry schedule a deterministic
// function of the generator's seed.
func WithJitterRand(r *rand.Rand) ClientOption {
	return func(c *Client) {
		if r != nil {
			c.randN = func(n time.Duration) time.Duration {
				return time.Duration(r.Int64N(int64(n)))
			}
		}
	}
}

// WithFaultInjector arms a fault injector on this client only (sites
// exchange.client.request and exchange.client.body), so chaos tests can
// target one client without touching process-global state.
func WithFaultInjector(in *faultinject.Injector) ClientOption {
	return func(c *Client) { c.inject = in }
}

// WithMetrics attaches a metrics registry. The client then records request
// latency ("exchange.request" and "exchange.peer.<host>.request"), retry
// counts, ETag cache hits, fresh fetches, and failure counts. A nil
// registry keeps instrumentation disabled.
func WithMetrics(reg *obs.Registry) ClientOption {
	return func(c *Client) { c.reg = reg }
}

// NewClient returns a fetching client with the default transport and retry
// policy.
func NewClient(opts ...ClientOption) *Client { return NewNamedClient("exchange", opts...) }

// NewNamedClient is NewClient under another namespace: ns takes the place
// of "exchange" in every metric name the client records (ns.retries,
// ns.request, ns.peer.<host>.*) and in its fault sites (ns.client.request,
// ns.client.body). The remote encoder backend sends through the retry
// loop this way, as "encoder".
func NewNamedClient(ns string, opts ...ClientOption) *Client {
	c := &Client{
		ns:     ns,
		hc:     http.DefaultClient,
		policy: DefaultRetryPolicy(),
		randN:  func(n time.Duration) time.Duration { return rand.N(n) },
		epoch:  obs.NewStopwatch(),
		cache:  lru.New[string, cacheEntry](DefaultModelCacheSize),
	}
	c.now = c.epoch.Elapsed
	for _, o := range opts {
		o(c)
	}
	return c
}

// hit and corrupt route fault-injection hooks through the instance-scoped
// injector when one is set, else through the globally armed one.
func (c *Client) hit(site string) error {
	if c.inject != nil {
		return c.inject.Hit(site)
	}
	return faultinject.Hit(site)
}

func (c *Client) corrupt(site string, b []byte) []byte {
	if c.inject != nil {
		return c.inject.Corrupt(site, b)
	}
	return faultinject.Corrupt(site, b)
}

// statusError is a non-2xx response; retryable for 5xx and 429.
type statusError struct {
	code int
	body string
	// retryAfter is the server's Retry-After advice (zero when absent).
	// The retry loop honours it as a floor under its own backoff, so a
	// load-shedding hub (429) is not hammered faster than it asked for.
	retryAfter time.Duration
}

func (e *statusError) Error() string {
	msg := strings.TrimSpace(e.body)
	if msg == "" {
		return fmt.Sprintf("http status %d", e.code)
	}
	return fmt.Sprintf("http status %d: %.120s", e.code, msg)
}

// retryable decides whether an attempt error is worth another try.
// callerErr is the caller's own context error at the time the attempt
// finished: when non-nil the caller is done and nothing retries. With a
// live caller, a DeadlineExceeded can only come from the attempt's child
// timeout — a slow peer, the textbook retry case — so timeouts fall
// through to true here rather than being conflated with a dead caller.
func retryable(err, callerErr error) bool {
	if callerErr != nil {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return !errors.Is(err, context.Canceled)
}

// peerPrefix derives the per-peer metric-name prefix "<ns>.peer.<host>."
// from a URL's host (see hostOf). An empty host — an unparseable URL —
// yields "" (global-only metrics), never an error: metric naming must not
// fail a fetch.
func (c *Client) peerPrefix(host string) string {
	if host == "" {
		return ""
	}
	return c.ns + ".peer." + host + "."
}

// count bumps the global counter name and, when peer != "", its per-peer
// twin. All calls are no-ops on an uninstrumented client.
func (c *Client) count(peer, name string) {
	c.reg.Counter(c.ns + "." + name).Inc()
	if peer != "" {
		c.reg.Counter(peer + name).Inc()
	}
}

// request describes one exchange round trip for the retry loop.
type request struct {
	method string
	url    string
	// inm, when non-empty, is sent as If-None-Match (GET revalidation).
	inm string
	// tenant, when non-empty, is sent as the tenant header (/v1 routes).
	tenant string
	// payload, when non-nil, is the request body (POST).
	payload []byte
	// limit caps the response body in bytes (maxResponseBody when zero).
	limit int
}

// get fetches a URL with per-attempt timeouts and capped exponential
// backoff with jitter, returning the body and the response ETag. A non-empty
// inm is sent as If-None-Match; a 304 answer then returns notModified=true
// with no body — a success, not a retryable failure, and never part of the
// retry bookkeeping.
func (c *Client) get(ctx context.Context, rawURL, inm string) (body []byte, etag string, notModified bool, err error) {
	return c.do(ctx, request{method: http.MethodGet, url: rawURL, inm: inm})
}

// Post sends payload as a JSON POST to rawURL through the retry loop and
// returns the response body, read up to limit bytes (0 means the model
// cap). The body comes back unvalidated: callers check it outside the
// loop, so a malformed answer is never retried.
func (c *Client) Post(ctx context.Context, rawURL string, payload []byte, limit int) ([]byte, error) {
	body, _, _, err := c.do(ctx, request{method: http.MethodPost, url: rawURL, payload: payload, limit: limit})
	return body, err
}

// do runs one request through the retry/failover loop. The URL resolves to
// its replica candidates (just the URL itself without a replica group);
// attempt k goes to candidate k mod n, hosts with open breakers are
// skipped, and failover to a not-yet-tried replica is immediate — backoff
// only paces the schedule once the rotation has wrapped. Each attempt's
// timeout is its fair share of the caller's remaining deadline budget
// (capped by the policy timeout), and idempotent GETs may hedge a second
// replica after the primary's observed latency quantile.
func (c *Client) do(ctx context.Context, rq request) (body []byte, etag string, notModified bool, err error) {
	peer := ""
	if c.reg != nil {
		peer = c.peerPrefix(hostOf(rq.url))
	}
	candidates := c.resolve(rq.url)
	total := c.policy.MaxAttempts
	if len(candidates) > total {
		total = len(candidates)
	}
	var lastErr error
	lastHost := ""
	for attempt := 0; attempt < total; attempt++ {
		if attempt > 0 {
			c.count(peer, "retries")
			if attempt >= len(candidates) {
				if serr := sleepContext(ctx, c.backoff(attempt, lastErr)); serr != nil {
					return nil, "", false, fmt.Errorf("giving up after %d attempts: %w (last error: %v)", attempt, serr, lastErr)
				}
			}
		}
		target, host, br, ok := c.pick(candidates, attempt, c.now())
		if !ok {
			c.count("", "breaker.short_circuits")
			c.count(peer, "request_failures")
			return nil, "", false, &CircuitOpenError{Host: host}
		}
		if attempt > 0 && lastHost != "" && host != lastHost {
			c.count(peer, "failovers")
		}
		lastHost = host
		timeout, terr := c.attemptTimeout(ctx, attempt, total)
		if terr != nil {
			c.count(peer, "request_failures")
			if lastErr != nil {
				return nil, "", false, fmt.Errorf("deadline budget exhausted after %d attempts: %w (last error: %v)", attempt, terr, lastErr)
			}
			return nil, "", false, terr
		}
		var res attemptResult
		sw := c.reg.Clock()
		if backup, hok := c.hedgeBackup(rq, candidates, attempt, host); hok {
			res = c.onceHedged(ctx, rq, target, backup, timeout)
		} else {
			b, et, nm, oerr := c.once(ctx, rq, target, timeout)
			res = attemptResult{body: b, etag: et, notModified: nm, err: oerr, url: target}
		}
		c.reg.Histogram(c.ns + ".request").ObserveSince(sw)
		if peer != "" {
			c.reg.Histogram(peer + "request").ObserveSince(sw)
		}
		if tp := c.peerPrefix(hostOf(res.url)); tp != "" && tp != peer {
			c.reg.Histogram(tp + "request").ObserveSince(sw)
		}
		callerErr := ctx.Err()
		// Fold the outcome into the answering host's breaker. When a hedge
		// won on the backup, the primary's half-open probe (if any) is
		// abandoned rather than judged — it never reported.
		if res.url != target && br != nil {
			br.abandon()
		}
		if rb := c.breakerFor(hostOf(res.url)); rb != nil {
			if callerErr == nil {
				success := res.err == nil || !hostFailure(res.err)
				c.noteTransition(hostOf(res.url), rb, rb.record(success, c.now()))
			} else {
				rb.abandon()
			}
		}
		if res.err == nil {
			return res.body, res.etag, res.notModified, nil
		}
		lastErr = res.err
		if !retryable(lastErr, callerErr) {
			c.count(peer, "request_failures")
			return nil, "", false, lastErr
		}
	}
	c.count(peer, "request_failures")
	return nil, "", false, fmt.Errorf("after %d attempts: %w", total, lastErr)
}

// hostFailure reports whether an attempt error indicts the host: 5xx and
// 429 do, any other HTTP answer proves the host alive, and everything else
// (refused, reset, attempt timeout) is a host-level failure.
func hostFailure(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests
	}
	return true
}

// attemptTimeout derives the per-attempt timeout from the caller's
// remaining deadline budget: each attempt gets at most its fair share
// (remaining / attempts left), capped by the policy's per-attempt timeout
// and floored at 1 ms so a nearly-spent budget still sends one cheap
// attempt. A context without a deadline keeps the fixed policy timeout; an
// exhausted budget errors so the loop stops without a doomed send.
func (c *Client) attemptTimeout(ctx context.Context, attempt, total int) (time.Duration, error) {
	timeout := c.policy.Timeout
	rem, ok := obs.Remaining(ctx)
	if !ok {
		return timeout, nil
	}
	if rem <= 0 {
		return 0, context.DeadlineExceeded
	}
	if share := rem / time.Duration(total-attempt); share < timeout {
		timeout = share
	}
	if timeout < time.Millisecond {
		timeout = time.Millisecond
	}
	return timeout, nil
}

// hedgeBackup selects the hedge target for a GET attempt: the next replica
// in rotation on a different host whose breaker is fully closed (a
// half-open host's single probe slot must not be spent on a hedge that
// may never launch). ok=false disables hedging for this attempt.
func (c *Client) hedgeBackup(rq request, candidates []string, attempt int, primaryHost string) (string, bool) {
	if !c.hedgeEnabled || rq.method != http.MethodGet || len(candidates) < 2 {
		return "", false
	}
	n := len(candidates)
	for off := 1; off < n; off++ {
		target := candidates[(attempt+off)%n]
		host := hostOf(target)
		if host == primaryHost {
			continue
		}
		if br := c.breakerFor(host); br != nil && br.current() != BreakerClosed {
			continue
		}
		return target, true
	}
	return "", false
}

// once performs a single attempt against target under the given timeout,
// advertising the attempt's budget to the server via the deadline header
// so it can shed work it cannot finish in time.
// "<ns>.client.request" (error/delay before the attempt) and
// "<ns>.client.body" (response corruption, caught downstream by the wire
// format's hash trailer) are fault-injection hook points.
func (c *Client) once(ctx context.Context, rq request, target string, timeout time.Duration) ([]byte, string, bool, error) {
	if err := c.hit(c.ns + ".client.request"); err != nil {
		return nil, "", false, err
	}
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if rq.payload != nil {
		rd = bytes.NewReader(rq.payload)
	}
	req, err := http.NewRequestWithContext(actx, rq.method, target, rd)
	if err != nil {
		return nil, "", false, err
	}
	req.Header.Set("Accept", "application/json")
	req.Header.Set(DeadlineHeader, strconv.FormatInt(timeout.Milliseconds(), 10))
	if rq.payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rq.inm != "" {
		req.Header.Set("If-None-Match", rq.inm)
	}
	if rq.tenant != "" {
		req.Header.Set(TenantHeader, rq.tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	if rq.inm != "" && resp.StatusCode == http.StatusNotModified {
		return nil, "", true, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, "", false, &statusError{
			code:       resp.StatusCode,
			body:       string(snippet),
			retryAfter: ParseRetryAfter(resp.Header.Get("Retry-After")),
		}
	}
	limit := rq.limit
	if limit <= 0 {
		limit = maxResponseBody
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
	if err != nil {
		return nil, "", false, err
	}
	if len(body) > limit {
		return nil, "", false, fmt.Errorf("response exceeds %d bytes", limit)
	}
	return c.corrupt(c.ns+".client.body", body), resp.Header.Get("ETag"), false, nil
}

// ParseRetryAfter reads Retry-After in either of its RFC 9110 forms:
// delay-seconds (the form the exchange server emits) or an HTTP-date,
// converted to a non-negative delay from now. Unparseable, negative or past
// values yield 0 (no advice). The retry loop floors its backoff with it,
// for the model exchange and the remote encoder backend alike.
func ParseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	if d := obs.Until(t); d > 0 {
		return d
	}
	return 0
}

// backoff returns the jittered delay before retry number attempt (≥ 1):
// BaseDelay·2^(attempt−1) capped at MaxDelay, then jittered uniformly over
// [delay/2, delay]. A Retry-After advised by the server on the previous
// attempt raises the floor (itself capped at MaxDelay, so a hostile hub
// cannot stall the client arbitrarily).
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	delay := c.policy.BaseDelay
	for i := 1; i < attempt && delay < c.policy.MaxDelay; i++ {
		delay *= 2
	}
	if delay > c.policy.MaxDelay {
		delay = c.policy.MaxDelay
	}
	half := delay / 2
	d := half + c.randN(delay-half+1)
	var se *statusError
	if errors.As(lastErr, &se) && se.retryAfter > 0 {
		floor := se.retryAfter
		if floor > c.policy.MaxDelay {
			floor = c.policy.MaxDelay
		}
		if d < floor {
			d = floor
		}
	}
	return d
}

func sleepContext(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// FetchModel fetches and validates one model from an explicit model URL
// (…/v1/models/<schema>). The payload's embedded hash trailer is verified by
// the serialize layer; if the server also sent a content-hash ETag, it is
// cross-checked against the model's fingerprint, catching transport
// corruption end to end.
//
// A model already fetched from the same URL is revalidated with
// If-None-Match: the hub's 304 answer serves the cached model without a
// body transfer, counted as "exchange.etag_hits" — distinct from
// "exchange.fetches" — and invisible to the retry bookkeeping.
func (c *Client) FetchModel(ctx context.Context, rawURL string) (*core.Model, error) {
	cached, haveCached := c.cacheGet(rawURL)
	inm := ""
	if haveCached {
		inm = cached.etag
	}
	peer := ""
	if c.reg != nil {
		peer = c.peerPrefix(hostOf(rawURL))
	}
	body, etag, notModified, err := c.get(ctx, rawURL, inm)
	if err != nil {
		return nil, err
	}
	if notModified {
		c.count(peer, "etag_hits")
		return cached.model, nil
	}
	m, err := core.ReadModelJSON(bytes.NewReader(body))
	if err != nil {
		c.count(peer, "model_invalid")
		if errors.Is(err, seal.ErrMismatch) {
			c.count(peer, "checksum_failures")
		}
		return nil, err
	}
	if etag != "" {
		if fp, ferr := m.Fingerprint(); ferr == nil && strings.Trim(strings.TrimPrefix(etag, "W/"), `"`) != fp {
			c.count(peer, "checksum_failures")
			return nil, fmt.Errorf("model ETag %s does not match content fingerprint %.12s…", etag, fp)
		}
	}
	c.count(peer, "fetches")
	if etag != "" {
		c.cachePut(rawURL, cacheEntry{etag: etag, model: m})
	}
	return m, nil
}

// cacheGet returns the cached entry for a model URL, if any, marking it
// most recently used.
func (c *Client) cacheGet(rawURL string) (cacheEntry, bool) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	return c.cache.Get(rawURL)
}

// cachePut stores a validated model under its ETag, evicting the least
// recently used entry once the cache is full.
func (c *Client) cachePut(rawURL string, e cacheEntry) {
	c.cacheMu.Lock()
	_, evicted := c.cache.Put(rawURL, e)
	c.cacheMu.Unlock()
	if evicted {
		c.count("", "etag_evictions")
	}
}

// FetchPeer lists one peer's published models and fetches them all. It
// keeps whatever it could get: a partial harvest is returned together with
// an error naming the models that failed (nil error means a full harvest).
func (c *Client) FetchPeer(ctx context.Context, base string) ([]*core.Model, error) {
	base = strings.TrimSuffix(base, "/")
	body, _, _, err := c.get(ctx, base+"/v1/models", "")
	if err != nil {
		return nil, fmt.Errorf("list models: %w", err)
	}
	var listing ListingV1
	if err := json.Unmarshal(body, &listing); err != nil {
		return nil, fmt.Errorf("decode model listing: %w", err)
	}
	if listing.Version > core.WireVersion {
		return nil, fmt.Errorf("peer speaks wire version %d, this build speaks ≤ %d", listing.Version, core.WireVersion)
	}
	var models []*core.Model
	var failures []string
	for _, entry := range listing.Models {
		m, err := c.FetchModel(ctx, base+"/v1/models/"+url.PathEscape(entry.Schema))
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", entry.Schema, err))
			continue
		}
		models = append(models, m)
	}
	if len(failures) > 0 {
		return models, fmt.Errorf("model(s) failed: %s", strings.Join(failures, "; "))
	}
	return models, nil
}

// Upload publishes a model into a hub's registry via POST /v1/models
// (tenant "" means the default namespace). The hub validates the wire
// checksum server-side; the returned ETag is cross-checked against the
// local fingerprint, so a payload corrupted in transit cannot be silently
// registered.
func (c *Client) Upload(ctx context.Context, base, tenant string, m *core.Model) (*UploadResponse, error) {
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("serialise model %q: %w", m.Schema, err)
	}
	base = strings.TrimSuffix(base, "/")
	body, _, _, err := c.do(ctx, request{
		method: http.MethodPost, url: base + "/v1/models", tenant: tenant, payload: buf.Bytes(),
	})
	if err != nil {
		return nil, fmt.Errorf("upload model %q: %w", m.Schema, err)
	}
	var ur UploadResponse
	if err := json.Unmarshal(body, &ur); err != nil {
		return nil, fmt.Errorf("decode upload response: %w", err)
	}
	fp, err := m.Fingerprint()
	if err != nil {
		return nil, err
	}
	if got := strings.Trim(ur.ETag, `"`); got != fp {
		return nil, fmt.Errorf("hub registered ETag %q, local fingerprint is %.12s…", ur.ETag, fp)
	}
	return &ur, nil
}

// Assess posts one linkability query to a hub's POST /v1/assess hot path
// (tenant "" means the default namespace). Shed responses (429) are
// retried under the policy, honouring the hub's Retry-After advice.
func (c *Client) Assess(ctx context.Context, base, tenant string, req *AssessRequest) (*AssessResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encode assess request: %w", err)
	}
	base = strings.TrimSuffix(base, "/")
	body, _, _, err := c.do(ctx, request{
		method: http.MethodPost, url: base + "/v1/assess", tenant: tenant, payload: payload,
	})
	if err != nil {
		return nil, fmt.Errorf("assess %q: %w", req.Schema, err)
	}
	var ar AssessResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return nil, fmt.Errorf("decode assess response: %w", err)
	}
	if len(ar.Verdicts) != len(req.Signatures) {
		return nil, fmt.Errorf("hub returned %d verdicts for %d signatures", len(ar.Verdicts), len(req.Signatures))
	}
	return &ar, nil
}

// FetchAll fetches the models of every peer concurrently and degrades
// gracefully: it returns every model it could get (in peer order) together
// with a per-peer error report for the rest. It never fails as a whole —
// assessing against fewer foreign models only makes collaborative scoping
// more conservative (Algorithm 2), which is the paper's intended behaviour
// under partial participation.
func (c *Client) FetchAll(ctx context.Context, peers []string) ([]*core.Model, []PeerError) {
	perPeer := make([][]*core.Model, len(peers))
	perErr := make([]error, len(peers))
	// parallel.ForEach only errors when a callback does; ours never do.
	_ = parallel.ForEach(ctx, 0, len(peers), func(i int) error {
		perPeer[i], perErr[i] = c.FetchPeer(ctx, peers[i])
		return nil
	})
	var models []*core.Model
	var failed []PeerError
	for i, peer := range peers {
		models = append(models, perPeer[i]...)
		switch {
		case perErr[i] != nil:
			failed = append(failed, PeerError{Peer: peer, Err: perErr[i]})
		case perPeer[i] == nil && ctx.Err() != nil:
			// The pool stopped before this peer was attempted.
			failed = append(failed, PeerError{Peer: peer, Err: ctx.Err()})
		}
	}
	return models, failed
}
