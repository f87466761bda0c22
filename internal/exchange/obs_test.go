package exchange

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"collabscope/internal/faultinject"
	"collabscope/internal/obs"
)

// countingTransport wraps a transport and tallies requests and the
// If-None-Match headers they carried, so tests can see exactly what went
// over the wire.
type countingTransport struct {
	base     http.RoundTripper
	requests atomic.Int64
	inm      atomic.Int64
	got304   atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.requests.Add(1)
	if req.Header.Get("If-None-Match") != "" {
		t.inm.Add(1)
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusNotModified {
		t.got304.Add(1)
	}
	return resp, err
}

// TestETagHitServedFromCache pins the 304 contract end to end: a refetch of
// an unchanged model must send If-None-Match, receive 304, serve the cached
// model, and be counted as an ETag hit — never as a fresh fetch, and never
// entering the retry bookkeeping.
func TestETagHitServedFromCache(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "S1")))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ct := &countingTransport{base: http.DefaultTransport}
	reg := obs.NewRegistry()
	c := NewClient(
		WithHTTPClient(&http.Client{Transport: ct}),
		WithRetryPolicy(quickPolicy()),
		WithMetrics(reg),
	)
	ctx := context.Background()
	url := ts.URL + "/v1/models/S1"

	first, err := c.FetchModel(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	if ct.inm.Load() != 0 {
		t.Fatal("first fetch must not send If-None-Match")
	}
	second, err := c.FetchModel(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	if ct.inm.Load() != 1 || ct.got304.Load() != 1 {
		t.Fatalf("refetch should revalidate: inm=%d 304s=%d", ct.inm.Load(), ct.got304.Load())
	}
	if second != first {
		t.Fatal("304 must serve the cached model instance")
	}
	fp1, _ := first.Fingerprint()
	fp2, _ := second.Fingerprint()
	if fp1 != fp2 {
		t.Fatalf("cached model fingerprint changed: %s vs %s", fp1, fp2)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["exchange.fetches"]; got != 1 {
		t.Fatalf("exchange.fetches = %d, want 1 (304 must not count as a fresh fetch)", got)
	}
	if got := snap.Counters["exchange.etag_hits"]; got != 1 {
		t.Fatalf("exchange.etag_hits = %d, want 1", got)
	}
	if got := snap.Counters["exchange.retries"]; got != 0 {
		t.Fatalf("exchange.retries = %d, want 0 (304 is not a retry)", got)
	}
	// Per-peer twins carry the hub's host.
	found := false
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "exchange.peer.") && strings.HasSuffix(name, ".etag_hits") {
			found = true
			if v != 1 {
				t.Fatalf("%s = %d, want 1", name, v)
			}
		}
	}
	if !found {
		t.Fatalf("no per-peer etag_hits counter in snapshot: %v", snap.Counters)
	}
}

// TestRepublishInvalidatesCache: after the hub republishes a changed model,
// the client's conditional request must miss (200, fresh fetch) and the new
// model must replace the cache entry.
func TestRepublishInvalidatesCache(t *testing.T) {
	m1 := testModel(t, "S1")
	srv, err := NewServer(WithModels(m1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reg := obs.NewRegistry()
	c := NewClient(WithRetryPolicy(quickPolicy()), WithMetrics(reg))
	ctx := context.Background()
	url := ts.URL + "/v1/models/S1"

	if _, err := c.FetchModel(ctx, url); err != nil {
		t.Fatal(err)
	}
	// Republish a different model under the same schema name.
	m2 := testModel(t, "S1x")
	m2.Schema = "S1"
	if err := srv.Publish(m2); err != nil {
		t.Fatal(err)
	}
	got, err := c.FetchModel(ctx, url)
	if err != nil {
		t.Fatal(err)
	}
	fpGot, _ := got.Fingerprint()
	fpWant, _ := m2.Fingerprint()
	if fpGot != fpWant {
		t.Fatalf("refetch after republish returned stale model")
	}
	snap := reg.Snapshot()
	if snap.Counters["exchange.etag_hits"] != 0 {
		t.Fatalf("etag_hits = %d, want 0 after content change", snap.Counters["exchange.etag_hits"])
	}
	if snap.Counters["exchange.fetches"] != 2 {
		t.Fatalf("fetches = %d, want 2", snap.Counters["exchange.fetches"])
	}
}

// TestClientRetryAndFailureCounters: injected server errors must show up as
// retries and, when the budget runs out, a request failure.
func TestClientRetryAndFailureCounters(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "S1")))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFaultInjector(faultinject.New(1, faultinject.Fault{
		Site: "exchange.server.request", Kind: faultinject.KindError, Rate: 1,
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	reg := obs.NewRegistry()
	c := NewClient(WithRetryPolicy(quickPolicy()), WithMetrics(reg))
	if _, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/S1"); err == nil {
		t.Fatal("expected failure against an always-erroring hub")
	}
	snap := reg.Snapshot()
	if snap.Counters["exchange.retries"] == 0 {
		t.Fatalf("expected retries > 0, got counters %v", snap.Counters)
	}
	if snap.Counters["exchange.request_failures"] == 0 {
		t.Fatalf("expected request_failures > 0, got counters %v", snap.Counters)
	}
	if h, ok := snap.Histograms["exchange.request"]; !ok || h.Count < 2 {
		t.Fatalf("expected ≥2 request latency observations, got %+v", snap.Histograms["exchange.request"])
	}
}

// TestFetchModelChecksumCounters pins the typed checksum detection: a
// tampered v1 payload counts as model_invalid and checksum_failures, while
// a v1 payload without its trailer is malformed, not corrupted, and counts
// as model_invalid only.
func TestFetchModelChecksumCounters(t *testing.T) {
	cases := []struct {
		name      string
		edit      func(map[string]any)
		checksums int64
	}{
		{"tampered", func(w map[string]any) { w["range"] = w["range"].(float64) + 1 }, 1},
		{"no trailer", func(w map[string]any) { delete(w, "sum") }, 0},
	}
	for _, c := range cases {
		body := tamper(t, testModel(t, "S1"), c.edit)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write(body)
		}))
		reg := obs.NewRegistry()
		_, err := NewClient(WithRetryPolicy(quickPolicy()), WithMetrics(reg)).FetchModel(context.Background(), ts.URL+"/v1/models/S1")
		ts.Close()
		counters := reg.Snapshot().Counters
		if err == nil || counters["exchange.model_invalid"] != 1 || counters["exchange.checksum_failures"] != c.checksums {
			t.Errorf("%s: err %v, model_invalid %d, checksum_failures %d; want an error, 1 and %d",
				c.name, err, counters["exchange.model_invalid"], counters["exchange.checksum_failures"], c.checksums)
		}
	}
}

// TestServerMetricsEndpoint: /v1/metrics serves a parseable registry
// snapshot with the hub-side counters on a server built WithServerMetrics
// and 404s without a registry; /debug/pprof is gated behind WithPprof.
func TestServerMetricsEndpoint(t *testing.T) {
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	bare, err := NewServer(WithModels(testModel(t, "S1")))
	if err != nil {
		t.Fatal(err)
	}
	tsBare := httptest.NewServer(bare)
	defer tsBare.Close()
	if code := status(tsBare.URL + "/v1/metrics"); code != http.StatusNotFound {
		t.Fatalf("/v1/metrics without registry: status %d, want 404", code)
	}
	if code := status(tsBare.URL + "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ without WithPprof: status %d, want 404", code)
	}

	reg := obs.NewRegistry()
	srv, err := NewServer(WithModels(testModel(t, "S1")), WithServerMetrics(reg), WithPprof())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	if _, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/S1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/nope"); err == nil {
		t.Fatal("expected 404 for unpublished schema")
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics status %d", resp.StatusCode)
	}
	snap, err := obs.ReadSnapshotJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.model_fetches"] != 1 {
		t.Fatalf("server.model_fetches = %d, want 1", snap.Counters["server.model_fetches"])
	}
	if snap.Counters["server.not_found"] == 0 {
		t.Fatalf("server.not_found = 0, want > 0")
	}
	if snap.Counters["server.requests"] < 3 {
		t.Fatalf("server.requests = %d, want ≥ 3", snap.Counters["server.requests"])
	}

	if code := status(ts.URL + "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ with WithPprof: status %d, want 200", code)
	}
}
