package exchange

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// testModel trains a small real model whose signatures are offset by the
// schema name, so different parties publish genuinely different models.
func testModel(t *testing.T, name string) *core.Model {
	t.Helper()
	offset := float64(len(name)) * 0.05
	rows := [][]float64{
		{1 + offset, 0.1, 0, 0.5},
		{0.2, 1 - offset, 0.1, 0.25},
		{0, 0.3, 1, 0.125 + offset},
		{0.4, 0, 0.2 + offset, 1},
	}
	m := linalg.NewDense(len(rows), len(rows[0]))
	ids := make([]schema.ElementID, len(rows))
	for i, row := range rows {
		copy(m.RowView(i), row)
		ids[i] = schema.AttributeID(name, "T", fmt.Sprintf("A%d", i))
	}
	model, err := core.Train(&embed.SignatureSet{IDs: ids, Matrix: m}, 0.9)
	if err != nil {
		t.Fatalf("train %s: %v", name, err)
	}
	return model
}

func quickPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Timeout: 250 * time.Millisecond}
}

// TestServerListingAndETagRevalidation pins the read side of the hub on
// /v1: the listing, model bodies byte-identical to a local WriteJSON, the
// content fingerprint as ETag, 304 revalidation, a client round trip, and
// a 404 for an unpublished schema.
func TestServerListingAndETagRevalidation(t *testing.T) {
	m1 := testModel(t, "S1")
	srv, err := NewServer(WithModels(m1, testModel(t, "S2")))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := doV1(t, http.MethodGet, ts.URL+"/v1/models", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("listing: status %d", resp.StatusCode)
	}
	var listing ListingV1
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("listing shape: %v\n%s", err, body)
	}
	if listing.Version != core.WireVersion {
		t.Fatalf("listing version %d, want %d", listing.Version, core.WireVersion)
	}
	if len(listing.Models) != 2 || listing.Models[0].Schema != "S1" || listing.Models[1].Schema != "S2" {
		t.Fatalf("unexpected listing %+v", listing)
	}

	var wire bytes.Buffer
	if err := m1.WriteJSON(&wire); err != nil {
		t.Fatal(err)
	}
	fp, err := m1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if listing.Models[0].ETag != `"`+fp+`"` {
		t.Fatalf("listing ETag %s is not the content hash %q", listing.Models[0].ETag, fp)
	}
	resp, body = doV1(t, http.MethodGet, ts.URL+"/v1/models/S1", "", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, wire.Bytes()) {
		t.Fatalf("model body differs from the local serialisation (status %d)", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"`+fp+`"` {
		t.Fatalf("ETag %s is not the content hash %q", etag, fp)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/models/S1", nil)
	req.Header.Set("If-None-Match", etag)
	nm, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	nm.Body.Close()
	if nm.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation got %d, want 304", nm.StatusCode)
	}

	c := NewClient(WithRetryPolicy(quickPolicy()))
	fetched, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/S1")
	if err != nil {
		t.Fatal(err)
	}
	if ffp, _ := fetched.Fingerprint(); ffp != fp {
		t.Fatalf("fetched fingerprint %s, want %s", ffp, fp)
	}

	resp, _ = doV1(t, http.MethodGet, ts.URL+"/v1/models/NOPE", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing model got %d, want 404", resp.StatusCode)
	}
}

// TestFetchAllPartialPeers is the fault-tolerance contract: one healthy
// peer, one serving garbage, one timing out, one down entirely. FetchAll
// must return the healthy peer's model and name each failure.
func TestFetchAllPartialPeers(t *testing.T) {
	healthySrv, err := NewServer(WithModels(testModel(t, "GOOD")))
	if err != nil {
		t.Fatal(err)
	}
	healthy := httptest.NewServer(healthySrv)
	defer healthy.Close()

	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"version":1,"models":[`) // truncated JSON
	}))
	defer garbage.Close()

	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done(): // client gave up; let Close return promptly
		}
	}))
	defer slow.Close()

	down := httptest.NewServer(http.NotFoundHandler())
	downURL := down.URL
	down.Close() // connection refused from here on

	c := NewClient(WithRetryPolicy(RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Timeout: 100 * time.Millisecond,
	}))
	peers := []string{healthy.URL, garbage.URL, slow.URL, downURL}
	models, failed := c.FetchAll(context.Background(), peers)

	if len(models) != 1 || models[0].Schema != "GOOD" {
		t.Fatalf("expected exactly the healthy model, got %d models", len(models))
	}
	if len(failed) != 3 {
		t.Fatalf("expected 3 peer errors, got %d: %v", len(failed), failed)
	}
	got := map[string]bool{}
	for _, pe := range failed {
		if pe.Err == nil {
			t.Fatalf("peer error without cause: %+v", pe)
		}
		got[pe.Peer] = true
	}
	for _, bad := range []string{garbage.URL, slow.URL, downURL} {
		if !got[bad] {
			t.Errorf("failure report does not name %s (got %v)", bad, failed)
		}
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "FLAKY")))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "try again", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	c := NewClient(WithRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Timeout: 250 * time.Millisecond,
	}))
	models, failedErr := c.FetchPeer(context.Background(), flaky.URL)
	if failedErr != nil {
		t.Fatalf("expected retry to recover, got %v", failedErr)
	}
	if len(models) != 1 || models[0].Schema != "FLAKY" {
		t.Fatalf("unexpected harvest %v", models)
	}
	if calls.Load() < 3 {
		t.Fatalf("expected at least 3 requests (2 failures + success), saw %d", calls.Load())
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such model", http.StatusNotFound)
	}))
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	if _, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/X"); err == nil {
		t.Fatal("expected error on 404")
	}
	if calls.Load() != 1 {
		t.Fatalf("404 must not be retried; saw %d requests", calls.Load())
	}
}

// tamper decodes a model's wire JSON, applies f, and re-encodes it without
// recomputing the hash trailer.
func tamper(t *testing.T, m *core.Model, f func(map[string]any)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(buf.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	f(wire)
	out, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFetchModelRejectsTamperedPayload(t *testing.T) {
	body := tamper(t, testModel(t, "S1"), func(wire map[string]any) {
		mean := wire["mean"].([]any)
		mean[0] = mean[0].(float64) + 1 // flip content, keep old sum
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	_, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/S1")
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("expected checksum mismatch, got %v", err)
	}
}

func TestFetchModelRejectsWrongETag(t *testing.T) {
	var buf bytes.Buffer
	if err := testModel(t, "S1").WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"deadbeef"`)
		_, _ = w.Write(buf.Bytes())
	}))
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	if _, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/S1"); err == nil {
		t.Fatal("expected ETag/fingerprint mismatch error")
	}
}

// TestFetchModelV0Compat pins the retirement of the unsealed v0 format: a
// payload without version key and hash trailer is refused over the wire
// and counted as an invalid model, not as a checksum failure.
func TestFetchModelV0Compat(t *testing.T) {
	body := tamper(t, testModel(t, "LEGACY"), func(wire map[string]any) {
		delete(wire, "version")
		delete(wire, "sum")
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(body)
	}))
	defer ts.Close()
	reg := obs.NewRegistry()
	c := NewClient(WithRetryPolicy(quickPolicy()), WithMetrics(reg))
	if m, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/LEGACY"); err == nil {
		t.Fatalf("v0 payload accepted as %q", m.Schema)
	}
	counters := reg.Snapshot().Counters
	if counters["exchange.model_invalid"] != 1 || counters["exchange.checksum_failures"] != 0 {
		t.Fatalf("model_invalid %d, checksum_failures %d; want 1 and 0",
			counters["exchange.model_invalid"], counters["exchange.checksum_failures"])
	}
}

// TestFetchPeerPartialHarvest: a peer listing two models where one model
// endpoint is broken still yields the healthy model plus a named error.
func TestFetchPeerPartialHarvest(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "OK"), testModel(t, "BROKEN")))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/BROKEN") {
			http.Error(w, "disk on fire", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	models, err := c.FetchPeer(context.Background(), ts.URL)
	if len(models) != 1 || models[0].Schema != "OK" {
		t.Fatalf("expected the healthy model, got %d", len(models))
	}
	if err == nil || !strings.Contains(err.Error(), "BROKEN") {
		t.Fatalf("expected an error naming BROKEN, got %v", err)
	}
}

func TestBackoffIsCappedAndJittered(t *testing.T) {
	c := NewClient(WithRetryPolicy(RetryPolicy{
		MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 300 * time.Millisecond, Timeout: time.Second,
	}))
	for attempt := 1; attempt <= 6; attempt++ {
		want := 100 * time.Millisecond << (attempt - 1)
		if want > 300*time.Millisecond {
			want = 300 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(attempt, nil)
			if d < want/2 || d > want {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

// TestBackoffHonoursRetryAfter pins the Retry-After floor: server advice
// lifts a small jittered delay, and is itself capped at MaxDelay.
func TestBackoffHonoursRetryAfter(t *testing.T) {
	c := NewClient(WithRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second, Timeout: time.Second,
	}))
	if d := c.backoff(1, &statusError{code: http.StatusTooManyRequests, retryAfter: time.Second}); d < time.Second {
		t.Fatalf("Retry-After floor ignored: %v < 1s", d)
	}
	if d := c.backoff(1, &statusError{code: http.StatusTooManyRequests, retryAfter: time.Minute}); d != 2*time.Second {
		t.Fatalf("Retry-After cap: %v, want MaxDelay 2s", d)
	}
}

// TestStatusErrorMessage pins both Error() forms of a non-2xx answer, with
// and without a body excerpt.
func TestStatusErrorMessage(t *testing.T) {
	if got := (&statusError{code: 500}).Error(); got != "http status 500" {
		t.Fatalf("bare form: %q", got)
	}
	if got := (&statusError{code: 500, body: " boom \n"}).Error(); got != "http status 500: boom" {
		t.Fatalf("body form: %q", got)
	}
}

// TestPostCapsResponseBody pins the per-request body cap Post takes: a
// body past the limit fails instead of being read whole.
func TestPostCapsResponseBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("0123456789abcdef"))
	}))
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	if _, err := c.Post(context.Background(), ts.URL, []byte("{}"), 8); err == nil || !strings.Contains(err.Error(), "exceeds 8 bytes") {
		t.Fatalf("16-byte body under an 8-byte cap: err %v", err)
	}
	if body, err := c.Post(context.Background(), ts.URL, []byte("{}"), 16); err != nil || string(body) != "0123456789abcdef" {
		t.Fatalf("16-byte body under a 16-byte cap: %q, %v", body, err)
	}
}

func TestFetchAllHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	models, failed := c.FetchAll(ctx, []string{"http://127.0.0.1:0", "http://127.0.0.1:1"})
	if len(models) != 0 {
		t.Fatalf("cancelled fetch returned models: %v", models)
	}
	if len(failed) != 2 {
		t.Fatalf("every peer must be reported on cancellation, got %v", failed)
	}
}

func TestServerRejectsWrites(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "S1")))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/models/S1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST got %d, want 405", resp.StatusCode)
	}
}
