package encoder

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"collabscope/internal/checkpoint"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/exchange"
	"collabscope/internal/faultinject"
	"collabscope/internal/obs"
)

const testDim = 32

func newStubPair(t *testing.T, opts ...RemoteOption) (*StubServer, *Remote) {
	t.Helper()
	stub := NewStubServer(embed.NewHashEncoder(embed.WithDim(testDim)))
	srv := httptest.NewServer(stub)
	t.Cleanup(srv.Close)
	remote, err := NewRemote(srv.URL, append([]RemoteOption{WithDim(testDim)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return stub, remote
}

func sameRows(t *testing.T, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row counts: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("row %d dims: %d vs %d", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("row %d dim %d: %v != %v", i, j, want[i][j], got[i][j])
			}
		}
	}
}

// TestRemoteConformsToHash is the backend conformance bar: the remote
// stub and the local hash encoder produce bit-identical SignatureSets
// over a full bundled dataset.
func TestRemoteConformsToHash(t *testing.T) {
	_, remote := newStubPair(t)
	hash := embed.NewHashEncoder(embed.WithDim(testDim))
	for _, s := range datasets.OC3FO().Schemas {
		local, err := embed.EncodeSchemaContext(context.Background(), 0, hash, s)
		if err != nil {
			t.Fatal(err)
		}
		viaHTTP, err := embed.EncodeSchemaContext(context.Background(), 0, remote, s)
		if err != nil {
			t.Fatal(err)
		}
		if local.Len() != viaHTTP.Len() {
			t.Fatalf("%s: %d vs %d elements", s.Name, local.Len(), viaHTTP.Len())
		}
		for i := 0; i < local.Len(); i++ {
			if local.IDs[i] != viaHTTP.IDs[i] {
				t.Fatalf("%s: id %d diverged", s.Name, i)
			}
			a, b := local.Matrix.RowView(i), viaHTTP.Matrix.RowView(i)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("%s: signature of %s differs at dim %d", s.Name, local.IDs[i], j)
				}
			}
		}
	}
}

func TestRemoteEmptyBatchSkipsNetwork(t *testing.T) {
	stub, remote := newStubPair(t)
	rows, err := remote.EncodeBatch(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty batch returned %d rows", len(rows))
	}
	if stub.Requests() != 0 {
		t.Fatalf("empty batch issued %d requests", stub.Requests())
	}
}

func TestRemoteSingleText(t *testing.T) {
	_, remote := newStubPair(t)
	hash := embed.NewHashEncoder(embed.WithDim(testDim))
	rows, err := remote.EncodeBatch(context.Background(), []string{"CUSTOMERS CUST_ID"})
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, [][]float64{hash.Encode("CUSTOMERS CUST_ID")}, rows)
}

// TestRemoteCoalescingWindow pins that a batch larger than the window
// splits into ceil(n/window) requests, with results still in order.
func TestRemoteCoalescingWindow(t *testing.T) {
	stub, remote := newStubPair(t, WithMaxBatch(4))
	hash := embed.NewHashEncoder(embed.WithDim(testDim))
	texts := make([]string, 10)
	want := make([][]float64, len(texts))
	for i := range texts {
		texts[i] = strings.Repeat("x", i+1)
		want[i] = hash.Encode(texts[i])
	}
	rows, err := remote.EncodeBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, want, rows)
	if got := stub.Requests(); got != 3 { // ceil(10/4)
		t.Fatalf("10 texts through window 4 took %d requests, want 3", got)
	}
	if got := stub.Texts(); got != 10 {
		t.Fatalf("server saw %d texts, want 10", got)
	}
}

// TestRemoteDeduplicatesWithinBatch pins that duplicate texts in one
// batch are encoded once but all receive their signature.
func TestRemoteDeduplicatesWithinBatch(t *testing.T) {
	stub, remote := newStubPair(t)
	hash := embed.NewHashEncoder(embed.WithDim(testDim))
	rows, err := remote.EncodeBatch(context.Background(), []string{"dup", "dup", "dup"})
	if err != nil {
		t.Fatal(err)
	}
	want := hash.Encode("dup")
	sameRows(t, [][]float64{want, want, want}, rows)
	if got := stub.Texts(); got != 1 {
		t.Fatalf("server saw %d texts for 3 duplicates, want 1", got)
	}
}

// TestRemoteContextCancellation pins that a caller blocked on a stalled
// server is released promptly by its own context.
func TestRemoteContextCancellation(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		stalled.Store(true)
		<-release
		http.Error(w, "too late", http.StatusInternalServerError)
	}))
	t.Cleanup(func() { close(release); srv.Close() })
	remote, err := NewRemote(srv.URL, WithDim(testDim),
		WithRetryPolicy(exchange.RetryPolicy{MaxAttempts: 1, Timeout: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for !stalled.Load() {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	_, err = remote.EncodeBatch(ctx, []string{"a", "b"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestCacheDeterminism pins the content-addressed cache: warm results are
// bit-identical to cold ones, warm re-encodes hit the network zero times,
// and the persisted store serves a fresh backend instance.
func TestCacheDeterminism(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stub, remote := newStubPair(t, WithStore(store))
	texts := []string{"CUSTOMERS", "ORDERS ORDER_DATE", "RACES"}

	cold, err := remote.EncodeBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	coldReqs := stub.Requests()
	warm, err := remote.EncodeBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, cold, warm)
	if got := stub.Requests(); got != coldReqs {
		t.Fatalf("warm re-encode went to the network (%d -> %d requests)", coldReqs, got)
	}

	// A new instance over the same store — and a dead server — still
	// serves bit-identical signatures from disk.
	deadSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "server gone", http.StatusInternalServerError)
	}))
	t.Cleanup(deadSrv.Close)
	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	revived, err := NewRemote(deadSrv.URL, WithDim(testDim), WithStore(store2))
	if err != nil {
		t.Fatal(err)
	}
	fromDisk, err := revived.EncodeBatch(context.Background(), texts)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, cold, fromDisk)
}

func TestCacheKeySeparatesConfigurations(t *testing.T) {
	base := CacheKey("m", 8, "text")
	for name, other := range map[string]string{
		"dim":  CacheKey("m", 16, "text"),
		"text": CacheKey("m", 8, "text2"),
	} {
		if other == base {
			t.Fatalf("changing %s left the cache key unchanged", name)
		}
	}
	// Boundary-ambiguity guard: model/text must not blend across the
	// delimiter into the same digest.
	if CacheKey("ab", 8, "c") == CacheKey("a", 8, "bc") {
		t.Fatal("model/text boundary is ambiguous in the cache key")
	}
}

// TestRemoteRetriesThenSucceeds pins the retry discipline: 5xx answers
// retry up to MaxAttempts with the retries counter ticking.
func TestRemoteRetriesThenSucceeds(t *testing.T) {
	stub := NewStubServer(embed.NewHashEncoder(embed.WithDim(testDim)))
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		stub.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	remote, err := NewRemote(srv.URL, WithDim(testDim), WithMetrics(reg),
		WithRetryPolicy(exchange.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Timeout: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := remote.EncodeBatch(context.Background(), []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	hash := embed.NewHashEncoder(embed.WithDim(testDim))
	sameRows(t, [][]float64{hash.Encode("a")}, rows)
	if got := reg.Counter("encoder.retries").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

// TestRemoteChecksumGuardsBody pins the fault-injection site: a corrupted
// response body fails checksum validation instead of decoding garbage,
// and 4xx (non-retryable) fails without burning attempts.
func TestRemoteChecksumGuardsBody(t *testing.T) {
	inject := faultinject.New(1,
		faultinject.Fault{Site: "encoder.client.body", Kind: faultinject.KindCorrupt, Rate: 1})
	reg := obs.NewRegistry()
	_, remote := newStubPair(t, WithFaultInjector(inject), WithMetrics(reg),
		WithRetryPolicy(exchange.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Timeout: time.Second}))
	_, err := remote.EncodeBatch(context.Background(), []string{"a"})
	if err == nil {
		t.Fatal("corrupted body decoded successfully")
	}
	if !strings.Contains(err.Error(), "checksum") && !strings.Contains(err.Error(), "decode") {
		t.Fatalf("error does not mention corruption: %v", err)
	}
	if got := reg.Counter("encoder.request_failures").Value(); got != 1 {
		t.Fatalf("request_failures = %d, want 1", got)
	}
}

func TestRemoteDimMismatchFromServer(t *testing.T) {
	// Server speaks dim 16; client requests 32: the stub rejects the
	// request and the client surfaces it without retrying a 400.
	stub := NewStubServer(embed.NewHashEncoder(embed.WithDim(16)))
	srv := httptest.NewServer(stub)
	t.Cleanup(srv.Close)
	remote, err := NewRemote(srv.URL, WithDim(32),
		WithRetryPolicy(exchange.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Timeout: time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.EncodeBatch(context.Background(), []string{"a"}); err == nil {
		t.Fatal("dimension mismatch encoded successfully")
	}
	if got := stub.Requests(); got != 0 {
		t.Fatalf("stub accepted %d mismatched requests", got)
	}
}

func TestRegistryNew(t *testing.T) {
	enc, err := New("", Config{Dim: 24})
	if err != nil || enc.Dim() != 24 {
		t.Fatalf("default backend: enc=%v err=%v", enc, err)
	}
	if _, err := New("hash:param", Config{}); err == nil {
		t.Fatal("hash with a parameter should fail")
	}
	if _, err := New("remote", Config{}); err == nil {
		t.Fatal("remote without a URL should fail")
	}
	if _, err := New("quantum", Config{}); err == nil || !strings.Contains(err.Error(), "hash, remote") {
		t.Fatalf("unknown backend error should list backends, got %v", err)
	}
	stub := NewStubServer(embed.NewHashEncoder(embed.WithDim(embed.DefaultDim)))
	srv := httptest.NewServer(stub)
	t.Cleanup(srv.Close)
	enc, err = New("remote:"+srv.URL, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Dim() != embed.DefaultDim {
		t.Fatalf("remote default dim = %d, want %d", enc.Dim(), embed.DefaultDim)
	}
}

func TestWireTamperRejected(t *testing.T) {
	payload, err := MarshalResponse(EncodeResponse{Dim: 2, Vectors: [][]float64{{1, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalResponse(payload, 2, 1); err != nil {
		t.Fatalf("clean round trip failed: %v", err)
	}
	tampered := strings.Replace(string(payload), "1", "7", 1)
	if tampered == string(payload) {
		t.Fatal("tamper was a no-op")
	}
	if _, err := UnmarshalResponse([]byte(tampered), 2, 1); err == nil {
		t.Fatal("tampered response passed validation")
	}
	// Shape validation against the request.
	if _, err := UnmarshalResponse(payload, 3, 1); err == nil {
		t.Fatal("wrong wantDim passed")
	}
	if _, err := UnmarshalResponse(payload, 2, 2); err == nil {
		t.Fatal("wrong wantTexts passed")
	}
}

func TestRequestRoundTrip(t *testing.T) {
	payload, err := MarshalRequest(EncodeRequest{Model: "m", Dim: 4, Texts: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := UnmarshalRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if req.Model != "m" || req.Dim != 4 || len(req.Texts) != 2 {
		t.Fatalf("round trip mangled the request: %+v", req)
	}
	if _, err := UnmarshalRequest([]byte(`{"version":1,"dim":4,"texts":[],"sum":""}`)); err == nil {
		t.Fatal("missing trailer passed")
	}
	if _, err := UnmarshalRequest([]byte(`{"version":99,"dim":4}`)); err == nil {
		t.Fatal("future wire version passed")
	}
}
