package exchange

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"collabscope/internal/faultinject"
	"collabscope/internal/leakcheck"
)

// TestChaosFetchAllPartialUnderPeerStall pins the PR-2 invariant under
// injected faults: one peer stalling (injected delays beyond the client's
// per-attempt timeout) costs only that peer's models; the healthy peers'
// harvest arrives intact.
func TestChaosFetchAllPartialUnderPeerStall(t *testing.T) {
	leakcheck.Guard(t)
	healthy, err := NewServer(WithModels(testModel(t, "Good")))
	if err != nil {
		t.Fatal(err)
	}
	stalled, err := NewServer(WithModels(testModel(t, "Stall")))
	if err != nil {
		t.Fatal(err)
	}
	// Every request into the stalled hub sleeps past the client timeout.
	stalled.SetFaultInjector(faultinject.New(1, faultinject.Fault{
		Site: "exchange.server.request", Kind: faultinject.KindDelay,
		Rate: 1, Delay: 300 * time.Millisecond,
	}))
	tsGood := httptest.NewServer(healthy)
	defer tsGood.Close()
	tsStall := httptest.NewServer(stalled)
	defer tsStall.Close()

	c := NewClient(WithRetryPolicy(RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond, Timeout: 50 * time.Millisecond,
	}))
	models, failed := c.FetchAll(context.Background(), []string{tsGood.URL, tsStall.URL})
	if len(models) != 1 || models[0].Schema != "Good" {
		t.Fatalf("models = %v, want just the healthy peer's", models)
	}
	if len(failed) != 1 || failed[0].Peer != tsStall.URL {
		t.Fatalf("failed = %v, want the stalled peer", failed)
	}
}

// TestChaosCancellationUnderInjectedDelay pins prompt cancellation: with a
// server-side injected stall, cancelling the caller's context returns well
// before the stall (or any retry schedule) would.
func TestChaosCancellationUnderInjectedDelay(t *testing.T) {
	leakcheck.Guard(t)
	srv, err := NewServer(WithModels(testModel(t, "Slow")))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFaultInjector(faultinject.New(1, faultinject.Fault{
		Site: "exchange.server.request", Kind: faultinject.KindDelay,
		Rate: 1, Delay: 2 * time.Second,
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := NewClient(WithRetryPolicy(RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Second,
		MaxDelay: 2 * time.Second, Timeout: 10 * time.Second,
	}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, failed := c.FetchAll(ctx, []string{ts.URL})
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("FetchAll returned after %v, want prompt cancellation", d)
	}
	if len(failed) != 1 || !errors.Is(failed[0].Err, context.Canceled) {
		t.Fatalf("failed = %v, want context.Canceled for the peer", failed)
	}
	// Let the server goroutine finish its injected sleep before the leak
	// guard settles; httptest.Close below also waits on handlers.
}

// TestChaosCorruptionCaughtByChecksum pins end-to-end integrity: a byte
// flipped on the wire (server side or client side) is always caught by the
// wire format's hash trailer, never silently accepted.
func TestChaosCorruptionCaughtByChecksum(t *testing.T) {
	leakcheck.Guard(t)
	for _, site := range []string{"exchange.server.body", "exchange.client.body"} {
		srv, err := NewServer(WithModels(testModel(t, "S1")))
		if err != nil {
			t.Fatal(err)
		}
		in := faultinject.New(3, faultinject.Fault{
			Site: site, Kind: faultinject.KindCorrupt, Rate: 1,
		})
		var opts []ClientOption
		opts = append(opts, WithRetryPolicy(quickPolicy()))
		if site == "exchange.server.body" {
			srv.SetFaultInjector(in)
		} else {
			opts = append(opts, WithFaultInjector(in))
		}
		ts := httptest.NewServer(srv)
		c := NewClient(opts...)
		_, err = c.FetchModel(context.Background(), ts.URL+"/v1/models/S1")
		ts.Close()
		if err == nil {
			t.Fatalf("%s: corrupted model accepted", site)
		}
		if len(in.Events()) == 0 {
			t.Fatalf("%s: corruption fault never fired", site)
		}
	}
}

// TestChaosInjectedServerErrorIsRetried pins that injected 500s flow
// through the client's retry loop: a hub erroring on exactly its first
// request serves the model on the retry.
func TestChaosInjectedServerErrorIsRetried(t *testing.T) {
	leakcheck.Guard(t)
	srv, err := NewServer(WithModels(testModel(t, "Flaky")))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFaultInjector(faultinject.New(1, faultinject.Fault{
		Site: "exchange.server.request", Kind: faultinject.KindError, At: []uint64{0},
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	m, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/Flaky")
	if err != nil {
		t.Fatalf("retry did not recover from injected 500: %v", err)
	}
	if m.Schema != "Flaky" {
		t.Fatalf("schema = %q", m.Schema)
	}
}

// TestChaosClientRequestFaultSurfacesInjectedSentinel exercises the
// client-side request hook: with every attempt failing by injection, the
// final error wraps faultinject.ErrInjected.
func TestChaosClientRequestFaultSurfacesInjectedSentinel(t *testing.T) {
	leakcheck.Guard(t)
	srv, err := NewServer(WithModels(testModel(t, "S1")))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(
		WithRetryPolicy(quickPolicy()),
		WithFaultInjector(faultinject.New(1, faultinject.Fault{
			Site: "exchange.client.request", Kind: faultinject.KindError, Rate: 1,
		})),
	)
	_, err = c.FetchModel(context.Background(), ts.URL+"/v1/models/S1")
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Fatalf("err %q does not report the retry count", err)
	}
}

// TestBackoffScheduleDeterministicWithInjectedRand pins satellite (b): with
// an injected jitter generator, the backoff schedule is a pure function of
// the seed — two clients with equal seeds produce identical delays, and
// every delay respects the [delay/2, delay] jitter window and the cap.
func TestBackoffScheduleDeterministicWithInjectedRand(t *testing.T) {
	policy := RetryPolicy{
		MaxAttempts: 6, BaseDelay: 100 * time.Millisecond,
		MaxDelay: 2 * time.Second, Timeout: time.Second,
	}
	schedule := func(seed uint64) []time.Duration {
		c := NewClient(
			WithRetryPolicy(policy),
			WithJitterRand(rand.New(rand.NewPCG(seed, 0))),
		)
		out := make([]time.Duration, 0, 5)
		for attempt := 1; attempt <= 5; attempt++ {
			out = append(out, c.backoff(attempt, nil))
		}
		return out
	}
	a, b := schedule(7), schedule(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if c := schedule(8); reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds, identical schedules: %v", a)
	}
	want := policy.BaseDelay
	for i, d := range a {
		if want > policy.MaxDelay {
			want = policy.MaxDelay
		}
		if d < want/2 || d > want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i+1, d, want/2, want)
		}
		want *= 2
	}
}
