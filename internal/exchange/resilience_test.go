package exchange

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"collabscope/internal/faultinject"
	"collabscope/internal/leakcheck"
	"collabscope/internal/obs"
)

// TestRetryableTimeoutVsDeadCaller pins the repaired retry predicate: a
// per-attempt child timeout (DeadlineExceeded with a live caller) is the
// textbook retry case, while any error observed after the caller's own
// context died must abort the schedule.
func TestRetryableTimeoutVsDeadCaller(t *testing.T) {
	if !retryable(context.DeadlineExceeded, nil) {
		t.Error("attempt timeout with a live caller must be retryable")
	}
	if retryable(context.DeadlineExceeded, context.DeadlineExceeded) {
		t.Error("timeout with a dead caller must not be retried")
	}
	if retryable(context.Canceled, context.Canceled) {
		t.Error("cancellation with a dead caller must not be retried")
	}
	if retryable(context.Canceled, nil) {
		t.Error("a cancelled attempt must not be retried even with a live caller")
	}
	if !retryable(&statusError{code: http.StatusServiceUnavailable}, nil) {
		t.Error("503 must be retryable")
	}
	if !retryable(&statusError{code: http.StatusTooManyRequests}, nil) {
		t.Error("429 must be retryable")
	}
	if retryable(&statusError{code: http.StatusNotFound}, nil) {
		t.Error("404 must not be retryable")
	}
	if !retryable(errors.New("connection refused"), nil) {
		t.Error("transport errors must be retryable")
	}
}

// TestAttemptTimeoutRetriedWithLiveCaller is the end-to-end pin for the
// predicate: the first attempt exceeds the per-attempt timeout, and with no
// caller deadline in sight the client must retry — the old conflated check
// aborted here.
func TestAttemptTimeoutRetriedWithLiveCaller(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "SRetry")))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(250 * time.Millisecond) // beyond the per-attempt timeout
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	c := NewClient(WithMetrics(reg), WithRetryPolicy(RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Timeout: 50 * time.Millisecond,
	}))
	m, err := c.FetchModel(context.Background(), ts.URL+"/v1/models/SRetry")
	if err != nil {
		t.Fatalf("fetch after an attempt timeout: %v", err)
	}
	if m.Schema != "SRetry" {
		t.Fatalf("fetched schema %q, want SRetry", m.Schema)
	}
	if got := reg.Snapshot().Counters["exchange.retries"]; got != 1 {
		t.Errorf("exchange.retries = %d, want 1 (the timed-out first attempt)", got)
	}
}

// TestParseRetryAfterForms covers both RFC 9110 Retry-After forms —
// delay-seconds and HTTP-date — plus the negative, past-date and garbage
// fallbacks. The remote encoder backend floors its backoff with the same
// parser; its twin table runs the forms through an HTTP answer.
func TestParseRetryAfterForms(t *testing.T) {
	now := time.Now()
	cases := []struct {
		name, in string
		min, max time.Duration
	}{
		{"delay-seconds", "3", 3 * time.Second, 3 * time.Second},
		{"padded delay-seconds", " 7 ", 7 * time.Second, 7 * time.Second},
		// HTTP-dates have one-second resolution and the clock moves on.
		{"future HTTP-date", now.Add(10 * time.Second).UTC().Format(http.TimeFormat), 8 * time.Second, 10 * time.Second},
		{"past HTTP-date", now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, 0},
		{"negative seconds", "-2", 0, 0},
		{"empty", "", 0, 0},
		{"garbage", "soon", 0, 0},
		{"truncated HTTP-date", "Wed, 21 Oct 2015 07:28 G", 0, 0},
	}
	for _, c := range cases {
		if got := ParseRetryAfter(c.in); got < c.min || got > c.max {
			t.Errorf("%s (%q): got %v, want in [%v, %v]", c.name, c.in, got, c.min, c.max)
		}
	}
}

// TestBreakerStateMachine walks the breaker through its full state machine
// on a fake clock: consecutive failures open it, the cooldown gates the
// half-open probe, exactly one probe is admitted, and the probe's outcome
// decides between closing and re-opening.
func TestBreakerStateMachine(t *testing.T) {
	pol := BreakerPolicy{ConsecutiveFailures: 3, Cooldown: time.Second}.withDefaults()
	b := newBreaker(pol)

	if ok, _ := b.allow(0); !ok {
		t.Fatal("closed breaker must allow")
	}
	if tr := b.record(false, 0); tr != transitionNone {
		t.Fatalf("failure 1 transitioned %v, want none", tr)
	}
	b.record(false, 0)
	if tr := b.record(false, 0); tr != transitionOpened {
		t.Fatalf("failure %d did not open the breaker", pol.ConsecutiveFailures)
	}
	if ok, _ := b.allow(500 * time.Millisecond); ok {
		t.Fatal("open breaker inside the cooldown must short-circuit")
	}
	ok, tr := b.allow(1100 * time.Millisecond)
	if !ok || tr != transitionHalfOpened {
		t.Fatalf("allow past cooldown = (%v, %v), want the half-open probe", ok, tr)
	}
	if ok, _ := b.allow(1100 * time.Millisecond); ok {
		t.Fatal("second send during the probe must short-circuit")
	}
	// An abandoned probe releases the slot without judging the host.
	b.abandon()
	if ok, _ := b.allow(1100 * time.Millisecond); !ok {
		t.Fatal("abandoned probe slot must be reusable")
	}
	if tr := b.record(false, 1200*time.Millisecond); tr != transitionOpened {
		t.Fatalf("failed probe transitioned %v, want re-open", tr)
	}
	if ok, _ := b.allow(1500 * time.Millisecond); ok {
		t.Fatal("re-opened breaker must cool down again from the re-open time")
	}
	if ok, tr := b.allow(2300 * time.Millisecond); !ok || tr != transitionHalfOpened {
		t.Fatal("second cooldown must admit another probe")
	}
	if tr := b.record(true, 2300*time.Millisecond); tr != transitionClosed {
		t.Fatalf("successful probe transitioned %v, want closed", tr)
	}
	if st := b.current(); st != BreakerClosed {
		t.Fatalf("breaker ended %v, want closed", st)
	}
}

// TestBreakerErrorRateTrigger pins the rolling-window trigger: a full
// window at the configured failure fraction opens the breaker even though
// no consecutive-failure streak ever forms.
func TestBreakerErrorRateTrigger(t *testing.T) {
	b := newBreaker(BreakerPolicy{ConsecutiveFailures: 100, Window: 4, ErrorRate: 0.5, Cooldown: time.Second}.withDefaults())
	b.record(false, 0)
	b.record(true, 0)
	b.record(false, 0)
	if tr := b.record(true, 0); tr != transitionOpened {
		t.Fatalf("full window at 50%% failures transitioned %v, want opened", tr)
	}
}

// TestClientBreakerOpensShortCircuitsAndRecovers drives the breaker through
// a real client on a fake clock: failures open it, open short-circuits with
// the typed error, and the post-cooldown probe closes it again — with every
// transition visible in the metrics.
func TestClientBreakerOpensShortCircuitsAndRecovers(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "SBrk")))
	if err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	failing.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	host := strings.TrimPrefix(ts.URL, "http://")
	prefix := "exchange.breaker." + host + "."

	reg := obs.NewRegistry()
	c := NewClient(
		WithMetrics(reg),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Timeout: 200 * time.Millisecond}),
		WithBreaker(BreakerPolicy{ConsecutiveFailures: 2, Cooldown: time.Minute}),
	)
	var clk atomic.Int64
	c.now = func() time.Duration { return time.Duration(clk.Load()) }

	ctx := context.Background()
	url := ts.URL + "/v1/models/SBrk"
	for i := 0; i < 2; i++ {
		if _, err := c.FetchModel(ctx, url); err == nil {
			t.Fatalf("fetch %d against the failing host succeeded", i)
		}
	}
	if st := c.BreakerState(host); st != BreakerOpen {
		t.Fatalf("breaker after %d failures is %v, want open", 2, st)
	}
	_, err = c.FetchModel(ctx, url)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
	}
	var coe *CircuitOpenError
	if !errors.As(err, &coe) || coe.Host != host {
		t.Fatalf("short-circuit error %v does not name host %s", err, host)
	}
	snap := reg.Snapshot()
	if snap.Counters["exchange.breaker.short_circuits"] != 1 {
		t.Errorf("short_circuits = %d, want 1", snap.Counters["exchange.breaker.short_circuits"])
	}
	if snap.Counters[prefix+"opened"] != 1 || snap.Gauges[prefix+"state"] != int64(BreakerOpen) {
		t.Errorf("transition metrics after open: opened=%d state=%d",
			snap.Counters[prefix+"opened"], snap.Gauges[prefix+"state"])
	}

	// Past the cooldown the probe is admitted; the healed host closes it.
	failing.Store(false)
	clk.Store(int64(2 * time.Minute))
	if _, err := c.FetchModel(ctx, url); err != nil {
		t.Fatalf("probe fetch after cooldown: %v", err)
	}
	if st := c.BreakerState(host); st != BreakerClosed {
		t.Fatalf("breaker after successful probe is %v, want closed", st)
	}
	snap = reg.Snapshot()
	if snap.Counters[prefix+"half_opens"] != 1 || snap.Counters[prefix+"closed"] != 1 {
		t.Errorf("recovery metrics: half_opens=%d closed=%d, want 1 each",
			snap.Counters[prefix+"half_opens"], snap.Counters[prefix+"closed"])
	}
	if snap.Gauges[prefix+"state"] != int64(BreakerClosed) {
		t.Errorf("state gauge = %d, want closed", snap.Gauges[prefix+"state"])
	}
}

// TestReplicaFailoverAcrossDeadReplica places a dead replica first in the
// rotation: the fetch must fail over to the live one without exhausting the
// caller, and count the failover.
func TestReplicaFailoverAcrossDeadReplica(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "SRep")))
	if err != nil {
		t.Fatal(err)
	}
	up := httptest.NewServer(srv)
	defer up.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	reg := obs.NewRegistry()
	c := NewClient(WithMetrics(reg), WithRetryPolicy(quickPolicy()),
		WithReplicas("http://fleet.invalid", deadURL, up.URL))
	m, err := c.FetchModel(context.Background(), "http://fleet.invalid/v1/models/SRep")
	if err != nil {
		t.Fatalf("fetch across the replica group: %v", err)
	}
	if m.Schema != "SRep" {
		t.Fatalf("fetched schema %q, want SRep", m.Schema)
	}
	snap := reg.Snapshot()
	if snap.Counters["exchange.failovers"] < 1 {
		t.Errorf("exchange.failovers = %d, want ≥ 1", snap.Counters["exchange.failovers"])
	}
}

// TestHedgedGetBeatsStalledPrimary stalls the primary replica well past the
// hedge delay: the backup's answer must win the race and be counted.
func TestHedgedGetBeatsStalledPrimary(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "SHdg")))
	if err != nil {
		t.Fatal(err)
	}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		srv.ServeHTTP(w, r)
	}))
	defer slow.Close()
	fast := httptest.NewServer(srv)
	defer fast.Close()

	reg := obs.NewRegistry()
	c := NewClient(WithMetrics(reg),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Timeout: 2 * time.Second}),
		WithReplicas("http://fleet.invalid", slow.URL, fast.URL),
		WithHedge(HedgePolicy{Delay: 10 * time.Millisecond}))
	m, err := c.FetchModel(context.Background(), "http://fleet.invalid/v1/models/SHdg")
	if err != nil {
		t.Fatalf("hedged fetch: %v", err)
	}
	if m.Schema != "SHdg" {
		t.Fatalf("fetched schema %q, want SHdg", m.Schema)
	}
	snap := reg.Snapshot()
	if snap.Counters["exchange.hedges"] < 1 {
		t.Errorf("exchange.hedges = %d, want ≥ 1", snap.Counters["exchange.hedges"])
	}
	if snap.Counters["exchange.hedge_wins"] < 1 {
		t.Errorf("exchange.hedge_wins = %d, want ≥ 1 (the backup beat the stall)", snap.Counters["exchange.hedge_wins"])
	}
}

// TestDeadlineHeaderAdvertisesBudget asserts the client splits the caller's
// remaining deadline across the attempts it may still make and advertises
// each attempt's slice in the deadline header.
func TestDeadlineHeaderAdvertisesBudget(t *testing.T) {
	var header atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header.Store(r.Header.Get(DeadlineHeader))
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	c := NewClient(WithRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Timeout: time.Second}))
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, _, err := c.get(ctx, ts.URL, ""); err != nil {
		t.Fatalf("get: %v", err)
	}
	got, _ := header.Load().(string)
	ms, err := strconv.Atoi(got)
	if err != nil {
		t.Fatalf("deadline header %q is not an integer millisecond count", got)
	}
	// 100 ms budget over 2 attempts: the first attempt's share is ~50 ms.
	if ms <= 0 || ms > 60 {
		t.Errorf("advertised budget %d ms, want ~50 (≤ 60)", ms)
	}
}

// rawAssess fires one raw POST /v1/assess without the client retry loop,
// returning status and body (safe to call from helper goroutines).
func rawAssess(base, tenant string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/assess", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// TestDrainCancelsCoalescedWaitersAndRestartReproduces is the
// restart-while-in-flight scenario end to end: a stalled assess flight with
// a coalesced waiter is force-cancelled by Drain — both callers get the
// typed draining error instead of hanging — and a fresh server over the
// same registry directory answers the identical request bit-identically to
// the pre-drain baseline.
func TestDrainCancelsCoalescedWaitersAndRestartReproduces(t *testing.T) {
	leakcheck.Guard(t)
	dir := t.TempDir()
	reg := obs.NewRegistry()
	srv, err := NewServer(WithServerMetrics(reg), WithRegistryDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx := context.Background()
	client := NewClient(WithRetryPolicy(quickPolicy()))
	for _, name := range []string{"SA", "SB", "SC"} {
		if _, err := client.Upload(ctx, ts.URL, DefaultTenant, serviceModel(t, name, 1.0+float64(len(name)))); err != nil {
			t.Fatalf("upload %s: %v", name, err)
		}
	}
	req := &AssessRequest{
		Schema:     "SA",
		IDs:        []string{"a", "b"},
		Signatures: [][]float64{{1, 0.1, 0, 0.5}, {0.2, 1, 0.1, 0.25}},
	}
	body := marshalAssess(t, req)

	code, baseline, err := rawAssess(ts.URL, DefaultTenant, body)
	if err != nil || code != http.StatusOK {
		t.Fatalf("baseline assess: code=%d err=%v", code, err)
	}

	// Stall the next computation so a waiter can coalesce onto the flight.
	srv.SetFaultInjector(faultinject.New(1, faultinject.Fault{
		Site: "exchange.service.assess", Kind: faultinject.KindDelay, Rate: 1, Delay: 400 * time.Millisecond,
	}))
	type outcome struct {
		code int
		body []byte
		err  error
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // flight leader
		defer wg.Done()
		results[0].code, results[0].body, results[0].err = rawAssess(ts.URL, DefaultTenant, body)
	}()
	waitInflight(t, reg, 1)
	wg.Add(1)
	go func() { // coalesced waiter
		defer wg.Done()
		results[1].code, results[1].body, results[1].err = rawAssess(ts.URL, DefaultTenant, body)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters["service.coalesced"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never coalesced onto the stalled flight")
		}
		time.Sleep(time.Millisecond)
	}

	// Drain with a budget far below the stall: the flight must be
	// force-cancelled and Drain must report the forced exit.
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(dctx); err == nil {
		t.Error("Drain returned nil, want the forced-cancel error")
	}
	if !srv.Draining() {
		t.Error("server does not report draining after Drain")
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("caller %d transport error: %v", i, r.err)
		}
		if r.code != http.StatusServiceUnavailable {
			t.Errorf("caller %d got status %d, want 503", i, r.code)
		}
		if env := decodeEnvelope(t, r.body); env.Error.Code != CodeDraining {
			t.Errorf("caller %d got code %q, want %q", i, env.Error.Code, CodeDraining)
		}
	}
	if got := reg.Snapshot().Counters["server.drain_forced"]; got != 1 {
		t.Errorf("server.drain_forced = %d, want 1", got)
	}

	// A fresh server over the same registry directory must reproduce the
	// baseline verdicts bit-for-bit — no re-upload, no drift.
	srv2, err := NewServer(WithRegistryDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	code2, replay, err := rawAssess(ts2.URL, DefaultTenant, body)
	if err != nil || code2 != http.StatusOK {
		t.Fatalf("assess on restarted server: code=%d err=%v", code2, err)
	}
	var want, got AssessResponse
	if err := json.Unmarshal(baseline, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(replay, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Verdicts, got.Verdicts) || !reflect.DeepEqual(want.Used, got.Used) {
		t.Errorf("restarted server deviated from the baseline:\n%+v\nvs\n%+v", want, got)
	}
}
