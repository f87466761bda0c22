package encoder

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"collabscope/internal/embed"
	"collabscope/internal/exchange"
	"collabscope/internal/faultinject"
	"collabscope/internal/leakcheck"
	"collabscope/internal/obs"
)

// retryGap encodes one text against a server that answers the first
// request 503 with the given Retry-After value (no header when empty) and
// serves the second through the hash-encoder stub, and returns the gap
// between the two requests' arrivals.
func retryGap(t *testing.T, advice string, maxDelay time.Duration) time.Duration {
	t.Helper()
	stub := NewStubServer(embed.NewHashEncoder(embed.WithDim(testDim)))
	var (
		mu       sync.Mutex
		arrivals []time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		first := len(arrivals) == 1
		mu.Unlock()
		if !first {
			stub.ServeHTTP(w, r)
			return
		}
		if advice != "" {
			w.Header().Set("Retry-After", advice)
		}
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	remote, err := NewRemote(srv.URL, WithDim(testDim), WithRetryPolicy(exchange.RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: maxDelay, Timeout: 5 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.EncodeBatch(context.Background(), []string{"a"}); err != nil {
		t.Fatalf("Retry-After %q: %v", advice, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != 2 {
		t.Fatalf("Retry-After %q: %d requests, want 2", advice, len(arrivals))
	}
	return arrivals[1].Sub(arrivals[0])
}

// TestBackoffSchedule pins the jittered-doubling schedule end to end:
// against a server that always answers 503, the gap before retry k is at
// least the seeded draw from [d/2, d], d = BaseDelay·2^(k−1) capped at
// MaxDelay. A twin generator on the same seed predicts every draw and ends
// where the injected one does, and the whole schedule stays far below what
// an uncapped doubling would take.
func TestBackoffSchedule(t *testing.T) {
	policy := exchange.RetryPolicy{
		MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Timeout: 5 * time.Second,
	}
	var (
		mu       sync.Mutex
		arrivals []time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		arrivals = append(arrivals, time.Now())
		mu.Unlock()
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	jitter := rand.New(rand.NewPCG(1, 2))
	remote, err := NewRemote(srv.URL, WithDim(testDim), WithRetryPolicy(policy), WithJitterRand(jitter))
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.EncodeBatch(context.Background(), []string{"a"})
	if err == nil || !strings.Contains(err.Error(), "after 10 attempts") {
		t.Fatalf("err = %v, want a failure after 10 attempts", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) != policy.MaxAttempts {
		t.Fatalf("%d requests, want %d", len(arrivals), policy.MaxAttempts)
	}
	twin := rand.New(rand.NewPCG(1, 2))
	var seeded time.Duration
	for k := 1; k < len(arrivals); k++ {
		d := policy.BaseDelay << (k - 1)
		if d > policy.MaxDelay {
			d = policy.MaxDelay
		}
		half := d / 2
		want := half + time.Duration(twin.Int64N(int64(d-half+1)))
		if gap := arrivals[k].Sub(arrivals[k-1]); gap < want {
			t.Errorf("retry %d: gap %v shorter than the seeded delay %v drawn from [%v, %v]", k, gap, want, half, d)
		}
		seeded += want
	}
	// Uncapped, the nine delays would sum to at least 2.5 s.
	if total := arrivals[len(arrivals)-1].Sub(arrivals[0]); total > seeded+time.Second {
		t.Errorf("schedule took %v, want about the seeded %v: MaxDelay cap ignored", total, seeded)
	}
	if jitter.Uint64() != twin.Uint64() {
		t.Error("the retry loop drew from the seeded jitter source differently from the predicted schedule")
	}
}

// TestRetryableEncodeClassification pins which first-attempt failures the
// encoder retries, end to end through EncodeBatch: 5xx, 429, a dropped
// connection and an attempt timeout are retried and the batch succeeds on
// the second request; other 4xx answers fail after one request, and so
// does a malformed 200 body, which is validated outside the retry loop.
// The classification is the model exchange's.
func TestRetryableEncodeClassification(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) { http.Error(w, "nope", code) }
	}
	cases := []struct {
		name  string
		first http.HandlerFunc
		retry bool
	}{
		{"400", status(http.StatusBadRequest), false},
		{"404", status(http.StatusNotFound), false},
		{"429", status(http.StatusTooManyRequests), true},
		{"500", status(http.StatusInternalServerError), true},
		{"503", status(http.StatusServiceUnavailable), true},
		{"dropped connection", func(w http.ResponseWriter, _ *http.Request) {
			conn, _, err := http.NewResponseController(w).Hijack()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			conn.Close()
		}, true},
		{"attempt timeout", func(w http.ResponseWriter, r *http.Request) {
			// The server only notices the client hanging up once the
			// body is consumed.
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		}, true},
		{"malformed body", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte("not json"))
		}, false},
	}
	want := [][]float64{embed.NewHashEncoder(embed.WithDim(testDim)).Encode("a")}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			stub := NewStubServer(embed.NewHashEncoder(embed.WithDim(testDim)))
			var calls atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if calls.Add(1) == 1 {
					c.first(w, r)
					return
				}
				stub.ServeHTTP(w, r)
			}))
			t.Cleanup(srv.Close)
			remote, err := NewRemote(srv.URL, WithDim(testDim), WithRetryPolicy(exchange.RetryPolicy{
				MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Timeout: 300 * time.Millisecond,
			}))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := remote.EncodeBatch(context.Background(), []string{"a"})
			if !c.retry {
				if err == nil {
					t.Fatal("encoded successfully, want the first failure to stand")
				}
				if got := calls.Load(); got != 1 {
					t.Fatalf("%d requests, want 1 (no retry): %v", got, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("not retried: %v", err)
			}
			sameRows(t, want, rows)
			if got := calls.Load(); got != 2 {
				t.Fatalf("%d requests, want 2 (one retry)", got)
			}
		})
	}
}

// TestRemoteRetryAfterForms runs both RFC 9110 Retry-After forms and the
// fallbacks end to end: the first answer is a 503 carrying the header, and
// the gap before the retry shows how the backend read it. The retry loop
// is the exchange client's, so the forms mirror exchange's
// TestParseRetryAfterForms.
func TestRemoteRetryAfterForms(t *testing.T) {
	now := time.Now()
	// BaseDelay is 1 ms: a retry within a second took no advice.
	const noAdvice = time.Second
	cases := []struct {
		name, in string
		min, max time.Duration
	}{
		{"delay-seconds", "1", time.Second, 3 * time.Second},
		{"padded delay-seconds", " 1 ", time.Second, 3 * time.Second},
		// HTTP-dates have one-second resolution and the clock moves on.
		{"future HTTP-date", now.Add(3 * time.Second).UTC().Format(http.TimeFormat), time.Second, 5 * time.Second},
		{"past HTTP-date", now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, noAdvice},
		{"negative seconds", "-1", 0, noAdvice},
		{"empty", "", 0, noAdvice},
		{"garbage", "nope", 0, noAdvice},
		{"truncated HTTP-date", "Wed, 21 Oct 2015 07:28 G", 0, noAdvice},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if gap := retryGap(t, c.in, 10*time.Second); gap < c.min || gap > c.max {
				t.Errorf("Retry-After %q: retried after %v, want within [%v, %v]", c.in, gap, c.min, c.max)
			}
		})
	}
}

// TestRemoteHTTPDateRetryAfterRaisesBackoff pins the Retry-After floor and
// its cap end to end: a 503 advising an HTTP-date an hour ahead lifts the
// retry gap from the 1 ms base delay to MaxDelay, and no further.
func TestRemoteHTTPDateRetryAfterRaisesBackoff(t *testing.T) {
	const maxDelay = 500 * time.Millisecond
	date := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	if gap := retryGap(t, date, maxDelay); gap < maxDelay || gap > maxDelay+2*time.Second {
		t.Fatalf("retried %v after an HTTP-date an hour ahead, want MaxDelay %v", gap, maxDelay)
	}
}

// TestChaosEncoderInjectedRequestFaultRetried pins that the encoder shares
// the model exchange's retry classification: an injected error at
// encoder.client.request on the first attempt costs exactly one retry and
// the batch succeeds, counted as one request (encoder.requests counts
// batches, not attempts); with every attempt failing, the error wraps
// faultinject.ErrInjected and reports the attempt count.
func TestChaosEncoderInjectedRequestFaultRetried(t *testing.T) {
	leakcheck.Guard(t)
	policy := WithRetryPolicy(exchange.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Timeout: time.Second,
	})
	reg := obs.NewRegistry()
	stub, remote := newStubPair(t, policy, WithMetrics(reg), WithFaultInjector(faultinject.New(1, faultinject.Fault{
		Site: "encoder.client.request", Kind: faultinject.KindError, At: []uint64{0},
	})))
	rows, err := remote.EncodeBatch(context.Background(), []string{"a"})
	if err != nil {
		t.Fatalf("first-attempt fault was not retried: %v", err)
	}
	sameRows(t, [][]float64{embed.NewHashEncoder(embed.WithDim(testDim)).Encode("a")}, rows)
	counters := reg.Snapshot().Counters
	if got := counters["encoder.retries"]; got != 1 {
		t.Errorf("encoder.retries = %d, want 1", got)
	}
	if got := counters["encoder.requests"]; got != 1 {
		t.Errorf("encoder.requests = %d, want 1 (one batch, two attempts)", got)
	}
	if got := stub.Requests(); got != 1 {
		t.Errorf("stub served %d requests, want 1", got)
	}

	_, failing := newStubPair(t, policy, WithFaultInjector(faultinject.New(1, faultinject.Fault{
		Site: "encoder.client.request", Kind: faultinject.KindError, Rate: 1,
	})))
	_, err = failing.EncodeBatch(context.Background(), []string{"a"})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want wrapped ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err %q does not report the attempt count", err)
	}
}
