package encoder

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"collabscope/internal/exchange"
)

func backoffRemote(t *testing.T, opts ...RemoteOption) *Remote {
	t.Helper()
	r, err := NewRemote("http://example.invalid", append([]RemoteOption{
		WithDim(8),
		WithRetryPolicy(exchange.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   100 * time.Millisecond,
			MaxDelay:    2 * time.Second,
			Timeout:     time.Second,
		}),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBackoffSchedule pins the jittered-doubling schedule: each delay is
// within [base·2^(k−1)/2, base·2^(k−1)] capped at MaxDelay, and a seeded
// jitter source makes the whole schedule reproducible.
func TestBackoffSchedule(t *testing.T) {
	r := backoffRemote(t, WithJitterRand(rand.New(rand.NewPCG(1, 2))))
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := r.backoff(attempt, errors.New("boom"))
		want := 100 * time.Millisecond << (attempt - 1)
		if want > 2*time.Second {
			want = 2 * time.Second
		}
		if d < want/2 || d > want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want/2, want)
		}
		if want == 2*time.Second && prevCap != 0 && d < want/2 {
			t.Fatalf("capped delay fell below half the cap: %v", d)
		}
		prevCap = want
	}

	// Same seed, same schedule.
	a := backoffRemote(t, WithJitterRand(rand.New(rand.NewPCG(7, 7))))
	b := backoffRemote(t, WithJitterRand(rand.New(rand.NewPCG(7, 7))))
	for attempt := 1; attempt <= 5; attempt++ {
		if da, db := a.backoff(attempt, nil), b.backoff(attempt, nil); da != db {
			t.Fatalf("seeded schedules diverged at attempt %d: %v vs %v", attempt, da, db)
		}
	}
}

// TestBackoffHonoursRetryAfter pins the Retry-After floor: server advice
// lifts a small jittered delay, and is itself capped at MaxDelay.
func TestBackoffHonoursRetryAfter(t *testing.T) {
	r := backoffRemote(t, WithJitterRand(rand.New(rand.NewPCG(1, 1))))
	err := &encodeStatusError{code: 429, retryAfter: time.Second}
	if d := r.backoff(1, err); d < time.Second {
		t.Fatalf("Retry-After floor ignored: %v < 1s", d)
	}
	// Advice beyond MaxDelay is capped.
	err = &encodeStatusError{code: 429, retryAfter: time.Minute}
	if d := r.backoff(1, err); d != 2*time.Second {
		t.Fatalf("Retry-After cap: %v, want MaxDelay 2s", d)
	}
}

// retryAfterStub answers every request 503 with the Retry-After value
// returned by advice (no header when it is empty).
func retryAfterStub(t *testing.T, advice func() string) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if v := advice(); v != "" {
			w.Header().Set("Retry-After", v)
		}
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRemoteRetryAfterForms runs both RFC 9110 Retry-After forms and the
// fallbacks through a real 503 answer: the backend reads the header with
// exchange.ParseRetryAfter, the exchange client's parser, so the forms
// mirror exchange's TestParseRetryAfterForms.
func TestRemoteRetryAfterForms(t *testing.T) {
	now := time.Now()
	cases := []struct {
		name, in string
		min, max time.Duration
	}{
		{"delay-seconds", "3", 3 * time.Second, 3 * time.Second},
		{"padded delay-seconds", " 10 ", 10 * time.Second, 10 * time.Second},
		// HTTP-dates have one-second resolution and the clock moves on.
		{"future HTTP-date", now.Add(10 * time.Second).UTC().Format(http.TimeFormat), 8 * time.Second, 10 * time.Second},
		{"past HTTP-date", now.Add(-time.Hour).UTC().Format(http.TimeFormat), 0, 0},
		{"negative seconds", "-1", 0, 0},
		{"empty", "", 0, 0},
		{"garbage", "nope", 0, 0},
		{"truncated HTTP-date", "Wed, 21 Oct 2015 07:28 G", 0, 0},
	}
	var current atomic.Value
	url := retryAfterStub(t, func() string { return current.Load().(string) })
	r, err := NewRemote(url, WithDim(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		current.Store(c.in)
		_, err := r.once([]byte("{}"), 1)
		var se *encodeStatusError
		if !errors.As(err, &se) || se.code != http.StatusServiceUnavailable {
			t.Fatalf("%s: err = %v, want a 503 status error", c.name, err)
		}
		if se.retryAfter < c.min || se.retryAfter > c.max {
			t.Errorf("%s (%q): Retry-After read as %v, want in [%v, %v]", c.name, c.in, se.retryAfter, c.min, c.max)
		}
	}
}

// TestRemoteHTTPDateRetryAfterRaisesBackoff pins that a 503 advising an
// HTTP-date floors the next retry at that date rather than being read as no
// advice, which would retry after the bare jittered delay.
func TestRemoteHTTPDateRetryAfterRaisesBackoff(t *testing.T) {
	date := time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat)
	r, err := NewRemote(retryAfterStub(t, func() string { return date }), WithDim(8),
		WithJitterRand(rand.New(rand.NewPCG(3, 3))),
		WithRetryPolicy(exchange.RetryPolicy{
			MaxAttempts: 2,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    10 * time.Second,
			Timeout:     time.Second,
		}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.once([]byte("{}"), 1)
	if err == nil {
		t.Fatal("stub answered 2xx")
	}
	if d := r.backoff(1, err); d < 3*time.Second {
		t.Fatalf("backoff after an HTTP-date Retry-After = %v, want the ~5s advice as its floor", d)
	}
	if d := r.backoff(1, &encodeStatusError{code: http.StatusServiceUnavailable}); d > 10*time.Millisecond {
		t.Fatalf("backoff without advice = %v, want at most BaseDelay", d)
	}
}

func TestRetryableEncodeClassification(t *testing.T) {
	if retryableEncode(&encodeStatusError{code: 400}) {
		t.Fatal("400 must not retry")
	}
	if !retryableEncode(&encodeStatusError{code: 503}) || !retryableEncode(&encodeStatusError{code: 429}) {
		t.Fatal("503/429 must retry")
	}
	if !retryableEncode(context.DeadlineExceeded) {
		t.Fatal("deadline must retry")
	}
	if retryableEncode(errors.New("parse failure")) {
		t.Fatal("plain errors must not retry")
	}
}

// TestEncodeStatusErrorMessage pins both Error() forms (with and without
// a body excerpt).
func TestEncodeStatusErrorMessage(t *testing.T) {
	if got := (&encodeStatusError{code: 500}).Error(); got != "http status 500" {
		t.Fatalf("bare form: %q", got)
	}
	if got := (&encodeStatusError{code: 500, body: " boom \n"}).Error(); got != "http status 500: boom" {
		t.Fatalf("body form: %q", got)
	}
}
