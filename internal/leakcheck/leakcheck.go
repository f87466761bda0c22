// Package leakcheck is a stdlib-only goroutine-leak guard for tests: it
// snapshots the goroutine count when a test starts and fails the test if,
// after a settle period, the count has not come back down. It catches the
// classic concurrency regressions this repository's invariants forbid —
// worker-pool goroutines outliving ForEach, HTTP exchange rounds leaking
// retry or transport goroutines after cancellation.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

// settleTimeout bounds how long the guard waits for stragglers (runtime
// finalizers, http keep-alive teardown) to exit before declaring a leak.
const settleTimeout = 2 * time.Second

// Guard installs the leak check on t. Call it first thing in a test; the
// verification runs in t.Cleanup, after the test body and its own cleanups
// finished. Tests using Guard must not call t.Parallel — a sibling test
// running concurrently would shift the process-wide goroutine count.
func Guard(t testing.TB) { // lintobs:allow tests in seven packages check for leaked goroutines through it
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		now := settle(before)
		if now > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("leakcheck: %d goroutines before the test, %d after settling %v\n%s",
				before, now, settleTimeout, buf)
		}
	})
}

// settle polls the goroutine count until it is back at or below the
// baseline or the settle timeout elapses, returning the final count.
func settle(baseline int) int {
	deadline := time.Now().Add(settleTimeout) // lintobs:allow test-support deadline, not a latency measurement
	for {
		now := runtime.NumGoroutine()
		if now <= baseline || time.Now().After(deadline) { // lintobs:allow test-support deadline

			return now
		}
		time.Sleep(5 * time.Millisecond)
	}
}
