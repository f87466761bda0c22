// Package obs is the repository's stdlib-only instrumentation layer:
// atomic counters and gauges, fixed-bucket latency histograms, and
// lightweight spans that propagate through context.Context and nest across
// goroutines (see span.go). Every pipeline stage, the worker pool, and the
// model-exchange client/server report into it, and the scoping service
// serves its snapshots at /v1/metrics.
//
// The cardinal design rule is that instrumentation must be zero-cost when
// disabled. Every instrument is nil-safe — methods on a nil *Registry,
// *Counter, *Gauge, or *Histogram, and End/Annotate on a nil *Span, are
// no-ops that allocate nothing — so instrumented code needs no conditionals
// beyond the nil receiver check the method itself performs. Tests pin the
// disabled path to 0 allocs/op with testing.AllocsPerRun.
//
// A second rule keeps timing honest: time.Now lives in THIS package only.
// Hot-loop code takes timestamps through Registry.Clock / Histogram
// stopwatches, which collapse to no-ops when instrumentation is off;
// cmd/lintobs enforces the rule mechanically over the hot-path packages.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. A nil Counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (negative deltas are ignored; counters only go up).
func (c *Counter) Add(d int64) {
	if c != nil && d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, worker count). A nil
// Gauge is a valid no-op instrument.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the value by d (either sign).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of fixed latency buckets. Bucket i counts
// observations with ceil(d/µs) in [2^(i-1), 2^i); the last bucket absorbs
// everything slower (≥ ~67 s). Fixed buckets keep Observe lock-free and
// allocation-free.
const histBuckets = 27

// Histogram is a fixed-bucket latency histogram with exponential
// microsecond buckets plus exact count/sum/min/max. A nil Histogram is a
// valid no-op instrument.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	minNS   atomic.Int64 // valid only when count > 0
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	us := uint64((d + time.Microsecond - 1) / time.Microsecond) // ceil to µs
	i := bits.Len64(us)                                         // 0 for 0µs, 1 for 1µs, …
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper returns the exclusive upper bound of bucket i in nanoseconds
// (MaxInt64 for the overflow bucket).
func bucketUpper(i int) int64 {
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(time.Microsecond) << i
}

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := int64(d)
	if h.count.Add(1) == 1 {
		// First observation seeds min; racing observers converge through the
		// CAS loops below.
		h.minNS.Store(ns)
	}
	h.sumNS.Add(ns)
	for {
		cur := h.minNS.Load()
		if ns >= cur || h.minNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketIndex(d)].Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns an upper-bound estimate of the live q-quantile
// (q ∈ [0, 1]) in nanoseconds, reading the atomic buckets directly — cheap
// enough for per-request decisions (hedge delays, deadline shedding)
// without taking a full registry snapshot. 0 on nil or empty histograms.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	maxNS := h.maxNS.Load()
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if upper := bucketUpper(i); upper < maxNS {
				return upper
			}
			return maxNS
		}
	}
	return maxNS
}

// Stopwatch is a started timer bound to the wall clock. The zero value is a
// disabled stopwatch: Elapsed returns 0 and observations are dropped, so
// callers on the disabled path pay a single bool check and no time.Now.
type Stopwatch struct {
	start   time.Time
	running bool
}

// NewStopwatch returns a running stopwatch unconditionally — for callers
// that always want wall time (benchmark harnesses), keeping time.Now inside
// this package.
func NewStopwatch() Stopwatch {
	return Stopwatch{start: time.Now(), running: true}
}

// Elapsed returns the time since the stopwatch started (0 if disabled).
func (s Stopwatch) Elapsed() time.Duration {
	if !s.running {
		return 0
	}
	return time.Since(s.start)
}

// ObserveSince records the elapsed time into the histogram and returns it.
// Disabled stopwatches and nil histograms drop the observation.
func (h *Histogram) ObserveSince(s Stopwatch) time.Duration {
	if !s.running {
		return 0
	}
	d := time.Since(s.start)
	h.Observe(d)
	return d
}

// Until returns the duration from now until t (negative when t is past).
// It exists so deadline arithmetic — Retry-After HTTP-dates, deadline-budget
// headers — can stay outside this package without calling time.Now.
func Until(t time.Time) time.Duration {
	return time.Until(t)
}

// Remaining reports the time left until ctx's deadline (ok=false when the
// context carries no deadline). A negative remainder means the deadline has
// already passed.
func Remaining(ctx context.Context) (time.Duration, bool) {
	d, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return time.Until(d), true
}

// Registry is a process-local set of named instruments. Instruments are
// created on first use and live for the registry's lifetime; lookups are
// read-locked, creation write-locked. A nil *Registry is the disabled
// registry: every accessor returns a nil (no-op) instrument and Clock
// returns a disabled stopwatch.
type Registry struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	histogram map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		histogram: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.histogram[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histogram[name]; !ok {
		h = &Histogram{}
		r.histogram[name] = h
	}
	return h
}

// Clock returns a running stopwatch when the registry is live, and the
// disabled zero stopwatch when the registry is nil — the single branch
// instrumented hot loops pay on the disabled path.
func (r *Registry) Clock() Stopwatch {
	if r == nil {
		return Stopwatch{}
	}
	return NewStopwatch()
}

// ---------------------------------------------------------------------------
// Snapshots.

// HistogramSnapshot is the serialisable state of one histogram. Durations
// are nanoseconds.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MinNS int64 `json:"min_ns"`
	MaxNS int64 `json:"max_ns"`
	// Buckets lists the non-empty buckets as {upper bound (exclusive, ns),
	// observation count} pairs, in ascending bound order.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	UpperNS int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// MeanNS returns the mean observation in nanoseconds.
func (h HistogramSnapshot) MeanNS() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.SumNS / h.Count
}

// Quantile returns an upper-bound estimate of the q-quantile (q ∈ [0, 1])
// in nanoseconds: the upper bound of the bucket holding the q·Count-th
// observation, clamped to the exact max.
func (h HistogramSnapshot) Quantile(q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b.Count
		if seen >= rank {
			if b.UpperNS > h.MaxNS {
				return h.MaxNS
			}
			return b.UpperNS
		}
	}
	return h.MaxNS
}

// Snapshot is a consistent-enough point-in-time copy of a registry: each
// instrument is read atomically, though instruments updated concurrently
// with the snapshot may straddle it.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state (empty snapshot on nil).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.histogram {
		hs := HistogramSnapshot{
			Count: h.count.Load(),
			SumNS: h.sumNS.Load(),
			MaxNS: h.maxNS.Load(),
		}
		if hs.Count > 0 {
			hs.MinNS = h.minNS.Load()
		}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, BucketCount{UpperNS: bucketUpper(i), Count: n})
			}
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// WriteJSON serialises the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshotJSON decodes a snapshot written by WriteJSON.
func ReadSnapshotJSON(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return s, nil
}

// Fprint pretty-prints the snapshot: counters and gauges as name/value
// lines, histograms as count/mean/min/p50/p95/max rows, all sorted by name.
func (s Snapshot) Fprint(w io.Writer) {
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-46s %12d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-46s %12d\n", name, s.Gauges[name])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		fmt.Fprintf(w, "  %-46s %8s %10s %10s %10s %10s %10s\n",
			"name", "count", "mean", "min", "p50", "p95", "max")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(w, "  %-46s %8d %10s %10s %10s %10s %10s\n",
				name, h.Count,
				fmtNS(h.MeanNS()), fmtNS(h.MinNS),
				fmtNS(h.Quantile(0.50)), fmtNS(h.Quantile(0.95)), fmtNS(h.MaxNS))
		}
	}
}

// fmtNS renders nanoseconds as a compact human duration.
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
