package collabscope

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"collabscope/internal/leakcheck"
	"collabscope/internal/obs"
)

// TestWithMetricsEndToEnd: a fully instrumented pipeline run must leave
// spans for every stage, worker-pool instruments, and identical results to
// an uninstrumented run.
func TestWithMetricsEndToEnd(t *testing.T) {
	leakcheck.Guard(t)
	m := NewMetrics()
	var trace bytes.Buffer
	pipe := New(WithDimension(192), WithMetrics(m), WithTraceLog(&trace))
	res, err := pipe.CollaborativeScopeContext(context.Background(), figure1Schemas(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pipelineForTest().CollaborativeScopeContext(context.Background(), figure1Schemas(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != plain.Kept || res.Pruned != plain.Pruned {
		t.Fatalf("instrumented run diverged: kept %d/%d pruned %d/%d",
			res.Kept, plain.Kept, res.Pruned, plain.Pruned)
	}

	snap := m.Snapshot()
	for _, span := range []string{"span.pipeline.scope", "span.core.fit", "span.core.scope", "span.embed.encode"} {
		h, ok := snap.Histograms[span]
		if !ok || h.Count == 0 {
			t.Errorf("missing span histogram %q in snapshot", span)
		}
	}
	if snap.Counters["parallel.items"] == 0 {
		t.Error("worker pool recorded no items")
	}
	if h := snap.Histograms["parallel.task"]; h.Count == 0 {
		t.Error("worker pool recorded no task latencies")
	}
	for _, want := range []string{`"span":"pipeline.scope"`, `"span":"embed.encode"`, `"elements":`} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("trace log missing %s", want)
		}
	}
}

// TestMetricsDeterministicAcrossWorkerCounts: instrumentation must not
// perturb results at any parallelism level, and the per-item counters must
// agree across worker counts.
func TestMetricsDeterministicAcrossWorkerCounts(t *testing.T) {
	leakcheck.Guard(t)
	base, err := pipelineForTest().CollaborativeScopeContext(context.Background(), figure1Schemas(), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	var items []int64
	for _, workers := range []int{1, 2, 8} {
		m := NewMetrics()
		pipe := New(WithDimension(192), WithParallelism(workers), WithMetrics(m))
		res, err := pipe.CollaborativeScopeContext(context.Background(), figure1Schemas(), 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kept != base.Kept || res.Pruned != base.Pruned {
			t.Fatalf("workers=%d diverged: kept %d want %d", workers, res.Kept, base.Kept)
		}
		items = append(items, m.Snapshot().Counters["parallel.items"])
	}
	if items[0] != items[1] || items[1] != items[2] {
		t.Fatalf("parallel.items varies with worker count: %v", items)
	}
}

// TestMetricsSnapshotJSONRoundTripPublic: the public snapshot read/write
// facade round-trips.
func TestMetricsSnapshotJSONRoundTripPublic(t *testing.T) {
	m := NewMetrics()
	pipe := New(WithDimension(192), WithMetrics(m))
	if _, err := pipe.TrainModelContext(context.Background(), figure1Schemas()[0], 0.8); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadMetricsSnapshotJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Histograms["span.pipeline.train"].Count != 1 {
		t.Fatalf("round-tripped snapshot lost span.pipeline.train: %+v", snap.Histograms)
	}
}

// TestDisabledMetricsZeroAlloc pins the zero-cost contract at the public
// API layer: a pipeline without WithMetrics must not allocate anything for
// instrumentation on its hot context path.
func TestDisabledMetricsZeroAlloc(t *testing.T) {
	pipe := pipelineForTest()
	if pipe.Metrics() != nil {
		t.Fatal("uninstrumented pipeline should report nil metrics")
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(200, func() {
		if got := pipe.obsContext(ctx); got != ctx {
			t.Fatal("obsContext must return the context unchanged when disabled")
		}
	}); allocs != 0 {
		t.Fatalf("disabled obsContext allocates %.1f per call, want 0", allocs)
	}
}

// TestMatchAllSpan: Pipeline.MatchContext traces the all-pairs match as
// one match.all span nested directly under pipeline.match, annotated with
// the schema-pair count and the number of pairs returned.
func TestMatchAllSpan(t *testing.T) {
	var trace bytes.Buffer
	ctx := obs.NewContext(context.Background(), nil, obs.NewTraceLog(&trace))
	schemas := figure1Schemas()
	pairs, err := pipelineForTest().MatchContext(ctx, NewLSHMatcher(2), schemas)
	if err != nil {
		t.Fatal(err)
	}
	var parent, spans []map[string]int64
	sc := bufio.NewScanner(&trace)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		fields := map[string]int64{}
		for k, v := range ev {
			if f, ok := v.(float64); ok {
				fields[k] = int64(f)
			}
		}
		switch ev["span"] {
		case "pipeline.match":
			parent = append(parent, fields)
		case "match.all":
			spans = append(spans, fields)
		}
	}
	if len(parent) != 1 || len(spans) != 1 {
		t.Fatalf("%d pipeline.match and %d match.all events, want 1 each:\n%s", len(parent), len(spans), trace.String())
	}
	sp := spans[0]
	if sp["depth"] != parent[0]["depth"]+1 {
		t.Errorf("match.all depth %d, want %d (below pipeline.match)", sp["depth"], parent[0]["depth"]+1)
	}
	if sp["pairs"] != int64(len(pairs)) || len(pairs) == 0 {
		t.Errorf("match.all pairs = %d, result has %d", sp["pairs"], len(pairs))
	}
	if want := int64(len(schemas) * (len(schemas) - 1) / 2); sp["schema_pairs"] != want {
		t.Errorf("match.all schema_pairs = %d, want %d", sp["schema_pairs"], want)
	}
}
