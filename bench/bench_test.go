package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// runToy runs one workload at toy size and returns its parsed result line.
func runToy(t *testing.T, name string, traced bool) output {
	t.Helper()
	o := options{seed: 2, seconds: 600 * time.Millisecond, size: toySize, tmpdir: t.TempDir()}
	decls := endToEnd
	if traced {
		o.trace = &tracer{}
		decls = perLayer
	}
	r, err := workloads[name](context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r.set("peak_rss_mb", peakRSSMB())
	var buf bytes.Buffer
	if err := r.write(&buf, decls); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", name, out.Correct, out.Attempted, out.Failed, buf.String())
	}
	for _, d := range decls {
		m, ok := out.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: metric %s missing or unit %q, want %q", name, d.name, m.Unit, d.unit)
		}
	}
	if len(out.Metrics) != len(decls) {
		t.Errorf("%s: %d metrics, declared %d", name, len(out.Metrics), len(decls))
	}
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	// Layer metrics each workload must actually measure in a traced run.
	measured := map[string][]string{
		"scope_batch":  {"embed.self_ms", "core.fit.self_ms", "core.scope.self_ms", "match.self_ms", "match.comparisons"},
		"evolve_churn": {"core.update.ms_p50", "core.delta.ms_p50", "core.delta.reused"},
		"serve_unique": {"exchange.handler_ms_p50", "exchange.decode_ms_p50", "exchange.req_kb"},
		"serve_mixed":  {"exchange.handler_ms_p50", "exchange.delta_reuse_ratio", "exchange.req_kb"},
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			plain := runToy(t, name, false)
			for _, d := range endToEnd {
				if v := plain.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", d.name, v)
				}
			}
			traced := runToy(t, name, true)
			for _, m := range measured[name] {
				if v := traced.Metrics[m].Value; !(v > 0) {
					t.Errorf("layer %s = %v, want > 0", m, v)
				}
			}
		})
	}
}

func TestNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	s := sorted(xs)
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := nearestRank(s, c.q); got != c.want {
			t.Errorf("p%g of 1..100 = %v, want %v", c.q*100, got, c.want)
		}
	}
	if got := nearestRank([]float64{3, 7}, 0.5); got != 3 {
		t.Errorf("p50 of {3,7} = %v, want 3 (nearest rank, not interpolated)", got)
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("p50 of no samples is not NaN")
	}
	// A percentile is reportable only with at least 10 samples above it.
	for _, c := range []struct {
		q    float64
		n    int
		want bool
	}{{0.9, 100, true}, {0.9, 99, false}, {0.95, 200, true}, {0.95, 199, false}, {0.5, 20, true}, {0.5, 19, false}, {0.99, 1000, true}} {
		if got := reportable(c.q, c.n); got != c.want {
			t.Errorf("reportable(p%g, n=%d) = %v, want %v", c.q*100, c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "c", Start: 62, End: 65},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 30, 4: 7, 5: 3} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Shares divide by the summed self time (110 here, as siblings a and b
	// overlap; sequential calls make it the root's duration).
	selfMS, _, share := layerMedians(spans)
	if selfMS["a"] != 27e-6 || share["root"] != 50.0/110 {
		t.Errorf("layer a self = %vms, root share = %v; want 27e-6ms and 50/110", selfMS["a"], share["root"])
	}
}

func TestCorruptDigestCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	d, err := corpus(toySize, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := scopeRun(ctx, nil, 0, toySize.Dim, d)
	if err != nil {
		t.Fatal(err)
	}
	good := scopeDigests{verdictDigest(out.keep), pairDigest(out.pairs)}
	r := newResult()
	verifyScope(r, []scopeDigests{good, good}, good, good)
	if r.failed != 0 {
		t.Fatalf("matching digests counted %d failures", r.failed)
	}
	corrupt := good
	corrupt.verdicts = strings.Repeat("0", 64)
	verifyScope(r, []scopeDigests{good, good}, good, corrupt)
	if r.failed != 2 || r.wrong != 2 {
		t.Errorf("corrupted golden: failed=%d wrong=%d, want 2 and 2", r.failed, r.wrong)
	}

	c, err := newChurn(ctx, toySize, 2)
	if err != nil {
		t.Fatal(err)
	}
	keep, _, err := c.apply(ctx, nil, 0, c.next())
	if err != nil {
		t.Fatal(err)
	}
	r = newResult()
	if err := c.check(ctx, r, keep, strings.Repeat("f", 64), 3); err != nil {
		t.Fatal(err)
	}
	if r.failed != 3 || r.wrong != 3 {
		t.Errorf("corrupted churn golden: failed=%d wrong=%d, want 3 (the window) and 3", r.failed, r.wrong)
	}
}

func TestWrongServeVerdictCountsAsFailure(t *testing.T) {
	ctx := context.Background()
	f, err := newFleet(ctx, toySize, 2, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	l := newLoader(f, false)
	defer l.client.CloseIdleConnections()
	c := call{op: op{kind: opAssess, tmpl: 1, nonce: 42}}
	l.send(ctx, 0, &c)
	ref := map[string]map[string]bool{}
	r := newResult()
	if ok := f.verify(ctx, r, []call{c}, ref); ok != 1 || r.failed != 0 {
		t.Fatalf("true answer: verified %d, failed %d\n%v", ok, r.failed, r.notes)
	}

	// Flip the first verdict of the answer.
	bad := c
	bad.body = flipFirstVerdict(t, c.body)
	shed := c
	shed.status, shed.body = 429, []byte(`{"error":{"code":"overloaded"}}`)
	r = newResult()
	if ok := f.verify(ctx, r, []call{bad, shed}, ref); ok != 0 || r.failed != 2 || r.wrong != 1 {
		t.Errorf("wrong verdict + shed: verified %d, failed %d, wrong %d; want 0, 2, 1", ok, r.failed, r.wrong)
	}
}

func flipFirstVerdict(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	v := m["verdicts"].([]any)[0].(map[string]any)
	v["linkable"] = !v["linkable"].(bool)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		benchSpec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricSpec, want []decl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, have)
	}
}

func TestGoldensApplyToFullSizeSeed1(t *testing.T) {
	g, err := golden(fullSize, 1)
	if err != nil || g == nil {
		t.Fatalf("no goldens for seed 1: %v", err)
	}
	if len(g.ScopeBatch.Verdicts) != 64 || len(g.ScopeBatch.Pairs) != 64 || len(g.EvolveChurn) == 0 {
		t.Errorf("goldens incomplete: %+v", g)
	}
	if g, _ := golden(toySize, 1); g != nil {
		t.Error("goldens applied to the toy size")
	}
	if g, _ := golden(fullSize, 2); g != nil {
		t.Error("goldens applied to seed 2")
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Better: "lower", Bound: &bound}
	higher := metricSpec{Better: "higher", Bound: &bound}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		spec metricSpec
		want string
	}{
		{"same", base, base, lower, "unchanged"},
		{"faster", base, scaled(0.8), lower, "improved"},
		{"slower", base, scaled(1.2), lower, "regressed"},
		{"slightly slower", base, scaled(1.05), lower, "unchanged"},
		{"more throughput", base, scaled(1.2), higher, "improved"},
		{"less throughput", base, scaled(0.8), higher, "regressed"},
		{"noisy", base, noisy, lower, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.spec); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
