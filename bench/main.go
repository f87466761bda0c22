// Command bench is the collabscope benchmark: one workload per invocation,
// measured for a fixed time, every output checked, and a JSON result as the
// last line of standard output.
//
// Usage:
//
//	bash bench/run.sh --workload scope_batch --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve_mixed --seed 1 --seconds 20 --trace 1 --spans spans.jsonl
//	bash bench/run.sh --compare runs/parent runs/change
//
// run.sh builds this module from source and runs it from the repository
// root. See README.md for the workloads, metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// decl declares one reported metric.
type decl struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs of every workload and gated by BENCHMARK.json's bounds.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"latency_ms_p50", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by traced runs. A
// layer a workload does not call reads 0 there.
var perLayer = []decl{
	{"enrich.self_ms", "ms"},
	{"enrich.share", "ratio"},
	{"embed.self_ms", "ms"},
	{"embed.elements", "count"},
	{"embed.alloc_mb", "MB"},
	{"embed.share", "ratio"},
	{"core.fit.self_ms", "ms"},
	{"core.fit.rows", "count"},
	{"core.fit.alloc_mb", "MB"},
	{"core.fit.share", "ratio"},
	{"core.scope.self_ms", "ms"},
	{"core.scope.passes", "count"},
	{"core.scope.share", "ratio"},
	{"match.self_ms", "ms"},
	{"match.comparisons", "count"},
	{"match.pairs", "count"},
	{"match.alloc_mb", "MB"},
	{"match.share", "ratio"},
	{"core.update.ms_p50", "ms"},
	{"core.update.alloc_mb", "MB"},
	{"core.delta.ms_p50", "ms"},
	{"core.delta.rescored", "count"},
	{"core.delta.reused", "count"},
	{"core.delta.reuse_ratio", "ratio"},
	{"exchange.handler_ms_p50", "ms"},
	{"exchange.wait_ms_p50", "ms"},
	{"exchange.decode_ms_p50", "ms"},
	{"core.score_ms_p50", "ms"},
	{"exchange.req_kb", "KB"},
	{"exchange.resp_kb", "KB"},
	{"exchange.alloc_kb_per_req", "KB"},
	{"exchange.coalesced_ratio", "ratio"},
	{"exchange.delta_reuse_ratio", "ratio"},
	{"exchange.shed", "count"},
	{"exchange.upload_ms_p50", "ms"},
	{"exchange.high_ms_p50", "ms"},
	{"exchange.gen_lag_ms_max", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"layers.attributed_share", "ratio"},
	{"trace_overhead", "ratio"},
}

// minOps is the fewest operations a closed loop runs, however short the
// measured window.
const minOps = 3

type options struct {
	seed    int64
	seconds time.Duration
	size    size
	// trace is nil on untraced runs.
	trace  *tracer
	tmpdir string
}

type workload func(context.Context, options) (*result, error)

var workloads = map[string]workload{
	"scope_batch":  runScopeBatch,
	"evolve_churn": runEvolveChurn,
	"serve_unique": func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, false) },
	"serve_mixed":  func(ctx context.Context, o options) (*result, error) { return runServe(ctx, o, true) },
}

// result is what one workload run measured and checked.
type result struct {
	attempted, failed int
	// wrong counts operations whose output disagreed with a reference or a
	// golden; each is also failed.
	wrong int
	// invalid, when set, says why the measurement cannot be trusted.
	invalid string
	values  map[string]float64
	notes   []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrongf records one operation with a wrong output.
func (r *result) wrongf(format string, args ...any) {
	r.wrong++
	r.failed++
	r.notef("WRONG: "+format, args...)
}

// latency sets a median metric from raw samples (ms) and notes the sample
// count and the highest percentile the samples support.
func (r *result) latency(name, what string, ms []float64) {
	s := sorted(ms)
	r.set(name, nearestRank(s, 0.5))
	line := fmt.Sprintf("%s: n=%d p50=%.3fms", what, len(s), nearestRank(s, 0.5))
	for _, q := range []float64{0.9, 0.95, 0.99} {
		if reportable(q, len(s)) {
			line += fmt.Sprintf(" p%g=%.3fms", q*100, nearestRank(s, q))
		}
	}
	r.notes = append(r.notes, line)
}

// output is the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOutput `json:"metrics"`
}

type valueOutput struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the report lines and the JSON result for the declared set.
func (r *result) write(w io.Writer, decls []decl) error {
	out := output{
		Correct:   r.wrong == 0 && r.invalid == "",
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]valueOutput{},
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if r.invalid != "" {
		fmt.Fprintf(w, "# INVALID: %s\n", r.invalid)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d wrong=%d\n", r.attempted, r.failed, r.wrong)
	for _, d := range decls {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = valueOutput{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "# metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// gcWindow measures the share of CPU time spent in GC over a window.
type gcWindow struct{ gc, total float64 }

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readGC starts a window.
func readGC() gcWindow {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	return gcWindow{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// fraction is the GC share of CPU time from start until now.
func (start gcWindow) fraction() float64 {
	end := readGC()
	if end.total <= start.total {
		return 0
	}
	return (end.gc - start.gc) / (end.total - start.total)
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: scope_batch, evolve_churn, serve_unique or serve_mixed")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	spansPath := fs.String("spans", "", "with -trace 1, also write the spans as JSON lines to this file")
	tmpdir := fs.String("tmpdir", os.TempDir(), "directory for the persisted registry of serve_mixed")
	compare := fs.Bool("compare", false, "compare two directories of run outputs: -compare A B")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "with -compare, the file holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two directories")
			return 2
		}
		if err := compareDirs(stdout, *benchPath, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "bench: need -workload (one of %v), -seconds > 0 and -trace 0 or 1\n", names)
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), size: fullSize, tmpdir: *tmpdir}
	decls := endToEnd
	if *traceFlag == 1 {
		o.trace = &tracer{}
		decls = perLayer
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	r, err := wl(context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	r.set("peak_rss_mb", peakRSSMB())
	if o.trace != nil && *spansPath != "" {
		if err := o.trace.writeJSONL(*spansPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := r.write(stdout, decls); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}
