// Observability demonstrates the pipeline's instrumentation layer end to
// end: WithMetrics collects counters, gauges, and latency histograms from
// every stage (encoding, the worker pool, training, assessment), and
// WithTraceLog streams one JSONL event per completed span — nested across
// goroutines — to any io.Writer.
//
// The run scopes the paper's Figure-1 schemas twice, once instrumented and
// once plain, and shows the metrics snapshot (pretty-printed and as the
// JSON that a hub's /v1/metrics endpoint serves and `collabscope stats
// -metrics` renders), the first trace events with their nesting depth, and
// that instrumentation never changes results — both runs agree.
//
//	go run ./examples/observability
package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"

	"collabscope"
)

func main() {
	fig := collabscope.DatasetFigure1()
	ctx := context.Background()

	// An instrumented pipeline: metrics registry + JSONL trace log.
	metrics := collabscope.NewMetrics()
	var trace bytes.Buffer
	pipe := collabscope.New(
		collabscope.WithDimension(384),
		collabscope.WithMetrics(metrics),
		collabscope.WithTraceLog(&trace),
	)
	res, err := pipe.CollaborativeScopeContext(ctx, fig.Schemas, 0.3)
	check(err)
	fmt.Printf("scoped %d schemas: kept %d elements, pruned %d\n\n",
		len(fig.Schemas), res.Kept, res.Pruned)

	// 1. The metrics snapshot. The same data is served by a model hub at
	// GET /v1/metrics and rendered by `collabscope stats -metrics <url|file>`.
	fmt.Println("--- metrics snapshot ---")
	snap := metrics.Snapshot()
	snap.Fprint(os.Stdout)

	var js bytes.Buffer
	check(snap.WriteJSON(&js))
	fmt.Printf("\n(as JSON: %d bytes; try `collabscope stats -metrics <file>` on it)\n", js.Len())

	// 2. The trace log: one JSON line per completed span, innermost first,
	// with goroutine-crossing nesting tracked by depth.
	fmt.Println("\n--- first trace events ---")
	sc := bufio.NewScanner(&trace)
	for i := 0; i < 8 && sc.Scan(); i++ {
		fmt.Println("  " + sc.Text())
	}

	// 3. Instrumentation is observation only: an uninstrumented pipeline
	// (the zero-cost fast path — no registry, no allocations) produces
	// identical verdicts.
	plain, err := collabscope.New(collabscope.WithDimension(384)).
		CollaborativeScopeContext(ctx, fig.Schemas, 0.3)
	check(err)
	if plain.Kept != res.Kept || plain.Pruned != res.Pruned {
		fmt.Println("ERROR: instrumented and plain runs diverged")
		os.Exit(1)
	}
	fmt.Println("\ninstrumented and uninstrumented runs produced identical verdicts")

	// The snapshot is also inspectable programmatically.
	spans := 0
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "span.") {
			spans++
		}
	}
	fmt.Printf("worker pool processed %d items across %d recorded stage spans\n",
		snap.Counters["parallel.items"], spans)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
