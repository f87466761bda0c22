package collabscope

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The Pipeline's determinism guarantee: every stage produces bit-identical
// results whatever the parallelism setting. These tests pin the guarantee
// for the three public entry points the ISSUE's acceptance criteria name.

func pipelinesForDeterminism() (seq, par *Pipeline) {
	seq = New(WithDimension(192), WithParallelism(1))
	par = New(WithDimension(192), WithParallelism(8))
	return seq, par
}

func sameKeep(t *testing.T, a, b map[ElementID]bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("keep maps differ in size: %d vs %d", len(a), len(b))
	}
	for id, v := range a {
		w, ok := b[id]
		if !ok || v != w {
			t.Fatalf("keep maps differ at %v: %v vs %v (present=%v)", id, v, w, ok)
		}
	}
}

func TestCollaborativeScopeDeterministicAcrossWorkers(t *testing.T) {
	seq, par := pipelinesForDeterminism()
	schemas := DatasetOC3().Schemas
	for _, v := range []float64{0.9, 0.5, 0.1} {
		a, err := seq.CollaborativeScopeContext(context.Background(), schemas, v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.CollaborativeScopeContext(context.Background(), schemas, v)
		if err != nil {
			t.Fatal(err)
		}
		sameKeep(t, a.Keep, b.Keep)
		if a.Kept != b.Kept || a.Pruned != b.Pruned {
			t.Fatalf("v=%v: counts differ: %d/%d vs %d/%d", v, a.Kept, a.Pruned, b.Kept, b.Pruned)
		}
	}
}

func TestGlobalScopeDeterministicAcrossWorkers(t *testing.T) {
	seq, par := pipelinesForDeterminism()
	schemas := DatasetOC3().Schemas
	for _, det := range []Detector{
		NewLOFDetector(10),
		NewKNNDetector(5),
		NewMahalanobisDetector(),
		NewAutoencoderDetector(3, 5, 1),
	} {
		a, err := seq.GlobalScopeContext(context.Background(), schemas, det, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.GlobalScopeContext(context.Background(), schemas, det, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		sameKeep(t, a.Keep, b.Keep)
	}
}

func TestMatchDeterministicAcrossWorkers(t *testing.T) {
	seq, par := pipelinesForDeterminism()
	schemas := DatasetOC3().Schemas
	for _, m := range []Matcher{
		NewSimMatcher(0.5),
		NewLSHMatcher(3),
		NewClusterMatcher(5, 1),
	} {
		a := must(seq.MatchContext(context.Background(), m, schemas))
		b := must(par.MatchContext(context.Background(), m, schemas))
		if len(a) != len(b) {
			t.Fatalf("%s: pair counts differ: %d vs %d", m.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: pair %d differs: %v vs %v", m.Name(), i, a[i], b[i])
			}
		}
	}
}

func TestSuggestVarianceDeterministicAcrossWorkers(t *testing.T) {
	seq, par := pipelinesForDeterminism()
	schemas := DatasetFigure1().Schemas
	a, err := seq.SuggestVarianceContext(context.Background(), schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.SuggestVarianceContext(context.Background(), schemas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("suggestions differ: %v vs %v", a, b)
	}
}

// A pre-cancelled context must return promptly with ctx.Err() from every
// context-aware entry point.
func TestPreCancelledContextReturnsPromptly(t *testing.T) {
	pipe := New(WithDimension(192), WithParallelism(4))
	schemas := DatasetOC3().Schemas
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	if _, err := pipe.CollaborativeScopeContext(ctx, schemas, 0.8); !errors.Is(err, context.Canceled) {
		t.Fatalf("CollaborativeScopeContext err = %v", err)
	}
	if _, err := pipe.GlobalScopeContext(ctx, schemas, NewLOFDetector(10), 0.6); !errors.Is(err, context.Canceled) {
		t.Fatalf("GlobalScopeContext err = %v", err)
	}
	if _, err := pipe.MatchContext(ctx, NewSimMatcher(0.5), schemas); !errors.Is(err, context.Canceled) {
		t.Fatalf("MatchContext err = %v", err)
	}
	if _, err := pipe.TrainModelContext(ctx, schemas[0], 0.8); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrainModelContext err = %v", err)
	}
	if _, err := pipe.AssessContext(ctx, schemas[0], nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("AssessContext err = %v", err)
	}
	if _, err := pipe.SuggestVarianceContext(ctx, schemas, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SuggestVarianceContext err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled calls took %v; want prompt return", elapsed)
	}
}

// Regression test for the default-grid float drift: the grid used to be
// built by repeated v -= 0.05 subtraction, accumulating error (0.3 became
// 0.29999999999999993). Points must now be exactly the float64 nearest
// their decimal.
func TestDefaultVarianceGridExactSteps(t *testing.T) {
	grid := DefaultVarianceGrid()
	if len(grid) != 21 {
		t.Fatalf("grid has %d points, want 21", len(grid))
	}
	if grid[0] != 1.0 || grid[len(grid)-1] != 0.01 {
		t.Fatalf("grid endpoints = %v, %v", grid[0], grid[len(grid)-1])
	}
	for i, want := range []float64{1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65,
		0.6, 0.55, 0.5, 0.45, 0.4, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.01} {
		if grid[i] != want {
			t.Fatalf("grid[%d] = %.17g, want exactly %v", i, grid[i], want)
		}
	}
}
