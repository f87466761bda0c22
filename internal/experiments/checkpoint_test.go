package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"collabscope/internal/checkpoint"
	"collabscope/internal/core"
	"collabscope/internal/datasets"
)

// killingStore persists cells normally, then reports a hard failure once
// the budget is exhausted — simulating a benchmark run killed mid-sweep
// right after a cell boundary.
type killingStore struct {
	inner     core.CellStore
	remaining int
}

var errKilled = errors.New("simulated kill")

func (s *killingStore) Load(key string, v any) (bool, error) { return s.inner.Load(key, v) }

func (s *killingStore) Save(key string, v any) error {
	if s.remaining <= 0 {
		return errKilled
	}
	s.remaining--
	return s.inner.Save(key, v)
}

// countingStore counts hits and recomputations during a resumed run.
type countingStore struct {
	inner       core.CellStore
	hits, saves int
}

func (s *countingStore) Load(key string, v any) (bool, error) {
	ok, err := s.inner.Load(key, v)
	if ok {
		s.hits++
	}
	return ok, err
}

func (s *countingStore) Save(key string, v any) error {
	s.saves++
	return s.inner.Save(key, v)
}

// TestTable4KilledMidRunResumesBitIdentical is the checkpoint/resume
// acceptance test at benchmark-table level: a Table 4 run killed partway
// through the collaborative sweep leaves a partial checkpoint directory,
// and the rerun resumes from it — recomputing only the missing cells —
// to rows bit-identical to an uninterrupted, checkpoint-free run.
func TestTable4KilledMidRunResumesBitIdentical(t *testing.T) {
	cfg := FastConfig()
	enc := must(Encode(context.Background(), cfg, datasets.OC3()))

	uninterrupted, err := Table4(context.Background(), cfg, enc)
	if err != nil {
		t.Fatal(err)
	}

	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const survived = 4
	killCfg := cfg
	killCfg.Checkpoint = &killingStore{inner: store, remaining: survived}
	if _, err := Table4(context.Background(), killCfg, enc); !errors.Is(err, errKilled) {
		t.Fatalf("killed run: err = %v, want the simulated kill", err)
	}

	counting := &countingStore{inner: store}
	resumeCfg := cfg
	resumeCfg.Checkpoint = counting
	resumed, err := Table4(context.Background(), resumeCfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, uninterrupted) {
		t.Fatalf("resumed Table 4 diverges from uninterrupted run:\nresumed: %+v\nfull:    %+v",
			resumed, uninterrupted)
	}
	if counting.hits != survived {
		t.Fatalf("resume loaded %d cells, want the %d that survived the kill", counting.hits, survived)
	}
	cells := len(cfg.VGrid)
	if want := cells - survived; counting.saves != want {
		t.Fatalf("resume recomputed %d cells, want %d", counting.saves, want)
	}

	// The Figure 5/6 collaborative curves share the same cell prefix, so a
	// fully populated store serves them without recomputing anything.
	shared := &countingStore{inner: store}
	sharedCfg := cfg
	sharedCfg.Checkpoint = shared
	ckptCurves, err := CollaborativeCurves(context.Background(), sharedCfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	plainCurves, err := CollaborativeCurves(context.Background(), cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ckptCurves, plainCurves) {
		t.Fatal("checkpointed curves diverge from plain curves")
	}
	if shared.hits != cells || shared.saves != 0 {
		t.Fatalf("curve run: %d hits, %d saves; want %d hits, 0 saves", shared.hits, shared.saves, cells)
	}
}
