package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"collabscope/internal/checkpoint"
	"collabscope/internal/metrics"
)

var sweepGrid = []float64{1, 0.8, 0.6, 0.4, 0.2, 0.01}

// trackingStore wraps a CellStore, counting operations and optionally
// cancelling a context after a fixed number of saves — simulating a process
// killed mid-sweep at a cell boundary.
type trackingStore struct {
	inner       CellStore
	loads, hits int
	saves       int
	killAfter   int // 0 = never
	cancel      context.CancelFunc
}

func (s *trackingStore) Load(key string, v any) (bool, error) {
	s.loads++
	ok, err := s.inner.Load(key, v)
	if ok {
		s.hits++
	}
	return ok, err
}

func (s *trackingStore) Save(key string, v any) error {
	if err := s.inner.Save(key, v); err != nil {
		return err
	}
	s.saves++
	if s.killAfter > 0 && s.saves == s.killAfter {
		s.cancel()
	}
	return nil
}

func TestSweepCheckpointedMatchesPlainSweep(t *testing.T) {
	_, sets := encodeAll(t)
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.SweepContext(context.Background(), nil, sweepGrid)
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := s.SweepCheckpointedContext(context.Background(), nil, sweepGrid, store, "test/dim=128")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, ckpt) {
		t.Fatalf("checkpointed sweep diverges:\nplain: %+v\nckpt:  %+v", plain, ckpt)
	}
	// A second run over the populated store is all hits, no recomputation.
	tr := &trackingStore{inner: store}
	again, err := s.SweepCheckpointedContext(context.Background(), nil, sweepGrid, tr, "test/dim=128")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, again) {
		t.Fatal("warm-store sweep diverges from plain sweep")
	}
	if tr.hits != len(sweepGrid) || tr.saves != 0 {
		t.Fatalf("warm run: %d hits, %d saves; want %d hits, 0 saves", tr.hits, tr.saves, len(sweepGrid))
	}
}

// TestSweepKilledMidRunResumesBitIdentical simulates a crash after the
// third cell: the interrupted run dies with context.Canceled, and the
// resumed run recomputes only the missing cells yet produces entries
// bit-identical to an uninterrupted sweep.
func TestSweepKilledMidRunResumesBitIdentical(t *testing.T) {
	_, sets := encodeAll(t)
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := s.SweepContext(context.Background(), nil, sweepGrid)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const killAfter = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := &trackingStore{inner: store, killAfter: killAfter, cancel: cancel}
	_, err = s.SweepCheckpointedContext(ctx, nil, sweepGrid, killed, "test/dim=128")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if killed.saves != killAfter {
		t.Fatalf("interrupted run persisted %d cells, want %d", killed.saves, killAfter)
	}

	resumed := &trackingStore{inner: store}
	entries, err := s.SweepCheckpointedContext(context.Background(), nil, sweepGrid, resumed, "test/dim=128")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(entries, uninterrupted) {
		t.Fatalf("resumed sweep diverges from uninterrupted:\nresumed: %+v\nfull:    %+v", entries, uninterrupted)
	}
	if resumed.hits != killAfter {
		t.Fatalf("resume loaded %d cells, want %d", resumed.hits, killAfter)
	}
	if want := len(sweepGrid) - killAfter; resumed.saves != want {
		t.Fatalf("resume recomputed %d cells, want %d", resumed.saves, want)
	}

	// Summaries (the benchmark-table numbers) are bit-identical too.
	a := metrics.Summarize(uninterrupted, 0.002)
	b := metrics.Summarize(entries, 0.002)
	if a != b {
		t.Fatalf("summaries diverge: %+v vs %+v", a, b)
	}
}

// TestSweepRecomputesCorruptedCheckpoint flips a byte in one persisted cell
// between runs: the hash trailer detects it, the cell is quarantined and
// recomputed, and the final entries are still bit-identical.
func TestSweepRecomputesCorruptedCheckpoint(t *testing.T) {
	_, sets := encodeAll(t)
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.SweepCheckpointedContext(context.Background(), nil, sweepGrid, store, "test/dim=128")
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one cell file on disk.
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != len(sweepGrid) {
		t.Fatalf("cell files = %v (err %v), want %d", files, err, len(sweepGrid))
	}
	victim := files[2]
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(victim, b, 0o644); err != nil {
		t.Fatal(err)
	}

	tr := &trackingStore{inner: store}
	again, err := s.SweepCheckpointedContext(context.Background(), nil, sweepGrid, tr, "test/dim=128")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, again) {
		t.Fatal("sweep after corruption diverges")
	}
	if tr.hits != len(sweepGrid)-1 || tr.saves != 1 {
		t.Fatalf("corrupt-cell run: %d hits, %d saves; want %d hits, 1 save",
			tr.hits, tr.saves, len(sweepGrid)-1)
	}
	// The damaged file was quarantined for forensics.
	quarantined, _ := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if len(quarantined) != 1 {
		t.Fatalf("quarantined files = %v, want one", quarantined)
	}
}

// TestSweepPrefixIsolatesConfigurations pins the key discipline: cells
// written under one prefix are never hits under another.
func TestSweepPrefixIsolatesConfigurations(t *testing.T) {
	_, sets := encodeAll(t)
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SweepCheckpointedContext(context.Background(), nil, sweepGrid, store, "oc3/dim=128"); err != nil {
		t.Fatal(err)
	}
	tr := &trackingStore{inner: store}
	if _, err := s.SweepCheckpointedContext(context.Background(), nil, sweepGrid, tr, "oc3/dim=256"); err != nil {
		t.Fatal(err)
	}
	if tr.hits != 0 {
		t.Fatalf("foreign-prefix run got %d hits, want 0", tr.hits)
	}
}

func TestSweepSkipsNonPositiveGridPoints(t *testing.T) {
	_, sets := encodeAll(t)
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := s.SweepContext(context.Background(), nil, []float64{0.5, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Param != 0.5 {
		t.Fatalf("entries = %+v, want just v=0.5", entries)
	}
}

// Guard against key drift: the cell key format is part of the on-disk
// contract; changing it would orphan every existing checkpoint directory.
func TestSweepCellKeyFormat(t *testing.T) {
	_, sets := encodeAll(t)
	s, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	rec := recordingStore{keys: keys}
	if _, err := s.SweepCheckpointedContext(context.Background(), nil, []float64{0.85}, rec, "oc3/dim=128/collab"); err != nil {
		t.Fatal(err)
	}
	if !keys["oc3/dim=128/collab/v=0.85"] {
		t.Fatalf("keys = %v, want oc3/dim=128/collab/v=0.85", keys)
	}
}

type recordingStore struct{ keys map[string]bool }

func (r recordingStore) Load(key string, v any) (bool, error) {
	r.keys[key] = true
	return false, nil
}

func (r recordingStore) Save(key string, v any) error {
	if !strings.HasPrefix(key, "oc3/") {
		return errors.New("unexpected key " + key)
	}
	r.keys[key] = true
	return nil
}
