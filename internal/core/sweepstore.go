package core

import (
	"context"
	"fmt"
	"strconv"

	"collabscope/internal/metrics"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// CellStore persists one sweep cell per key across process restarts, so a
// long evaluation sweep killed mid-run resumes instead of recomputing from
// zero. Load returns (false, nil) for a missing — or detected-corrupt —
// cell, which the sweep then recomputes and re-saves; a non-nil error is a
// hard storage failure that aborts the sweep. internal/checkpoint.Store is
// the production implementation (atomic tmp+rename JSON files with a
// SHA-256 hash trailer following the v1 wire-format conventions).
type CellStore interface {
	Load(key string, v any) (bool, error)
	Save(key string, v any) error
}

// SweepCheckpointed is SweepCheckpointedContext with context.Background().
func (s *Scoper) SweepCheckpointed(labels map[schema.ElementID]bool, grid []float64, store CellStore, prefix string) ([]metrics.SweepEntry, error) {
	return s.SweepCheckpointedContext(context.Background(), labels, grid, store, prefix)
}

// SweepCheckpointedContext runs the explained-variance grid sweep with
// per-cell checkpointing: every computed cell is persisted under
// "<prefix>/v=<value>" before the next cell starts, and a resumed run
// loads completed cells instead of recomputing them. Because every cell is
// deterministic, an interrupted-then-resumed sweep produces bit-identical
// entries to an uninterrupted one. A nil store degrades to the plain
// uncheckpointed sweep.
//
// The prefix must encode everything the cell result depends on besides v
// (dataset, signature dimensionality, assessment configuration), so stale
// cells from a different configuration can never be mistaken for hits.
func (s *Scoper) SweepCheckpointedContext(ctx context.Context, labels map[schema.ElementID]bool, grid []float64, store CellStore, prefix string) ([]metrics.SweepEntry, error) {
	ctx, sp := obs.Start(ctx, "core.sweep")
	sp.Annotate("grid", int64(len(grid)))
	defer sp.End()
	reg := obs.FromContext(ctx)
	entries := make([]metrics.SweepEntry, 0, len(grid))
	for _, v := range grid {
		if v <= 0 {
			continue // v = 0 retains no variance; undefined in the paper's (1..0) range
		}
		var (
			key string
			e   metrics.SweepEntry
			hit bool
		)
		if store != nil {
			key = fmt.Sprintf("%s/v=%s", prefix, strconv.FormatFloat(v, 'g', -1, 64))
			ok, err := store.Load(key, &e)
			if err != nil {
				return nil, fmt.Errorf("core: load sweep cell %q: %w", key, err)
			}
			hit = ok
		}
		if hit {
			reg.Counter("core.sweep.checkpoint_hits").Inc()
		}
		if !hit {
			reg.Counter("core.sweep.cells_computed").Inc()
			c, err := s.sweepCell(ctx, v, labels)
			if err != nil {
				return nil, err
			}
			e = metrics.SweepEntry{Param: v, Confusion: c}
			if store != nil {
				if err := store.Save(key, e); err != nil {
					return nil, fmt.Errorf("core: save sweep cell %q: %w", key, err)
				}
			}
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// sweepCell computes the confusion matrix of one grid point.
func (s *Scoper) sweepCell(ctx context.Context, v float64, labels map[schema.ElementID]bool) (metrics.Confusion, error) {
	keep, err := s.ScopeContext(ctx, v)
	if err != nil {
		return metrics.Confusion{}, err
	}
	var c metrics.Confusion
	for _, st := range s.states {
		for _, id := range st.set.IDs {
			c.Observe(keep[id], labels[id])
		}
	}
	return c, nil
}
