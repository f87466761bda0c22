package core

import (
	"context"
	"fmt"
	"sort"

	"collabscope/internal/parallel"
)

// SuggestVarianceContext proposes an explained-variance setting without any
// linkability labels — an extension addressing the paper's open point that
// "the ideal value for v is unknown and varies between the matching
// scenarios" (§3).
//
// The heuristic exploits the shape of the kept-count curve: as v decreases
// from 1, the number of elements assessed linkable rises gently while the
// local models still discriminate, then jumps once the models degenerate
// into accept-almost-everything (the saturation cliff visible in the
// Figure 5-6 sweeps). The suggestion is the grid point just BEFORE the
// steepest jump — the last setting on the discriminative side of the
// cliff, which lands inside the paper's productive band.
//
// The grid points — each a full per-schema training and assessment
// round — fan out over the Scoper's worker pool; the kept-count curve is
// assembled in descending-grid order, so the suggestion is identical for
// any worker count.
func (s *Scoper) SuggestVarianceContext(ctx context.Context, grid []float64) (float64, error) {
	if len(grid) < 3 {
		return 0, fmt.Errorf("core: need at least 3 grid points, got %d", len(grid))
	}
	// Evaluate kept counts over the descending grid.
	vs := append([]float64(nil), grid...)
	sort.Sort(sort.Reverse(sort.Float64Slice(vs)))
	counts, err := parallel.Map(ctx, s.workers, vs, func(_ int, v float64) (float64, error) {
		keep, err := s.ScopeContext(ctx, v)
		if err != nil {
			return 0, err
		}
		n := 0
		for _, ok := range keep {
			if ok {
				n++
			}
		}
		return float64(n), nil
	})
	if err != nil {
		return 0, err
	}

	bestIdx, bestSlope := 0, -1.0
	for i := 0; i+1 < len(vs); i++ {
		dv := vs[i] - vs[i+1]
		if dv <= 0 {
			continue
		}
		slope := (counts[i+1] - counts[i]) / dv
		if slope > bestSlope {
			bestIdx, bestSlope = i, slope
		}
	}
	if bestSlope <= 0 {
		// Flat curve: no saturation signal; stay conservative at the
		// high-variance end of the productive band.
		return vs[len(vs)/4], nil
	}
	return vs[bestIdx], nil
}
