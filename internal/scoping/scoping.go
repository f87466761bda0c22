// Package scoping implements the global scoping baseline of Section 2.4
// (prior work [44]): rank the unified set of schema-element signatures with
// a single outlier detection algorithm, sort by outlier score, and keep the
// p portion with the lowest scores as the streamlined schemas.
package scoping

import (
	"context"
	"math"
	"sort"

	"collabscope/internal/embed"
	"collabscope/internal/metrics"
	"collabscope/internal/outlier"
	"collabscope/internal/schema"
)

// Ranking couples each element with its outlier score, sorted ascending
// (most linkable first). It is the output of the Ranking + Sorting phases.
type Ranking struct {
	IDs    []schema.ElementID
	Scores []float64
}

// Rank scores the unified signature set with the detector and sorts
// ascending by outlier score.
func Rank(det outlier.Detector, union *embed.SignatureSet) *Ranking {
	r, _ := RankContext(context.Background(), 0, det, union)
	return r
}

// RankContext is Rank with cancellation and an explicit worker count.
// Detectors implementing outlier.ContextDetector score on the worker pool
// and honour cancellation mid-scan; plain detectors run sequentially after
// a context check.
func RankContext(ctx context.Context, workers int, det outlier.Detector, union *embed.SignatureSet) (*Ranking, error) {
	var scores []float64
	if cd, ok := det.(outlier.ContextDetector); ok {
		var err error
		scores, err = cd.ScoresContext(ctx, workers, union.Matrix)
		if err != nil {
			return nil, err
		}
	} else {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		scores = det.Scores(union.Matrix)
	}
	return rankScores(union, scores), nil
}

func rankScores(union *embed.SignatureSet, scores []float64) *Ranking {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	r := &Ranking{
		IDs:    make([]schema.ElementID, len(idx)),
		Scores: make([]float64, len(idx)),
	}
	for out, in := range idx {
		r.IDs[out] = union.IDs[in]
		r.Scores[out] = scores[in]
	}
	return r
}

// Len returns the number of ranked elements.
func (r *Ranking) Len() int { return len(r.IDs) }

// Scope keeps the p ∈ [0, 1] portion of elements with the lowest outlier
// scores (the Scoping phase): p = 1 keeps everything, p = 0 nothing.
func (r *Ranking) Scope(p float64) map[schema.ElementID]bool {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	n := int(math.Round(p * float64(r.Len())))
	keep := make(map[schema.ElementID]bool, n)
	for i := 0; i < n; i++ {
		keep[r.IDs[i]] = true
	}
	return keep
}

// LinkableScores returns a score per element where HIGHER means MORE
// linkable (the negated outlier score), aligned with r.IDs — the input for
// score-based ROC and PR curves.
func (r *Ranking) LinkableScores() []float64 {
	out := make([]float64, len(r.Scores))
	for i, s := range r.Scores {
		out[i] = -s
	}
	return out
}

// LabelsFor aligns ground-truth linkability labels with the ranking order.
func (r *Ranking) LabelsFor(labels map[schema.ElementID]bool) []bool {
	out := make([]bool, len(r.IDs))
	for i, id := range r.IDs {
		out[i] = labels[id]
	}
	return out
}

// Grid returns n+1 evenly spaced parameter values spanning [0, 1].
func Grid(n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = float64(i) / float64(n)
	}
	return out
}

// Sweep evaluates the scoping threshold p over the grid against the
// ground-truth labels, producing one confusion matrix per p.
func (r *Ranking) Sweep(labels map[schema.ElementID]bool, grid []float64) []metrics.SweepEntry {
	entries := make([]metrics.SweepEntry, 0, len(grid))
	for _, p := range grid {
		keep := r.Scope(p)
		var c metrics.Confusion
		for _, id := range r.IDs {
			c.Observe(keep[id], labels[id])
		}
		entries = append(entries, metrics.SweepEntry{Param: p, Confusion: c})
	}
	return entries
}

// Evaluate computes the Table-4 AUC summary of a detector on the unified
// signature set: the F1 integral comes from the p sweep, while ROC and PR
// curves come from the continuous outlier scores (every threshold is
// realisable by some p).
func Evaluate(det outlier.Detector, union *embed.SignatureSet,
	labels map[schema.ElementID]bool, grid []float64, rocLambda float64) metrics.SweepSummary {

	r := Rank(det, union)
	entries := r.Sweep(labels, grid)
	scores := r.LinkableScores()
	aligned := r.LabelsFor(labels)
	roc := metrics.ROCFromScores(scores, aligned)
	pr := metrics.PRFromScores(scores, aligned)
	return metrics.SweepSummary{
		AUCF1:   metrics.SweepAUC(metrics.F1Curve(entries)),
		AUCROC:  metrics.TrapezoidAUC(roc),
		AUCROCp: metrics.SmoothedROCAUC(roc, rocLambda),
		AUCPR:   metrics.TrapezoidAUC(pr),
	}
}
