package experiments

import (
	"context"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/metrics"
	"collabscope/internal/obs"
	"collabscope/internal/outlier"
	"collabscope/internal/scoping"
	"collabscope/internal/synth"
)

// ScalePoint is one measurement of the scalability experiment: a synthetic
// scenario with k business schemas (plus unrelated ones), scoped both
// globally and collaboratively.
type ScalePoint struct {
	K        int
	Elements int
	// SumLocalSq is Σ|S_k|², the collaborative complexity driver;
	// UnionSq is |S|², the global scoping driver (§3, Computational
	// Complexity). Their ratio shrinks as k grows.
	SumLocalSq, UnionSq int
	// CollabTime and GlobalTime are wall-clock times of one full
	// collaborative scope (train + assess) and one global PCA ranking.
	CollabTime, GlobalTime time.Duration
	// CollabAUCPR and GlobalAUCPR summarise scoping quality.
	CollabAUCPR, GlobalAUCPR float64
}

// ComplexityRatio returns Σ|S_k|² / |S|² — strictly below 1 for k ≥ 2 and
// decreasing in k, the paper's §3 argument.
func (p ScalePoint) ComplexityRatio() float64 {
	if p.UnionSq == 0 {
		return 0
	}
	return float64(p.SumLocalSq) / float64(p.UnionSq)
}

// Scalability generates synthetic scenarios with growing schema counts and
// measures both scoping approaches on each.
func Scalability(ctx context.Context, cfg Config, ks []int, unrelated int, seed int64) ([]ScalePoint, error) {
	enc := cfg.Encoder()
	var out []ScalePoint
	for _, k := range ks {
		d, err := synth.Generate(synth.Config{
			Schemas:          k,
			UnrelatedSchemas: unrelated,
			Seed:             seed,
		})
		if err != nil {
			return nil, err
		}
		sets, err := embed.EncodeSchemasContext(ctx, 0, enc, d.Schemas)
		if err != nil {
			return nil, err
		}
		union := embed.Union(sets)
		labels := d.Labels()

		p := ScalePoint{K: k, Elements: union.Len(), UnionSq: union.Len() * union.Len()}
		for _, set := range sets {
			p.SumLocalSq += set.Len() * set.Len()
		}

		sw := obs.NewStopwatch()
		scoper, err := core.NewScoperContext(ctx, 0, sets, core.AssessConfig{})
		if err != nil {
			return nil, err
		}
		if _, err := scoper.ScopeContext(ctx, 0.8); err != nil {
			return nil, err
		}
		p.CollabTime = sw.Elapsed()

		det := outlier.PCA{Variance: 0.5}
		sw = obs.NewStopwatch()
		ranking, err := scoping.RankContext(ctx, 0, det, union)
		if err != nil {
			return nil, err
		}
		p.GlobalTime = sw.Elapsed()

		// Quality: AUC-PR of each approach.
		sum, err := scoper.Evaluate(ctx, labels, cfg.VGrid, cfg.ROCLambda)
		if err != nil {
			return nil, err
		}
		p.CollabAUCPR = sum.AUCPR
		scores := ranking.LinkableScores()
		aligned := ranking.LabelsFor(labels)
		p.GlobalAUCPR = metrics.TrapezoidAUC(metrics.PRFromScores(scores, aligned))
		out = append(out, p)
	}
	return out, nil
}
