package experiments

import (
	"context"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/outlier"
	"collabscope/internal/scoping"
	"collabscope/internal/synth"
)

// HeterogeneityPoint compares collaborative scoping with the best global
// scoping baseline on one synthetic scenario whose heterogeneity knobs are
// set explicitly — turning the paper's volume/design/domain axes (§2.4)
// into controlled variables.
type HeterogeneityPoint struct {
	Label string
	Cfg   synth.Config
	// CollabAUCPR and ScopingAUCPR are the primary-metric scores of the
	// two approaches on the scenario.
	CollabAUCPR, ScopingAUCPR float64
}

// Advantage returns the collaborative-over-scoping AUC-PR margin.
func (p HeterogeneityPoint) Advantage() float64 { return p.CollabAUCPR - p.ScopingAUCPR }

// HeterogeneityGrid returns the scenario ladder of the robustness
// experiment: from homogeneous to maximally heterogeneous along each axis.
func HeterogeneityGrid(seed int64) []HeterogeneityPoint {
	base := synth.Config{Schemas: 4, Seed: seed}
	mk := func(label string, mod func(*synth.Config)) HeterogeneityPoint {
		cfg := base
		mod(&cfg)
		return HeterogeneityPoint{Label: label, Cfg: cfg}
	}
	return []HeterogeneityPoint{
		mk("homogeneous", func(c *synth.Config) {
			c.SplitProb = 0.01
			c.OptionalProb = 0.99
		}),
		mk("design-heterogeneous", func(c *synth.Config) {
			c.SplitProb = 0.6
			c.OptionalProb = 0.99
		}),
		mk("volume-heterogeneous", func(c *synth.Config) {
			c.SplitProb = 0.01
			c.OptionalProb = 0.4
		}),
		mk("domain-heterogeneous", func(c *synth.Config) {
			c.SplitProb = 0.01
			c.OptionalProb = 0.99
			c.UnrelatedSchemas = 2
		}),
		mk("fully-heterogeneous", func(c *synth.Config) {
			c.SplitProb = 0.6
			c.OptionalProb = 0.4
			c.UnrelatedSchemas = 2
		}),
	}
}

// Heterogeneity evaluates the grid: each point is generated, encoded, and
// scored with collaborative scoping and the PCA(0.5) scoping baseline.
func Heterogeneity(ctx context.Context, cfg Config, points []HeterogeneityPoint) ([]HeterogeneityPoint, error) {
	enc := cfg.Encoder()
	out := make([]HeterogeneityPoint, len(points))
	for i, p := range points {
		d, err := synth.Generate(p.Cfg)
		if err != nil {
			return nil, err
		}
		sets, err := embed.EncodeSchemasContext(ctx, 0, enc, d.Schemas)
		if err != nil {
			return nil, err
		}
		labels := d.Labels()

		scoper, err := core.NewScoperContext(ctx, 0, sets, core.AssessConfig{})
		if err != nil {
			return nil, err
		}
		collab, err := scoper.Evaluate(ctx, labels, cfg.VGrid, cfg.ROCLambda)
		if err != nil {
			return nil, err
		}
		global, err := scoping.Evaluate(ctx, outlier.PCA{Variance: 0.5}, embed.Union(sets),
			labels, scoping.Grid(cfg.PSteps), cfg.ROCLambda)
		if err != nil {
			return nil, err
		}

		p.CollabAUCPR = collab.AUCPR
		p.ScopingAUCPR = global.AUCPR
		out[i] = p
	}
	return out, nil
}
