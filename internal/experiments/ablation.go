package experiments

import (
	"context"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/match"
)

// Matchers returns the nine matcher parameterisations of Figure 7:
// SIM{0.4, 0.6, 0.8}, CLUSTER{2, 5, 20}, LSH{1, 5, 20}.
func (c Config) Matchers() []match.Matcher {
	return []match.Matcher{
		match.Sim{Threshold: 0.4},
		match.Sim{Threshold: 0.6},
		match.Sim{Threshold: 0.8},
		match.Cluster{K: 2, Seed: c.Seed},
		match.Cluster{K: 5, Seed: c.Seed},
		match.Cluster{K: 20, Seed: c.Seed},
		match.LSH{K: 1},
		match.LSH{K: 5},
		match.LSH{K: 20},
	}
}

// ExtraMatchers returns the matchers this repository adds beyond the
// paper's three: the purely lexical NAME baseline, Similarity Flooding,
// and the COMA-style composite.
func (c Config) ExtraMatchers() []match.Matcher {
	return []match.Matcher{
		match.NameMatcher{Threshold: 0.7},
		match.Flooding{Threshold: 0.8},
		match.Composite{Threshold: 0.6},
	}
}

// AblationSeries is the Figure-7 trace of one matcher: its SOTA baseline
// (matching the original schemas) and its evaluation on streamlined schemas
// at each explained-variance value.
type AblationSeries struct {
	Matcher string
	SOTA    match.Eval
	// V and Evals are aligned: Evals[i] is the matcher's quality on the
	// streamlined schemas at explained variance V[i].
	V     []float64
	Evals []match.Eval
}

// Figure7 runs the matching ablation on one encoded dataset: every matcher
// on the original schemas (SOTA) and on collaborative-scoping streamlined
// schemas across the v grid. The Cartesian size of the ORIGINAL schemas is
// the common RR denominator.
func Figure7(ctx context.Context, cfg Config, enc *Encoded) ([]AblationSeries, error) {
	return figure7(ctx, cfg, enc, cfg.Matchers())
}

// Figure7Extended is Figure7 with the repository's extra matchers appended.
func Figure7Extended(ctx context.Context, cfg Config, enc *Encoded) ([]AblationSeries, error) {
	return figure7(ctx, cfg, enc, append(cfg.Matchers(), cfg.ExtraMatchers()...))
}

func figure7(ctx context.Context, cfg Config, enc *Encoded, matchers []match.Matcher) ([]AblationSeries, error) {
	scoper, err := core.NewScoperContext(ctx, 0, enc.Sets, core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	cartesian := match.Cartesian(enc.Dataset.Schemas)

	// Precompute the streamlined signature sets per v, shared by all
	// matchers.
	streamlined := make([][]*embed.SignatureSet, len(cfg.VGrid))
	for i, v := range cfg.VGrid {
		keep, err := scoper.ScopeContext(ctx, v)
		if err != nil {
			return nil, err
		}
		sets := make([]*embed.SignatureSet, len(enc.Sets))
		for j, set := range enc.Sets {
			sets[j] = set.Select(keep)
		}
		streamlined[i] = sets
	}

	var out []AblationSeries
	for _, m := range matchers {
		series := AblationSeries{Matcher: m.Name()}
		pairs, err := match.MatchAllContext(ctx, 0, m, enc.Sets)
		if err != nil {
			return nil, err
		}
		series.SOTA = match.Evaluate(pairs, enc.Dataset.Truth, cartesian)
		for i, v := range cfg.VGrid {
			pairs, err := match.MatchAllContext(ctx, 0, m, streamlined[i])
			if err != nil {
				return nil, err
			}
			series.V = append(series.V, v)
			series.Evals = append(series.Evals, match.Evaluate(pairs, enc.Dataset.Truth, cartesian))
		}
		out = append(out, series)
	}
	return out, nil
}

// MatcherComparison is the summary row of one matcher: its SOTA quality
// and its quality at the explained variance that maximises F1.
type MatcherComparison struct {
	Matcher string
	SOTA    match.Eval
	BestV   float64
	Best    match.Eval
}

// CompareMatchers condenses the (extended) ablation into one row per
// matcher: SOTA versus the best streamlined setting.
func CompareMatchers(ctx context.Context, cfg Config, enc *Encoded) ([]MatcherComparison, error) {
	series, err := Figure7Extended(ctx, cfg, enc)
	if err != nil {
		return nil, err
	}
	out := make([]MatcherComparison, len(series))
	for i, s := range series {
		row := MatcherComparison{Matcher: s.Matcher, SOTA: s.SOTA}
		for j, v := range s.V {
			if j == 0 || s.Evals[j].F1 > row.Best.F1 {
				row.BestV = v
				row.Best = s.Evals[j]
			}
		}
		out[i] = row
	}
	return out, nil
}
