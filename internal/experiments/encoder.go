package experiments

import (
	"collabscope/internal/core"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
)

// EncoderAblationPoint measures collaborative scoping quality under one
// encoder configuration — quantifying the signature-channel design choices
// (DESIGN.md §5): the character-n-gram channel's weight against the
// token-concept channel.
type EncoderAblationPoint struct {
	Label       string
	NgramWeight float64
	AUCPR       float64
}

// EncoderAblation evaluates collaborative scoping on a dataset across
// encoder n-gram weights. Weight 0 disables lexical affinity entirely;
// large weights drown the synonym channel.
func EncoderAblation(cfg Config, d *datasets.Dataset, weights []float64) ([]EncoderAblationPoint, error) { // lintobs:allow the encoder-channel ablation of EXPERIMENTS.md; tests in experiments and the root package call it
	labels := d.Labels()
	out := make([]EncoderAblationPoint, 0, len(weights))
	for _, w := range weights {
		enc := embed.NewHashEncoder(embed.WithDim(cfg.Dim), embed.WithNgramWeight(w))
		sets := embed.EncodeSchemas(enc, d.Schemas)
		scoper, err := core.NewScoper(sets)
		if err != nil {
			return nil, err
		}
		sum, err := scoper.Evaluate(labels, cfg.VGrid, cfg.ROCLambda)
		if err != nil {
			return nil, err
		}
		out = append(out, EncoderAblationPoint{
			Label:       labelFor(w),
			NgramWeight: w,
			AUCPR:       sum.AUCPR,
		})
	}
	return out, nil
}

func labelFor(w float64) string {
	switch {
	case w == 0:
		return "concepts-only"
	case w < 1:
		return "balanced"
	default:
		return "ngram-heavy"
	}
}
