package core

import (
	"context"
	"testing"

	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/metrics"
)

func TestSuggestVarianceValidation(t *testing.T) {
	_, sets := encodeAll(t)
	s, _ := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
	if _, err := s.SuggestVarianceContext(context.Background(), []float64{0.5, 0.6}); err == nil {
		t.Fatal("short grid should fail")
	}
}

// The suggested variance must land in a productive region: its F1 against
// ground truth should reach a substantial fraction of the best F1 on the
// grid — without ever seeing a label.
func TestSuggestVarianceLandsInProductiveBand(t *testing.T) {
	for _, d := range []*datasets.Dataset{datasets.OC3(), datasets.OC3FO()} {
		enc := embed.NewHashEncoder(embed.WithDim(256))
		sets := must(embed.EncodeSchemasContext(context.Background(), 0, enc, d.Schemas))
		scoper, err := NewScoperContext(context.Background(), 0, sets, AssessConfig{})
		if err != nil {
			t.Fatal(err)
		}
		grid := []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01}
		suggested, err := scoper.SuggestVarianceContext(context.Background(), grid)
		if err != nil {
			t.Fatal(err)
		}
		if suggested <= 0 || suggested > 1 {
			t.Fatalf("%s: suggested v = %v", d.Name, suggested)
		}

		labels := d.Labels()
		f1At := func(v float64) float64 {
			keep, err := scoper.ScopeContext(context.Background(), v)
			if err != nil {
				t.Fatal(err)
			}
			var c metrics.Confusion
			for id, kept := range keep {
				c.Observe(kept, labels[id])
			}
			return c.F1()
		}
		best := 0.0
		for _, v := range grid {
			if f1 := f1At(v); f1 > best {
				best = f1
			}
		}
		got := f1At(suggested)
		if got < 0.8*best {
			t.Errorf("%s: suggested v=%.2f gives F1 %.3f, best on grid %.3f",
				d.Name, suggested, got, best)
		}
	}
}
