package collabscope

// Hot-path benchmarks for the data-plane stages the blocked-kernel layer
// (internal/linalg, DESIGN.md §11) accelerates: the Composite matcher, the
// pairwise-distance detectors, the autoencoder ensemble, and flat top-k
// search. All run at OC3-FO scale (287 elements × 384 dims) so the numbers
// line up with the Table-4 runtime discussion. Run with:
//
//	go test -run xxx -bench 'HotPath' -benchmem
import (
	"context"
	"testing"

	"collabscope/internal/ann"
	"collabscope/internal/datasets"
	"collabscope/internal/experiments"
	"collabscope/internal/match"
	"collabscope/internal/outlier"
)

func ocfoEncoded(b *testing.B) *experiments.Encoded {
	b.Helper()
	return must(experiments.Encode(context.Background(), benchConfig(), datasets.OC3FO()))
}

func BenchmarkHotPathMatcherComposite(b *testing.B) {
	enc := ocfoEncoded(b)
	m := match.Composite{Threshold: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(match.MatchAllContext(context.Background(), 0, m, enc.Sets))
	}
}

func BenchmarkHotPathMatcherSim(b *testing.B) {
	enc := ocfoEncoded(b)
	m := match.Sim{Threshold: 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(match.MatchAllContext(context.Background(), 0, m, enc.Sets))
	}
}

func BenchmarkHotPathDetectorLOF(b *testing.B) {
	enc := ocfoEncoded(b)
	det := outlier.LOF{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Scores(context.Background(), 1, enc.Union.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathDetectorKNN(b *testing.B) {
	enc := ocfoEncoded(b)
	det := outlier.KNNDistance{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Scores(context.Background(), 1, enc.Union.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathDetectorAutoencoder(b *testing.B) {
	enc := ocfoEncoded(b)
	det := outlier.Autoencoder{Models: 1, Epochs: 5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Scores(context.Background(), 1, enc.Union.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathFlatSearch(b *testing.B) {
	enc := ocfoEncoded(b)
	idx := ann.NewFlatIndex(enc.Union.Matrix)
	queries := enc.Union.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 0; q < queries.Rows(); q++ {
			idx.Search(queries.RowView(q), 10)
		}
	}
}
