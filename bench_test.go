package collabscope

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 4), plus ablation benches for the design choices called out in
// DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The benches use a 384-dimensional encoder (half the paper's 768) so the
// full suite completes in minutes; pass -dim via cmd/benchtables for
// paper-fidelity runs. Custom metrics (auc_pr, f1, …) are reported through
// b.ReportMetric so the regenerated headline numbers appear in the bench
// output itself.

import (
	"context"
	"testing"

	"collabscope/internal/core"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/er"
	"collabscope/internal/experiments"
	"collabscope/internal/match"
	"collabscope/internal/metrics"
	"collabscope/internal/schema"
	"collabscope/internal/scoping"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Dim = 384
	cfg.AEModels = 2
	cfg.AEEpochs = 15
	return cfg
}

// ---------------------------------------------------------------------------
// Table 2: dataset inventory.

func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oc3 := datasets.OC3()
		ocfo := datasets.OC3FO()
		t := oc3.TotalStats()
		f := ocfo.TotalStats()
		if t.Linkable != 79 || f.Unlinkable != 208 {
			b.Fatalf("Table 2 mismatch: %+v / %+v", t, f)
		}
	}
}

// ---------------------------------------------------------------------------
// Table 3: Cartesian sizes and annotated linkages.

func BenchmarkTable3Cartesian(b *testing.B) {
	oc3 := datasets.OC3()
	ocfo := datasets.OC3FO()
	for i := 0; i < b.N; i++ {
		if schema.CartesianAttributes(oc3.Schemas) != 6617 {
			b.Fatal("OC3 attribute Cartesian mismatch")
		}
		if schema.CartesianAttributes(ocfo.Schemas) != 22379 {
			b.Fatal("OC3-FO attribute Cartesian mismatch")
		}
		ii, is := oc3.Truth.CountByType()
		if ii != 39 || is != 31 {
			b.Fatal("linkage counts mismatch")
		}
	}
}

// ---------------------------------------------------------------------------
// Table 4: scoping-method AUC comparison.

func benchmarkTable4(b *testing.B, d *datasets.Dataset) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, d))
	b.ResetTimer()
	var collab metrics.SweepSummary
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(context.Background(), cfg, enc)
		if err != nil {
			b.Fatal(err)
		}
		_, c := experiments.BestScoping(rows)
		collab = c.Summary
	}
	b.ReportMetric(100*collab.AUCF1, "auc_f1")
	b.ReportMetric(100*collab.AUCROCp, "auc_roc_prime")
	b.ReportMetric(100*collab.AUCPR, "auc_pr")
}

func BenchmarkTable4ScopingOC3(b *testing.B)   { benchmarkTable4(b, datasets.OC3()) }
func BenchmarkTable4ScopingOC3FO(b *testing.B) { benchmarkTable4(b, datasets.OC3FO()) }

// ---------------------------------------------------------------------------
// Figure 3: global distribution histogram.

func BenchmarkFigure3Histogram(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3FO()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bins := experiments.Figure3(cfg, enc, 12)
		if len(bins) != 12 {
			b.Fatal("bins mismatch")
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 5 and 6: scoping vs collaborative curves.

func benchmarkCurves(b *testing.B, d *datasets.Dataset) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, d))
	det := cfg.Detectors()[3] // PCA(v=0.5), the paper's best scoping method
	b.ResetTimer()
	var collabF1 float64
	for i := 0; i < b.N; i++ {
		sc := must(experiments.ScopingCurves(context.Background(), cfg, enc, det))
		cc, err := experiments.CollaborativeCurves(context.Background(), cfg, enc)
		if err != nil {
			b.Fatal(err)
		}
		if len(sc.Sweep) == 0 || len(cc.Sweep) == 0 {
			b.Fatal("empty curves")
		}
		collabF1 = metrics.SweepAUC(metrics.F1Curve(cc.Sweep))
	}
	b.ReportMetric(100*collabF1, "collab_auc_f1")
}

func BenchmarkFigure5Curves(b *testing.B) { benchmarkCurves(b, datasets.OC3()) }
func BenchmarkFigure6Curves(b *testing.B) { benchmarkCurves(b, datasets.OC3FO()) }

// ---------------------------------------------------------------------------
// Figure 7: matching ablation.

func benchmarkFigure7(b *testing.B, d *datasets.Dataset) {
	cfg := benchConfig()
	cfg.VGrid = []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01}
	enc := must(experiments.Encode(context.Background(), cfg, d))
	b.ResetTimer()
	var bestBoost float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure7(context.Background(), cfg, enc)
		if err != nil {
			b.Fatal(err)
		}
		bestBoost = 0
		for _, s := range series {
			for _, e := range s.Evals {
				if boost := e.PQ - s.SOTA.PQ; boost > bestBoost {
					bestBoost = boost
				}
			}
		}
	}
	b.ReportMetric(100*bestBoost, "max_pq_boost_pp")
}

func BenchmarkFigure7AblationOC3(b *testing.B)   { benchmarkFigure7(b, datasets.OC3()) }
func BenchmarkFigure7AblationOC3FO(b *testing.B) { benchmarkFigure7(b, datasets.OC3FO()) }

// ---------------------------------------------------------------------------
// §4.4 discussion numbers.

func BenchmarkDiscussionNumbers(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3FO()))
	b.ResetTimer()
	var d experiments.Discussion
	for i := 0; i < b.N; i++ {
		var err error
		d, err = experiments.Discuss(context.Background(), cfg, enc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.PassOverCartPct, "pass_over_cart_pct")
}

// ---------------------------------------------------------------------------
// Design-choice ablations (DESIGN.md §5).

// BenchmarkAblationRangeRelaxation sweeps the ε relaxation of the local
// linkability range l·(1+ε). The paper claims relaxation brings no overall
// improvement; the reported F1 metrics let the claim be inspected.
func BenchmarkAblationRangeRelaxation(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3FO()))
	for _, eps := range []float64{0, 0.25, 0.5, 1.0} {
		b.Run(fmtEps(eps), func(b *testing.B) {
			scoper, err := core.NewScoperContext(context.Background(), 0, enc.Sets, core.AssessConfig{RelaxEpsilon: eps})
			if err != nil {
				b.Fatal(err)
			}
			var f1 float64
			for i := 0; i < b.N; i++ {
				entries, err := scoper.SweepContext(context.Background(), enc.Labels, cfg.VGrid)
				if err != nil {
					b.Fatal(err)
				}
				f1 = metrics.SweepAUC(metrics.F1Curve(entries))
			}
			b.ReportMetric(100*f1, "auc_f1")
		})
	}
}

// BenchmarkAblationAcceptance compares Algorithm 2's any-model (union)
// acceptance against the stricter all-models (intersection) variant.
func BenchmarkAblationAcceptance(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3FO()))
	modes := map[string]core.AcceptanceMode{
		"AnyModel":  core.AnyModel,
		"AllModels": core.AllModels,
	}
	for name, mode := range modes {
		b.Run(name, func(b *testing.B) {
			scoper, err := core.NewScoperContext(context.Background(), 0, enc.Sets, core.AssessConfig{Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			var f1 float64
			for i := 0; i < b.N; i++ {
				entries, err := scoper.SweepContext(context.Background(), enc.Labels, cfg.VGrid)
				if err != nil {
					b.Fatal(err)
				}
				f1 = metrics.SweepAUC(metrics.F1Curve(entries))
			}
			b.ReportMetric(100*f1, "auc_f1")
		})
	}
}

// BenchmarkAblationFixedComponents compares the shared explained-variance
// knob against fixing the same component count for every schema.
func BenchmarkAblationFixedComponents(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3FO()))
	assessAll := func(models []*core.Model) metrics.Confusion {
		var c metrics.Confusion
		for i, set := range enc.Sets {
			foreign := make([]*core.Model, 0, len(models)-1)
			for j, m := range models {
				if j != i {
					foreign = append(foreign, m)
				}
			}
			for id, kept := range must(core.AssessContext(context.Background(), 0, set, foreign, core.AssessConfig{})) {
				c.Observe(kept, enc.Labels[id])
			}
		}
		return c
	}
	b.Run("SharedVariance", func(b *testing.B) {
		var f1 float64
		for i := 0; i < b.N; i++ {
			var pts []metrics.Point
			for _, v := range cfg.VGrid {
				models := make([]*core.Model, len(enc.Sets))
				for j, set := range enc.Sets {
					m, err := core.Train(set, v)
					if err != nil {
						b.Fatal(err)
					}
					models[j] = m
				}
				pts = append(pts, metrics.Point{X: v, Y: assessAll(models).F1()})
			}
			f1 = metrics.SweepAUC(pts)
		}
		b.ReportMetric(100*f1, "auc_f1")
	})
	b.Run("FixedComponents", func(b *testing.B) {
		counts := []int{1, 2, 4, 8, 16, 32}
		var best float64
		for i := 0; i < b.N; i++ {
			best = 0
			for _, n := range counts {
				models := make([]*core.Model, len(enc.Sets))
				for j, set := range enc.Sets {
					m, err := core.TrainFixedComponents(set, n)
					if err != nil {
						b.Fatal(err)
					}
					models[j] = m
				}
				if f1 := assessAll(models).F1(); f1 > best {
					best = f1
				}
			}
		}
		b.ReportMetric(100*best, "best_f1")
	})
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks.

func BenchmarkEncodeOC3FO(b *testing.B) {
	cfg := benchConfig()
	d := datasets.OC3FO()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := must(experiments.Encode(context.Background(), cfg, d))
		if enc.Union.Len() != 287 {
			b.Fatal("element count mismatch")
		}
	}
}

func BenchmarkCollaborativeScopeOC3FO(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3FO()))
	scoper, err := core.NewScoperContext(context.Background(), 0, enc.Sets, core.AssessConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scoper.ScopeContext(context.Background(), 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlobalScopingRankOC3FO(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3FO()))
	det := cfg.Detectors()[3] // PCA(v=0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := must(scoping.RankContext(context.Background(), 0, det, enc.Union))
		if r.Len() != 287 {
			b.Fatal("rank length mismatch")
		}
	}
}

func BenchmarkMatcherSIM(b *testing.B)     { benchmarkMatcher(b, match.Sim{Threshold: 0.6}) }
func BenchmarkMatcherCluster(b *testing.B) { benchmarkMatcher(b, match.Cluster{K: 5, Seed: 1}) }
func BenchmarkMatcherLSH(b *testing.B)     { benchmarkMatcher(b, match.LSH{K: 5}) }

func benchmarkMatcher(b *testing.B, m match.Matcher) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairs := must(match.MatchAllContext(context.Background(), 0, m, enc.Sets))
		if len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

func fmtEps(eps float64) string {
	switch eps {
	case 0:
		return "eps=0.00"
	case 0.25:
		return "eps=0.25"
	case 0.5:
		return "eps=0.50"
	default:
		return "eps=1.00"
	}
}

// ---------------------------------------------------------------------------
// Extension benches: synthetic heterogeneity, entity resolution, extra
// detectors and matchers.

func BenchmarkHeterogeneityKnobs(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	var adv float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Heterogeneity(context.Background(), cfg, experiments.HeterogeneityGrid(23))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Label == "domain-heterogeneous" {
				adv = p.Advantage()
			}
		}
	}
	b.ReportMetric(100*adv, "domain_advantage_pp")
}

func BenchmarkScalabilitySweep(b *testing.B) {
	cfg := benchConfig()
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Scalability(context.Background(), cfg, []int{2, 6, 10}, 1, 17)
		if err != nil {
			b.Fatal(err)
		}
		ratio = points[len(points)-1].ComplexityRatio()
	}
	b.ReportMetric(ratio, "complexity_ratio_k10")
}

func BenchmarkERScopedBlocking(b *testing.B) {
	enc := embedEncoder()
	a, bb, truth, err := er.GenerateSources(er.GenConfig{
		Shared: 40, NoiseA: 15, NoiseB: 15, UnrelatedB: 20, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	sources := []er.Source{a, bb}
	b.ResetTimer()
	var pc float64
	for i := 0; i < b.N; i++ {
		keep, err := er.Scope(enc, sources, 0.3)
		if err != nil {
			b.Fatal(err)
		}
		cands, err := er.BlockTopK(enc, sources, keep, 3)
		if err != nil {
			b.Fatal(err)
		}
		pc = er.Evaluate(cands, truth).PC
	}
	b.ReportMetric(100*pc, "blocking_pc")
}

func BenchmarkExtendedDetectors(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3FO()))
	for _, det := range cfg.ExtraDetectors() {
		b.Run(det.Name(), func(b *testing.B) {
			var sum metrics.SweepSummary
			for i := 0; i < b.N; i++ {
				sum = must(scoping.Evaluate(context.Background(), det, enc.Union, enc.Labels,
					scoping.Grid(cfg.PSteps), cfg.ROCLambda))
			}
			b.ReportMetric(100*sum.AUCPR, "auc_pr")
		})
	}
}

func BenchmarkExtendedMatchers(b *testing.B) {
	cfg := benchConfig()
	enc := must(experiments.Encode(context.Background(), cfg, datasets.OC3()))
	for _, m := range cfg.ExtraMatchers() {
		b.Run(m.Name(), func(b *testing.B) {
			var f1 float64
			for i := 0; i < b.N; i++ {
				pairs := must(match.MatchAllContext(context.Background(), 0, m, enc.Sets))
				f1 = match.Evaluate(pairs, enc.Dataset.Truth,
					match.Cartesian(enc.Dataset.Schemas)).F1
			}
			b.ReportMetric(100*f1, "f1")
		})
	}
}

func embedEncoder() embed.Encoder {
	return embed.NewHashEncoder(embed.WithDim(384))
}

// BenchmarkAblationEncoderChannels quantifies the signature encoder's
// n-gram/concept channel balance (DESIGN.md §5).
func BenchmarkAblationEncoderChannels(b *testing.B) {
	cfg := benchConfig()
	d := datasets.OC3FO()
	for _, w := range []float64{0, 0.35, 2.0} {
		b.Run(fmtWeight(w), func(b *testing.B) {
			var pr float64
			for i := 0; i < b.N; i++ {
				points, err := experiments.EncoderAblation(context.Background(), cfg, d, []float64{w})
				if err != nil {
					b.Fatal(err)
				}
				pr = points[0].AUCPR
			}
			b.ReportMetric(100*pr, "auc_pr")
		})
	}
}

// ---------------------------------------------------------------------------
// Worker-pool before/after benches on OC3-FO. The p1 variants pin the
// sequential baseline (WithParallelism(1)); the pN variants fan out over
// GOMAXPROCS workers. Run with -cpu to compare across core counts, e.g.:
//
//	go test -bench 'Parallel(EncodeAll|MatchAll|Assess)' -cpu 1,4
//
// Speedup only materialises when GOMAXPROCS > 1; on a single core the pN
// variants measure the pool's scheduling overhead instead.

func benchmarkParallelEncodeAll(b *testing.B, workers int) {
	pipe := New(WithDimension(384), WithParallelism(workers))
	schemas := DatasetOC3FO().Schemas
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := must(pipe.EncodeAllContext(context.Background(), schemas))
		if len(sets) != len(schemas) {
			b.Fatal("missing signature sets")
		}
	}
}

func BenchmarkParallelEncodeAllP1(b *testing.B) { benchmarkParallelEncodeAll(b, 1) }
func BenchmarkParallelEncodeAllPN(b *testing.B) { benchmarkParallelEncodeAll(b, 0) }

func benchmarkParallelMatchAll(b *testing.B, workers int) {
	pipe := New(WithDimension(384), WithParallelism(workers))
	schemas := DatasetOC3FO().Schemas
	m := NewSimMatcher(0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pairs := must(pipe.MatchContext(context.Background(), m, schemas)); len(pairs) == 0 {
			b.Fatal("no pairs")
		}
	}
}

func BenchmarkParallelMatchAllP1(b *testing.B) { benchmarkParallelMatchAll(b, 1) }
func BenchmarkParallelMatchAllPN(b *testing.B) { benchmarkParallelMatchAll(b, 0) }

func benchmarkParallelAssess(b *testing.B, workers int) {
	pipe := New(WithDimension(384), WithParallelism(workers))
	schemas := DatasetOC3FO().Schemas
	foreign := make([]*Model, 0, len(schemas)-1)
	for _, s := range schemas[1:] {
		m, err := pipe.TrainModelContext(context.Background(), s, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		foreign = append(foreign, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if verdicts := must(pipe.AssessContext(context.Background(), schemas[0], foreign)); len(verdicts) == 0 {
			b.Fatal("no verdicts")
		}
	}
}

func BenchmarkParallelAssessP1(b *testing.B) { benchmarkParallelAssess(b, 1) }
func BenchmarkParallelAssessPN(b *testing.B) { benchmarkParallelAssess(b, 0) }

func fmtWeight(w float64) string {
	switch w {
	case 0:
		return "ngram=0.00"
	case 0.35:
		return "ngram=0.35"
	default:
		return "ngram=2.00"
	}
}
