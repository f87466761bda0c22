// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4) on the re-created OC3 and OC3-FO datasets: the
// dataset inventories (Tables 2-3), the scoping-method AUC comparison
// (Table 4), the global-distribution illustration (Figure 3), the
// performance/ROC/PR curves (Figures 5-6), the matching ablation
// (Figure 7), and the discussion numbers of Section 4.4.
//
// The harness is shared by cmd/benchtables, the repository's benchmarks,
// and the claim-level tests that pin the paper's qualitative results.
package experiments

import (
	"context"
	"fmt"

	"collabscope/internal/linalg"

	"collabscope/internal/core"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/metrics"
	"collabscope/internal/outlier"
	"collabscope/internal/schema"
	"collabscope/internal/scoping"
)

// Config tunes the experiment harness. The zero value is not usable; call
// DefaultConfig (paper-fidelity settings) or FastConfig (reduced settings
// for tests).
type Config struct {
	// Dim is the signature dimensionality (paper: 768).
	Dim int
	// PSteps is the resolution of the scoping threshold grid p ∈ (0..1).
	PSteps int
	// VGrid is the explained-variance grid for collaborative scoping,
	// descending from 1.
	VGrid []float64
	// ROCLambda is the smoothing strength of the AUC-ROC′ spline.
	ROCLambda float64
	// AEModels and AEEpochs configure the autoencoder baseline ensemble
	// (paper: 100 models × 50 epochs; defaults are reduced — the ensemble
	// effect saturates far earlier and pure-Go training is the cost).
	AEModels, AEEpochs int
	// Seed drives all stochastic components.
	Seed int64
	// Checkpoint, when non-nil, persists every collaborative sweep cell as
	// it completes (see internal/checkpoint), so a killed benchmark run
	// resumes where it stopped and reproduces bit-identical tables. Nil
	// keeps the sweeps in memory only.
	Checkpoint core.CellStore
}

// DefaultConfig returns paper-fidelity settings.
func DefaultConfig() Config {
	return Config{
		Dim:       embed.DefaultDim,
		PSteps:    50,
		VGrid:     VarianceGrid(0.05),
		ROCLambda: 0.002,
		AEModels:  5,
		AEEpochs:  30,
		Seed:      1,
	}
}

// FastConfig returns reduced settings for unit tests.
func FastConfig() Config {
	return Config{
		Dim:       192,
		PSteps:    25,
		VGrid:     VarianceGrid(0.1),
		ROCLambda: 0.002,
		AEModels:  2,
		AEEpochs:  15,
		Seed:      1,
	}
}

// VarianceGrid returns a descending explained-variance grid 1.0, 1-step, …
// down to step, with a final 0.01 point (the paper's "even the lowest
// variance value v = 0.01" probe).
func VarianceGrid(step float64) []float64 {
	var out []float64
	for v := 1.0; v > step/2; v -= step {
		out = append(out, round2(v))
	}
	if out[len(out)-1] > 0.01 {
		out = append(out, 0.01)
	}
	return out
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}

// Encoder returns the shared signature encoder of the configuration.
func (c Config) Encoder() embed.Encoder {
	return embed.NewHashEncoder(embed.WithDim(c.Dim))
}

// Encoded bundles a dataset with its per-schema and unified signature sets.
type Encoded struct {
	Dataset *datasets.Dataset
	Sets    []*embed.SignatureSet
	Union   *embed.SignatureSet
	Labels  map[schema.ElementID]bool
}

// Encode prepares a dataset for the experiments.
func Encode(ctx context.Context, cfg Config, d *datasets.Dataset) (*Encoded, error) {
	sets, err := embed.EncodeSchemasContext(ctx, 0, cfg.Encoder(), d.Schemas)
	if err != nil {
		return nil, err
	}
	return &Encoded{
		Dataset: d,
		Sets:    sets,
		Union:   embed.Union(sets),
		Labels:  d.Labels(),
	}, nil
}

// ---------------------------------------------------------------------------
// Table 4: scoping-method comparison.

// Table4Row is one method/dataset cell group of Table 4.
type Table4Row struct {
	Method  string // "Scoping" or "Collaborative"
	ODA     string
	Dataset string
	Summary metrics.SweepSummary
}

// Detectors returns the paper's scoping baselines in Table-4 order.
func (c Config) Detectors() []outlier.Detector {
	return []outlier.Detector{
		outlier.ZScore{},
		outlier.LOF{Neighbors: 20},
		outlier.PCA{Variance: 0.3},
		outlier.PCA{Variance: 0.5},
		outlier.PCA{Variance: 0.7},
		outlier.Autoencoder{Models: c.AEModels, Epochs: c.AEEpochs, Seed: c.Seed},
	}
}

// ExtraDetectors returns the detectors this repository adds beyond the
// paper's baselines, for the extended Table-4 variant.
func (c Config) ExtraDetectors() []outlier.Detector {
	return []outlier.Detector{
		outlier.KNNDistance{K: 10},
		outlier.Mahalanobis{},
		outlier.IsolationForest{Trees: 100, Seed: c.Seed},
	}
}

// Table4Extended is Table4 with the repository's additional detectors
// appended to the baseline suite.
func Table4Extended(ctx context.Context, cfg Config, enc *Encoded) ([]Table4Row, error) {
	rows, err := Table4(ctx, cfg, enc)
	if err != nil {
		return nil, err
	}
	grid := scoping.Grid(cfg.PSteps)
	for _, det := range cfg.ExtraDetectors() {
		sum, err := scoping.Evaluate(ctx, det, enc.Union, enc.Labels, grid, cfg.ROCLambda)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{
			Method: "Scoping+", ODA: det.Name(), Dataset: enc.Dataset.Name, Summary: sum,
		})
	}
	return rows, nil
}

// Table4 evaluates all scoping baselines and collaborative scoping on one
// encoded dataset.
func Table4(ctx context.Context, cfg Config, enc *Encoded) ([]Table4Row, error) {
	grid := scoping.Grid(cfg.PSteps)
	var rows []Table4Row
	for _, det := range cfg.Detectors() {
		sum, err := scoping.Evaluate(ctx, det, enc.Union, enc.Labels, grid, cfg.ROCLambda)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{
			Method: "Scoping", ODA: det.Name(), Dataset: enc.Dataset.Name, Summary: sum,
		})
	}
	scoper, err := core.NewScoperContext(ctx, 0, enc.Sets, core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	sweep, err := collabSweep(ctx, cfg, enc, scoper)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table4Row{
		Method: "Collaborative", ODA: "PCA", Dataset: enc.Dataset.Name,
		Summary: metrics.Summarize(sweep, cfg.ROCLambda),
	})
	return rows, nil
}

// collabSweep runs the collaborative explained-variance sweep, routed
// through the checkpoint store when one is configured. The cell prefix
// encodes the dataset and signature dimensionality — everything a cell
// depends on besides v — so Table4 and CollaborativeCurves share cells and
// a store populated under one configuration can never poison another.
func collabSweep(ctx context.Context, cfg Config, enc *Encoded, scoper *core.Scoper) ([]metrics.SweepEntry, error) {
	prefix := fmt.Sprintf("%s/dim=%d/collab", enc.Dataset.Name, cfg.Dim)
	return scoper.SweepCheckpointedContext(ctx, enc.Labels, cfg.VGrid, cfg.Checkpoint, prefix)
}

// BestScoping returns the scoping row with the highest AUC-PR (the paper's
// primary metric) and the collaborative row.
func BestScoping(rows []Table4Row) (best, collaborative Table4Row) { // lintobs:allow tests in experiments and the root package's Table 4 benches call it
	for _, r := range rows {
		if r.Method == "Collaborative" {
			collaborative = r
			continue
		}
		if r.Summary.AUCPR > best.Summary.AUCPR {
			best = r
		}
	}
	return best, collaborative
}

// ---------------------------------------------------------------------------
// Figures 5 and 6: performance, ROC, and PR curves.

// CurveSet holds the series plotted in one column of Figures 5/6.
type CurveSet struct {
	Label string
	// Sweep holds the per-parameter confusion matrices (x-axis: p for
	// scoping, v for collaborative).
	Sweep []metrics.SweepEntry
	// ROC and PR are the curve observations; for scoping they derive from
	// the continuous outlier scores, for collaborative from the sweep.
	ROC, PR []metrics.Point
	// ROCSmoothed is the monotonically sorted ROC′.
	ROCSmoothed []metrics.Point
}

// ScopingCurves produces the Figure 5/6 (a, c, e) series for one detector.
func ScopingCurves(ctx context.Context, cfg Config, enc *Encoded, det outlier.Detector) (CurveSet, error) {
	r, err := scoping.RankContext(ctx, 0, det, enc.Union)
	if err != nil {
		return CurveSet{}, err
	}
	sweep := r.Sweep(enc.Labels, scoping.Grid(cfg.PSteps))
	scores := r.LinkableScores()
	labels := r.LabelsFor(enc.Labels)
	roc := metrics.ROCFromScores(scores, labels)
	return CurveSet{
		Label:       "Scoping " + det.Name(),
		Sweep:       sweep,
		ROC:         roc,
		PR:          metrics.PRFromScores(scores, labels),
		ROCSmoothed: metrics.Monotone(roc),
	}, nil
}

// CollaborativeCurves produces the Figure 5/6 (b, d, f) series.
func CollaborativeCurves(ctx context.Context, cfg Config, enc *Encoded) (CurveSet, error) {
	scoper, err := core.NewScoperContext(ctx, 0, enc.Sets, core.AssessConfig{})
	if err != nil {
		return CurveSet{}, err
	}
	sweep, err := collabSweep(ctx, cfg, enc, scoper)
	if err != nil {
		return CurveSet{}, err
	}
	roc := append(metrics.ROCPoints(sweep), metrics.Point{X: 0, Y: 0})
	return CurveSet{
		Label:       "Collaborative Scoping PCA",
		Sweep:       sweep,
		ROC:         metrics.Monotone(roc),
		PR:          metrics.Envelope(append(metrics.PRPoints(sweep), metrics.Point{X: 0, Y: 1})),
		ROCSmoothed: metrics.Monotone(roc),
	}, nil
}

// ---------------------------------------------------------------------------
// Figure 3: the global normal distribution illustration.

// HistogramBin is one bucket of the Figure-3 projection histogram.
type HistogramBin struct {
	Low, High float64
	// CountBySchema maps schema name to the number of signatures whose
	// first-principal-component projection falls in the bucket.
	CountBySchema map[string]int
}

// Figure3 projects all signatures of the dataset onto the first principal
// component of the unified set and buckets them per schema — showing how
// the unrelated schema occupies the global distribution's mass.
func Figure3(cfg Config, enc *Encoded, bins int) []HistogramBin {
	if bins < 1 {
		bins = 10
	}
	fit := linalg.FitPCA(enc.Union.Matrix, 1e-9) // first principal component only
	proj := fit.Encode(enc.Union.Matrix)
	lo, hi := proj.At(0, 0), proj.At(0, 0)
	for i := 1; i < proj.Rows(); i++ {
		v := proj.At(i, 0)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	out := make([]HistogramBin, bins)
	width := (hi - lo) / float64(bins)
	for b := range out {
		out[b] = HistogramBin{
			Low:           lo + float64(b)*width,
			High:          lo + float64(b+1)*width,
			CountBySchema: map[string]int{},
		}
	}
	for i := 0; i < proj.Rows(); i++ {
		b := int((proj.At(i, 0) - lo) / width)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		out[b].CountBySchema[enc.Union.IDs[i].Schema]++
	}
	return out
}

// ---------------------------------------------------------------------------
// Section 4.4 discussion numbers.

// Discussion holds the pre-processing trade-off numbers of Section 4.4.
type Discussion struct {
	PassOperations   int     // encoder-decoder passes |S|·|M|
	CartesianSize    int     // same-kind Cartesian product of the originals
	PassOverCartPct  float64 // passes as % of the Cartesian size
	PrunedAtMinV     int     // elements pruned at v = 0.01
	PrunedAtMinVPct  float64
	FalselyPrunedMin int // linkable elements pruned at v = 0.01
}

// Discuss computes the Section-4.4 numbers for one encoded dataset.
func Discuss(ctx context.Context, cfg Config, enc *Encoded) (Discussion, error) {
	scoper, err := core.NewScoperContext(ctx, 0, enc.Sets, core.AssessConfig{})
	if err != nil {
		return Discussion{}, err
	}
	keep, err := scoper.ScopeContext(ctx, 0.01)
	if err != nil {
		return Discussion{}, err
	}
	var d Discussion
	d.PassOperations = scoper.PassOperations()
	d.CartesianSize = schema.CartesianTables(enc.Dataset.Schemas) +
		schema.CartesianAttributes(enc.Dataset.Schemas)
	d.PassOverCartPct = 100 * float64(d.PassOperations) / float64(d.CartesianSize)
	total := 0
	for id, kept := range keep {
		total++
		if !kept {
			d.PrunedAtMinV++
			if enc.Labels[id] {
				d.FalselyPrunedMin++
			}
		}
	}
	d.PrunedAtMinVPct = 100 * float64(d.PrunedAtMinV) / float64(total)
	return d, nil
}
