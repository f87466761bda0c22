package metrics

// SweepEntry is one hyperparameter setting of a scoping sweep together with
// the confusion matrix of its linkability predictions.
type SweepEntry struct {
	// Param is the swept hyperparameter: the scoping threshold p or the
	// collaborative explained variance v, both in [0, 1].
	Param     float64
	Confusion Confusion
}

// F1Curve extracts (param, F1) points from a sweep.
func F1Curve(entries []SweepEntry) []Point {
	out := make([]Point, len(entries))
	for i, e := range entries {
		out[i] = Point{X: e.Param, Y: e.Confusion.F1()}
	}
	return out
}

// ROCPoints extracts (FPR, TPR) points from a sweep — the ROC observations
// of a parameterised (rather than score-thresholded) classifier, as in
// collaborative scoping's v sweep.
func ROCPoints(entries []SweepEntry) []Point {
	out := make([]Point, len(entries))
	for i, e := range entries {
		out[i] = Point{X: e.Confusion.FPR(), Y: e.Confusion.Recall()}
	}
	return out
}

// PRPoints extracts (recall, precision) points from a sweep.
func PRPoints(entries []SweepEntry) []Point {
	out := make([]Point, len(entries))
	for i, e := range entries {
		out[i] = Point{X: e.Confusion.Recall(), Y: e.Confusion.Precision()}
	}
	return out
}

// SweepSummary aggregates a sweep into the paper's four AUC metrics
// (Table 4 columns).
type SweepSummary struct {
	AUCF1   float64
	AUCROC  float64
	AUCROCp float64 // AUC-ROC′, smoothed and range-normalised
	AUCPR   float64
}

// Summarize computes the Table-4 AUC metrics of a sweep. rocLambda is the
// smoothing strength for AUC-ROC′.
func Summarize(entries []SweepEntry, rocLambda float64) SweepSummary {
	roc := ROCPoints(entries)
	// Anchor the ROC at (0,0): an empty prediction set is always reachable.
	roc = append(roc, Point{0, 0})
	// Anchor the PR observations at (recall 0, precision 1), matching the
	// scikit-learn convention applied to the score-based curves, so
	// sweep-based and score-based AUC-PR values are comparable.
	pr := Envelope(append(PRPoints(entries), Point{0, 1}))
	return SweepSummary{
		AUCF1:   SweepAUC(F1Curve(entries)),
		AUCROC:  TrapezoidAUC(Monotone(roc)),
		AUCROCp: SmoothedROCAUC(roc, rocLambda),
		AUCPR:   TrapezoidAUC(pr),
	}
}
