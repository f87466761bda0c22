package collabscope

// Evolving-schema support (DESIGN.md §15): incremental model maintenance
// across CLI invocations. UpdateModel keeps one schema's training state —
// its signature rows, plus PCA sufficient statistics while the schema has
// at least as many elements as signature dimensions — in a state
// directory, applies each schema revision as a diff, and refits only from
// the maintained state, on the pipeline's workers. AssessDeltaState keeps
// per-foreign-model score columns in the same directory, so re-assessing
// after one peer republishes re-scores only against the model that
// actually changed.

import (
	"context"

	"collabscope/internal/checkpoint"
	"collabscope/internal/core"
	"collabscope/internal/obs"
)

// ModelUpdate reports one incremental update round.
type ModelUpdate struct {
	// Model is the freshly trained model over the updated state.
	Model *Model
	// Added, Removed and Changed count the element diff this round applied.
	Added, Removed, Changed int
	// Version is the state's model version after the update; it bumps on
	// every membership change, and republishing after a bump is what lets
	// peers and the scoping service delta-assess.
	Version int64
	// Resumed reports whether prior state was found in the state directory
	// (false on the first, full fit — and after a quarantined corrupt cell,
	// which deliberately degrades to a fresh full fit).
	Resumed bool
}

// DeltaReport re-exports the delta assessment accounting: how many
// element×model passes were re-scored versus reused.
type DeltaReport = core.DeltaReport

// UpdateModel incrementally retrains the schema's model at explained
// variance v, persisting the training state in stateDir. The first call
// performs a full fit; later calls diff the schema against the maintained
// state and refit only when it changed. The result matches a from-scratch
// TrainModel bit-for-bit while the schema has fewer elements than
// signature dimensions, and within the documented
// linalg.StatsFitTolerance beyond that, where the fit reads the
// maintained statistics. Fits run on the pipeline's workers with the same
// bits at any count.
func (p *Pipeline) UpdateModel(s *Schema, v float64, stateDir string) (*ModelUpdate, error) {
	return p.UpdateModelContext(context.Background(), s, v, stateDir)
}

// UpdateModelContext is UpdateModel with cancellation.
func (p *Pipeline) UpdateModelContext(ctx context.Context, s *Schema, v float64, stateDir string) (*ModelUpdate, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.update")
	defer sp.End()
	set, err := p.EncodeContext(ctx, s)
	if err != nil {
		return nil, err
	}
	store, err := checkpoint.Open(stateDir)
	if err != nil {
		return nil, err
	}
	st, resumed, err := core.LoadModelState(store, s.Name)
	if err != nil {
		return nil, err
	}
	up := &ModelUpdate{Resumed: resumed}
	if st == nil {
		if st, err = core.NewModelState(p.workers, set); err != nil {
			return nil, err
		}
		up.Added = st.Len()
	} else {
		delta, err := st.Apply(p.workers, set)
		if err != nil {
			return nil, err
		}
		up.Added, up.Removed, up.Changed = delta.Added, delta.Removed, delta.Changed
	}
	if up.Model, err = st.Model(p.workers, v); err != nil {
		return nil, err
	}
	if err := st.Save(store); err != nil {
		return nil, err
	}
	up.Version = st.Version()
	sp.Annotate("version", up.Version)
	return up, nil
}

// AssessDeltaState is Assess with a cross-invocation delta cache in
// stateDir: per-foreign-model score columns persist between runs, keyed by
// the model's content fingerprint and the local signatures', so only
// models that actually changed since the last run are re-scored. Verdicts
// are identical to Assess — the report proves the saved work.
func (p *Pipeline) AssessDeltaState(s *Schema, foreign []*Model, stateDir string) (map[ElementID]bool, DeltaReport, error) {
	return p.AssessDeltaStateContext(context.Background(), s, foreign, stateDir)
}

// AssessDeltaStateContext is AssessDeltaState with cancellation.
func (p *Pipeline) AssessDeltaStateContext(ctx context.Context, s *Schema, foreign []*Model, stateDir string) (map[ElementID]bool, DeltaReport, error) {
	ctx, sp := obs.Start(p.obsContext(ctx), "pipeline.assess_delta")
	sp.Annotate("models", int64(len(foreign)))
	defer sp.End()
	set, err := p.EncodeContext(ctx, s)
	if err != nil {
		return nil, DeltaReport{}, err
	}
	store, err := checkpoint.Open(stateDir)
	if err != nil {
		return nil, DeltaReport{}, err
	}
	return core.AssessDeltaStore(ctx, p.workers, set, foreign, core.AssessConfig{}, store, "cli")
}
