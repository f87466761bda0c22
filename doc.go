// Package collabscope is a from-scratch Go implementation of
// "Collaborative Scoping: Self-Supervised Linkability Assessment for Schema
// Matching" (Traeger, Behrend, Karabatis — EDBT 2026).
//
// Multi-source schema matching suffers from unlinkable tables and
// attributes: elements that have no semantic counterpart in any other
// schema, yet occupy the matching search space and degrade linkage quality.
// Collaborative scoping prunes them ahead of matching. Each schema
// self-trains a PCA encoder-decoder over signature embeddings of its own
// elements and publishes the model {mean, principal components, linkability
// range}; every schema then assesses its own elements against the other
// schemas' models — an element is linkable iff some foreign model
// reconstructs it within that model's linkability range. Only models are
// exchanged, never schema elements.
//
// The package offers the full pipeline:
//
//	pipe := collabscope.New()
//	schemas := []*collabscope.Schema{s1, s2, s3}
//	res, err := pipe.CollaborativeScopeContext(ctx, schemas, 0.8)
//	if err != nil {
//		return err // a failed assessment is never an empty result
//	}
//	// res.Streamlined now holds the pruned schemas; feed them to a matcher:
//	pairs, err := pipe.MatchContext(ctx, collabscope.NewLSHMatcher(5), res.Streamlined)
//
// The distributed deployment the paper sketches is first-class: a party
// publishes its trained model over HTTP with NewScopingServer and assesses
// against its peers with Pipeline.AssessRemote / CollaborativeScopeRemote,
// which tolerate flaky peers — missing models only make the verdicts more
// conservative, and the result reports who was absent (see remote.go).
//
// Alongside the contribution it ships every substrate and baseline the
// paper evaluates against: global scoping with Z-score / LOF / PCA /
// autoencoder outlier detection, the SIM / CLUSTER / LSH matchers, the
// evaluation metrics (PQ, PC, F1, RR, AUC-F1/ROC/ROC′/PR), a SQL-DDL
// parser, and the re-created OC3 / OC3-FO datasets. See DESIGN.md for the
// architecture and EXPERIMENTS.md for the paper-versus-measured record.
package collabscope
