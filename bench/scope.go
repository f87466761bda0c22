package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
	"collabscope/internal/enrich"
	"collabscope/internal/match"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// scope_batch: the cold batch pipeline, closed loop with one caller. Each
// run enriches, encodes, fits every schema's model, scopes and matches the
// streamlined sets, as a user scoping a fresh corpus would.

var matcher = match.LSH{K: 5}

// scopeWarmups are the untimed runs before the measured window.
const scopeWarmups = 2

type scopeOut struct {
	keep  map[schema.ElementID]bool
	pairs []match.Pair
	// rows are the signatures fitted, passes the element×foreign-model
	// reconstructions, comparisons Σ|S′i|·|S′j| over the matched pairs.
	rows, passes, comparisons int
}

// scopeRun is one cold pipeline run; with a tracer it records one span per
// layer call under a root span.
func scopeRun(ctx context.Context, tr *tracer, trace int64, dim int, d *datasets.Dataset) (scopeOut, error) {
	var out scopeOut
	err := tr.call(trace, 0, "scope_batch.run", false, func(root int64) error {
		enc := embed.NewHashEncoder(embed.WithDim(dim))
		sets := make([]*embed.SignatureSet, len(d.Schemas))
		for i, s := range d.Schemas {
			var els []schema.Element
			_ = tr.call(trace, root, "enrich", false, func(int64) error {
				els = enrich.Schema(ctx, enrichers, s)
				return nil
			})
			err := tr.call(trace, root, "embed", true, func(int64) (err error) {
				sets[i], err = embed.EncodeElementsContext(ctx, workers, enc, els)
				return err
			})
			if err != nil {
				return err
			}
			out.rows += sets[i].Len()
		}
		var sc *core.Scoper
		err := tr.call(trace, root, "core.fit", true, func(int64) (err error) {
			sc, err = core.NewScoperContext(ctx, workers, sets, core.AssessConfig{})
			return err
		})
		if err != nil {
			return err
		}
		err = tr.call(trace, root, "core.scope", false, func(int64) (err error) {
			out.keep, err = sc.ScopeContext(ctx, variance)
			return err
		})
		if err != nil {
			return err
		}
		out.passes = sc.PassOperations()
		streamlined := make([]*embed.SignatureSet, len(sets))
		for i, set := range sets {
			streamlined[i] = set.Select(out.keep)
		}
		out.comparisons = comparisons(streamlined)
		return tr.call(trace, root, "match", true, func(int64) (err error) {
			out.pairs, err = match.MatchAllContext(ctx, workers, matcher, streamlined)
			return err
		})
	})
	return out, err
}

func comparisons(sets []*embed.SignatureSet) int {
	n := 0
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			n += sets[i].Len() * sets[j].Len()
		}
	}
	return n
}

// scopeReference recomputes the run's outputs by another route, untimed:
// one worker everywhere, and verdicts from Algorithm 2 directly (a model per
// schema via core.Train, then core.AssessContext against the others)
// instead of through the Scoper.
func scopeReference(ctx context.Context, dim int, d *datasets.Dataset) (keep map[schema.ElementID]bool, pairs []match.Pair, err error) {
	sets, err := encodeAll(ctx, d, dim, 1)
	if err != nil {
		return nil, nil, err
	}
	models := make([]*core.Model, len(sets))
	for i, set := range sets {
		if models[i], err = core.Train(set, variance); err != nil {
			return nil, nil, fmt.Errorf("reference train: %w", err)
		}
	}
	keep = map[schema.ElementID]bool{}
	for i, set := range sets {
		foreign := make([]*core.Model, 0, len(models)-1)
		for j, m := range models {
			if j != i {
				foreign = append(foreign, m)
			}
		}
		v, err := core.AssessContext(ctx, 1, set, foreign, core.AssessConfig{})
		if err != nil {
			return nil, nil, fmt.Errorf("reference assess: %w", err)
		}
		for id, linkable := range v {
			keep[id] = linkable
		}
	}
	streamlined := make([]*embed.SignatureSet, len(sets))
	for i, set := range sets {
		streamlined[i] = set.Select(keep)
	}
	pairs, err = match.MatchAllContext(ctx, 1, matcher, streamlined)
	return keep, pairs, err
}

func runScopeBatch(ctx context.Context, o options) (*result, error) {
	r := newResult()
	var d *datasets.Dataset
	setup, err := repeatSetup(nil, func() (err error) {
		d, err = corpus(o.size, o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)
	for i := 0; i < scopeWarmups; i++ {
		if _, err := scopeRun(ctx, nil, 0, o.size.Dim, d); err != nil {
			return nil, err
		}
	}

	var lat, tracedLat, plainLat []float64
	var got []scopeDigests
	var last scopeOut
	gc := readGC()
	var measured time.Duration // the runs' own time; collections and digests run outside it
	for i := 0; measured < o.seconds || i < minOps; i++ {
		var tr *tracer
		if o.trace != nil && i%2 == 0 {
			tr = o.trace
		}
		runtime.GC() // every run starts cold, as a fresh batch process would
		sw := obs.NewStopwatch()
		out, err := scopeRun(ctx, tr, int64(i+1), o.size.Dim, d)
		elapsed := sw.Elapsed()
		measured += elapsed
		ms := float64(elapsed) / 1e6
		r.attempted++
		if err != nil {
			r.failed++
			r.notef("run %d: %v", i, err)
			continue
		}
		lat = append(lat, ms)
		if tr != nil {
			tracedLat = append(tracedLat, ms)
		} else {
			plainLat = append(plainLat, ms)
		}
		got = append(got, scopeDigests{verdictDigest(out.keep), pairDigest(out.pairs)})
		last = out
	}
	r.set("runtime.gc_cpu_fraction", gc.fraction())

	// Verify every run against the reference and, on seed 1, the goldens.
	refKeep, refPairs, err := scopeReference(ctx, o.size.Dim, d)
	if err != nil {
		return nil, err
	}
	g, err := golden(o.size, o.seed)
	if err != nil {
		return nil, err
	}
	want := scopeDigests{verdictDigest(refKeep), pairDigest(refPairs)}
	var gold scopeDigests
	if g != nil {
		gold = scopeDigests{g.ScopeBatch.Verdicts, g.ScopeBatch.Pairs}
	}
	verifyScope(r, got, want, gold)
	r.notef("verdict digest %s, pair digest %s", want.verdicts, want.pairs)

	r.latency("latency_ms_p50", "cold run", lat)
	r.set("throughput_per_s", float64(len(lat))/measured.Seconds())
	r.set("embed.elements", float64(last.rows))
	r.set("core.fit.rows", float64(last.rows))
	r.set("core.scope.passes", float64(last.passes))
	r.set("match.comparisons", float64(last.comparisons))
	r.set("match.pairs", float64(len(last.pairs)))
	if o.trace != nil {
		selfMS, allocMB, share := layerMedians(o.trace.spans)
		for _, l := range []string{"enrich", "embed", "core.fit", "core.scope", "match"} {
			r.set(l+".self_ms", selfMS[l])
			r.set(l+".share", share[l])
		}
		for _, l := range []string{"embed", "core.fit", "match"} {
			r.set(l+".alloc_mb", allocMB[l])
		}
		r.set("layers.attributed_share", 1-share["scope_batch.run"])
		r.set("trace_overhead", median(tracedLat)/median(plainLat)-1)
	}
	return r, nil
}

type scopeDigests struct{ verdicts, pairs string }

// verifyScope counts every run whose digests differ from the in-run
// reference, or from the goldens where they apply (non-empty), as wrong.
func verifyScope(r *result, runs []scopeDigests, ref, gold scopeDigests) {
	for i, got := range runs {
		switch {
		case got != ref:
			r.wrongf("run %d: digests %v, reference %v", i, got, ref)
		case gold.verdicts != "" && got.verdicts != gold.verdicts:
			r.wrongf("run %d: verdict digest %s, golden %s", i, got.verdicts, gold.verdicts)
		case gold.pairs != "" && got.pairs != gold.pairs:
			r.wrongf("run %d: pair digest %s, golden %s", i, got.pairs, gold.pairs)
		}
	}
}
