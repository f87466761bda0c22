package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// evolve_churn: incremental maintenance, closed loop with one caller. Each
// round evolves one schema (AddElements, or RemoveElements of churn-born
// rows every third round) and delta-assesses the corpus, so model writes
// (refits) sit beside reads (delta assessment).

const (
	churnAdd        = 4  // rows added on an add round
	churnRemove     = 2  // churn-born rows removed on a remove round
	churnWarmups    = 5  // untimed rounds before the measured window
	churnCheckEvery = 50 // timed rounds between cold-reference checks
)

// churn is the evolving corpus and its deterministic schedule.
type churn struct {
	sc      *core.Scoper
	targets []int // schemas that evolve: all but the largest
	rng     *rand.Rand
	added   map[int][]schema.ElementID
	round   int
}

func newChurn(ctx context.Context, sz size, seed int64) (*churn, error) {
	d, err := corpus(sz, seed)
	if err != nil {
		return nil, err
	}
	sets, err := encodeAll(ctx, d, sz.Dim, workers)
	if err != nil {
		return nil, err
	}
	sc, err := core.NewScoperContext(ctx, workers, sets, core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	if _, _, err := sc.AssessDelta(ctx, variance); err != nil {
		return nil, err
	}
	largest := 0
	for i, set := range sets {
		if set.Len() > sets[largest].Len() {
			largest = i
		}
	}
	c := &churn{sc: sc, rng: rand.New(rand.NewSource(seed)), added: map[int][]schema.ElementID{}}
	for i := range sets {
		if i != largest {
			c.targets = append(c.targets, i)
		}
	}
	return c, nil
}

// mutation is one round's schema change, drawn before the round is timed.
type mutation struct {
	schema int
	add    *embed.SignatureSet
	remove []schema.ElementID
}

func (c *churn) next() mutation {
	i := c.targets[c.round%len(c.targets)]
	defer func() { c.round++ }()
	if c.round%3 == 2 && len(c.added[i]) >= churnRemove {
		drop := c.added[i][:churnRemove]
		c.added[i] = c.added[i][churnRemove:]
		return mutation{schema: i, remove: drop}
	}
	set := c.sc.Sets()[i]
	d := set.Matrix.Cols()
	ids := make([]schema.ElementID, churnAdd)
	m := linalg.NewDense(churnAdd, d)
	base := c.rng.Intn(set.Len())
	for k := range ids {
		ids[k] = schema.AttributeID(set.IDs[0].Schema, "churn", fmt.Sprintf("r%d_e%d", c.round, k))
		src := set.Matrix.RowView((base + k) % set.Len())
		row := m.RowView(k)
		for j := range row {
			row[j] = src[j] + 0.01*c.rng.NormFloat64()
		}
	}
	c.added[i] = append(c.added[i], ids...)
	return mutation{schema: i, add: &embed.SignatureSet{IDs: ids, Matrix: m}}
}

// apply runs one round: the mutation, then the delta assessment.
func (c *churn) apply(ctx context.Context, tr *tracer, trace int64, mu mutation) (map[schema.ElementID]bool, core.DeltaReport, error) {
	var keep map[schema.ElementID]bool
	var rep core.DeltaReport
	err := tr.call(trace, 0, "evolve_churn.round", false, func(root int64) error {
		err := tr.call(trace, root, "core.update", true, func(int64) error {
			if mu.add != nil {
				return c.sc.AddElements(mu.schema, mu.add)
			}
			return c.sc.RemoveElements(mu.schema, mu.remove...)
		})
		if err != nil {
			return err
		}
		return tr.call(trace, root, "core.delta", false, func(int64) (err error) {
			keep, rep, err = c.sc.AssessDelta(ctx, variance)
			return err
		})
	})
	return keep, rep, err
}

// coldReference scopes the current state from scratch.
func (c *churn) coldReference(ctx context.Context) (map[schema.ElementID]bool, error) {
	cold, err := core.NewScoperContext(ctx, workers, c.sc.Sets(), core.AssessConfig{})
	if err != nil {
		return nil, err
	}
	return cold.ScopeContext(ctx, variance)
}

func runEvolveChurn(ctx context.Context, o options) (*result, error) {
	r := newResult()
	var c *churn
	setup, err := repeatSetup(nil, func() (err error) {
		c, err = newChurn(ctx, o.size, o.seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)
	for i := 0; i < churnWarmups; i++ {
		if _, _, err := c.apply(ctx, nil, 0, c.next()); err != nil {
			return nil, err
		}
	}
	g, err := golden(o.size, o.seed)
	if err != nil {
		return nil, err
	}

	var lat, tracedLat, plainLat []float64
	var rescored, reused int
	var last map[schema.ElementID]bool
	unchecked := 0 // rounds since the last reference check
	gc := readGC()
	var measured time.Duration // the rounds' own time; checks run outside it
	for n := 1; measured < o.seconds || n <= minOps; n++ {
		var tr *tracer
		if o.trace != nil && n%2 == 1 {
			tr = o.trace
		}
		mu := c.next()
		sw := obs.NewStopwatch()
		keep, rep, err := c.apply(ctx, tr, int64(n), mu)
		d := sw.Elapsed()
		measured += d
		ms := float64(d) / 1e6
		r.attempted++
		unchecked++
		if err != nil {
			r.failed++
			r.notef("round %d: %v", n, err)
			continue
		}
		lat = append(lat, ms)
		if tr != nil {
			tracedLat = append(tracedLat, ms)
		} else {
			plainLat = append(plainLat, ms)
		}
		rescored += rep.Rescored
		reused += rep.Reused
		last = keep
		if n%churnCheckEvery == 0 {
			var want string
			if g != nil {
				want = g.EvolveChurn[strconv.Itoa(n)]
			}
			if err := c.check(ctx, r, keep, want, unchecked); err != nil {
				return nil, err
			}
			unchecked = 0
		}
	}
	r.set("runtime.gc_cpu_fraction", gc.fraction())
	if unchecked > 0 && last != nil {
		if err := c.check(ctx, r, last, "", unchecked); err != nil {
			return nil, err
		}
	}

	r.latency("latency_ms_p50", "round", lat)
	r.set("throughput_per_s", float64(len(lat))/measured.Seconds())
	r.set("core.delta.rescored", float64(rescored))
	r.set("core.delta.reused", float64(reused))
	if rescored+reused > 0 {
		r.set("core.delta.reuse_ratio", float64(reused)/float64(rescored+reused))
	}
	if o.trace != nil {
		upd, del, alloc := churnLayers(o.trace.spans)
		r.set("core.update.ms_p50", median(upd))
		r.set("core.update.alloc_mb", median(alloc))
		r.set("core.delta.ms_p50", median(del))
		_, _, share := layerMedians(o.trace.spans)
		r.set("layers.attributed_share", 1-share["evolve_churn.round"])
		r.set("trace_overhead", median(tracedLat)/median(plainLat)-1)
	}
	return r, nil
}

// check compares the delta verdicts after a round with a cold rescoping of
// the same state and with the golden digest (empty when none applies). On
// a mismatch every round since the previous check counts as wrong.
func (c *churn) check(ctx context.Context, r *result, keep map[schema.ElementID]bool, gold string, rounds int) error {
	cold, err := c.coldReference(ctx)
	if err != nil {
		return err
	}
	got, want := verdictDigest(keep), verdictDigest(cold)
	bad := ""
	switch {
	case got != want:
		bad = fmt.Sprintf("delta verdict digest %s, cold reference %s", got, want)
	case gold != "" && got != gold:
		bad = fmt.Sprintf("verdict digest %s, golden %s", got, gold)
	}
	if bad == "" {
		r.notef("round %d: verdict digest %s", c.round-churnWarmups, got)
		return nil
	}
	for i := 0; i < rounds; i++ {
		r.wrongf("round %d window: %s", c.round-churnWarmups, bad)
	}
	return nil
}

// churnLayers returns the per-round update and delta-assess times (ms) and
// update allocations (MB) of the traced rounds.
func churnLayers(spans []span) (update, delta, allocMB []float64) {
	for _, s := range spans {
		ms := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "core.update":
			update = append(update, ms)
			allocMB = append(allocMB, float64(s.Alloc)/(1<<20))
		case "core.delta":
			delta = append(delta, ms)
		}
	}
	return update, delta, allocMB
}
