// Distributed demonstrates collaborative scoping's privacy story over a
// real network boundary — and its fault tolerance. Four organisations run
// as independent parties, each serving ONLY its trained model (mean,
// principal components, linkability range) from a local HTTP hub in wire
// format v1 (versioned JSON with a SHA-256 hash trailer, content-hash
// ETag). Every party fetches its peers' models and assesses its own schema
// locally — no table or attribute ever crosses the wire.
//
// The second half kills one party mid-run: the survivors' assessment
// rounds still complete — the exchange client retries, times out, and
// reports the dead peer instead of aborting — and their verdicts equal a
// baseline computed without the dead peer's model. Fewer foreign models
// only make collaborative scoping more conservative; nothing breaks.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"time"

	"collabscope"
)

// party is one organisation: a schema, a shared pipeline configuration,
// and an HTTP hub publishing the trained model.
type party struct {
	schema  *collabscope.Schema
	pipe    *collabscope.Pipeline
	metrics *collabscope.Metrics
	model   *collabscope.Model
	srv     *http.Server
	ln      net.Listener
}

func newParty(ctx context.Context, s *collabscope.Schema, variance float64) (*party, error) {
	p := &party{metrics: collabscope.NewMetrics()}
	p.schema = s
	p.pipe = collabscope.New(
		collabscope.WithDimension(384),
		// Fail over quickly when a peer is gone: two attempts with a short
		// per-request timeout instead of the 5 s production default.
		collabscope.WithRetryPolicy(collabscope.RetryPolicy{
			MaxAttempts: 2,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Timeout:     2 * time.Second,
		}),
		// Instrument the whole pipeline: spans, worker pool, and the
		// exchange client's per-peer latencies, retries, and ETag hits.
		collabscope.WithMetrics(p.metrics),
	)
	var err error
	p.model, err = p.pipe.TrainModelContext(ctx, s, variance)
	if err != nil {
		return nil, err
	}
	handler, err := collabscope.NewScopingServer(collabscope.WithServerModels(p.model))
	if err != nil {
		return nil, err
	}
	p.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.srv = &http.Server{Handler: handler}
	go func() { _ = p.srv.Serve(p.ln) }()
	return p, nil
}

// url returns the party's hub base URL.
func (p *party) url() string { return "http://" + p.ln.Addr().String() }

// shutdown takes the party's hub off the network.
func (p *party) shutdown() { _ = p.srv.Close() }

// assessRound has every assessor fetch the other parties' models over HTTP
// (dead hubs included — that is the point) and assess its own schema
// locally, returning each assessor's sorted keep-list and any reported
// peer failures.
func assessRound(ctx context.Context, assessors, all []*party) (map[string][]string, map[string][]collabscope.PeerError) {
	kept := map[string][]string{}
	failures := map[string][]collabscope.PeerError{}
	for _, p := range assessors {
		var peers []string
		for _, peer := range all {
			if peer != p {
				peers = append(peers, peer.url())
			}
		}
		res, err := p.pipe.AssessRemote(ctx, p.schema, peers)
		check(err)
		kept[p.schema.Name] = keepList(res.Verdicts)
		failures[p.schema.Name] = res.Failed
	}
	return kept, failures
}

func keepList(verdicts map[collabscope.ElementID]bool) []string {
	var kept []string
	for id, linkable := range verdicts {
		if linkable {
			kept = append(kept, id.String())
		}
	}
	sort.Strings(kept)
	return kept
}

func main() {
	fig := collabscope.DatasetFigure1()
	const variance = 0.3 // tiny toy schemas need a low variance
	ctx := context.Background()

	// Spin up one party per schema.
	parties := make([]*party, len(fig.Schemas))
	for i, s := range fig.Schemas {
		p, err := newParty(ctx, s, variance)
		check(err)
		parties[i] = p
		fmt.Printf("%s serving its model at %s/v1/models (%d components, range %.4g)\n",
			s.Name, p.url(), p.model.Components(), p.model.Range)
	}
	defer func() {
		for _, p := range parties {
			p.shutdown()
		}
	}()

	fmt.Println("\n--- round 1: all parties up ---")
	round1, failures1 := assessRound(ctx, parties, parties)
	for _, name := range sortedKeys(round1) {
		fmt.Printf("%s assessed linkable: %v\n", name, round1[name])
		if len(failures1[name]) > 0 {
			fmt.Printf("  unexpected failures: %v\n", failures1[name])
		}
	}

	// Kill one party mid-run. Its hub now refuses connections; the
	// survivors must keep going with one foreign model fewer.
	dead := parties[len(parties)-1]
	dead.shutdown()
	fmt.Printf("\n--- %s killed; round 2: survivors assess without it ---\n", dead.schema.Name)

	survivors := parties[:len(parties)-1]
	round2, failures2 := assessRound(ctx, survivors, parties)

	// Baseline: what each survivor would decide assessing in-process
	// against the surviving models only (no network at all);
	// AssessContext skips the survivor's own model.
	var surviving []*collabscope.Model
	for _, p := range survivors {
		surviving = append(surviving, p.model)
	}
	exitCode := 0
	for _, p := range survivors {
		verdicts, err := p.pipe.AssessContext(ctx, p.schema, surviving)
		check(err)
		want := keepList(verdicts)
		name := p.schema.Name
		fmt.Printf("%s assessed linkable: %v\n", name, round2[name])
		for _, pe := range failures2[name] {
			fmt.Printf("  missing peer reported: %v\n", pe)
		}
		if len(failures2[name]) != 1 {
			fmt.Printf("  ERROR: expected exactly the dead peer in the report, got %v\n", failures2[name])
			exitCode = 1
		}
		if !reflect.DeepEqual(round2[name], want) {
			fmt.Printf("  ERROR: verdicts diverge from the dead-peer-excluded baseline %v\n", want)
			exitCode = 1
		}
	}
	if exitCode == 0 {
		fmt.Println("\nall survivor verdicts match the dead-peer-excluded baseline; the dead peer was reported, not fatal")
	}

	// One party's metrics snapshot tells the whole story: round 1 fetched
	// every peer fresh, round 2 revalidated the survivors' unchanged models
	// (304 ETag hits — no body crossed the wire) and burned its retry
	// budget on the dead hub. Per-peer request histograms name each hub.
	watcher := survivors[0]
	snap := watcher.metrics.Snapshot()
	fmt.Printf("\n--- %s's exchange metrics ---\n", watcher.schema.Name)
	watcher.metrics.Snapshot().Fprint(os.Stdout)
	if snap.Counters["exchange.etag_hits"] == 0 {
		fmt.Println("ERROR: round 2 should have revalidated unchanged models via 304")
		exitCode = 1
	}
	if snap.Counters["exchange.retries"] == 0 {
		fmt.Println("ERROR: the dead peer should have consumed retries")
		exitCode = 1
	}
	os.Exit(exitCode)
}

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
