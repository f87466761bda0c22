// Resilience demonstrates the exchange layer's fault-tolerance machinery
// end to end: a scoping service replicated across three hubs over one
// shared registry directory, a pipeline client configured with replica
// failover, a per-peer circuit breaker, and hedged GETs — then one replica
// is killed mid-run. Every assessment keeps answering through the
// survivors, the dead replica's breaker opens (visible in the metrics),
// and a graceful drain of a live replica flips its readiness probe while
// new work is refused with a typed, Retry-After-carrying error.
//
//	go run ./examples/resilience
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	"collabscope"
)

// replica is one hub of the fleet, all serving the same registry content.
type replica struct {
	srv *collabscope.ModelServer
	hs  *http.Server
	ln  net.Listener
}

func (r *replica) url() string { return "http://" + r.ln.Addr().String() }
func (r *replica) kill()       { _ = r.hs.Close() }
func bootReplica(dir string) (*replica, error) {
	srv, err := collabscope.NewScopingServer(
		collabscope.WithServerRegistry(dir),
		collabscope.WithServerMetrics(collabscope.NewMetrics()),
	)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &replica{srv: srv, hs: &http.Server{Handler: srv}, ln: ln}
	go func() { _ = r.hs.Serve(ln) }()
	return r, nil
}

func main() {
	exitCode := 0
	fig := collabscope.DatasetFigure1()
	const variance = 0.3

	// One registry directory shared by the whole fleet: every replica
	// serves bit-identical models (content-hash ETags prove it).
	dir, err := os.MkdirTemp("", "resilience-registry-*")
	check(err)
	defer os.RemoveAll(dir)

	// Train one model per schema and seed the registry through replica 0.
	seedMetrics := collabscope.NewMetrics()
	seeder := collabscope.New(collabscope.WithDimension(384), collabscope.WithMetrics(seedMetrics))
	fleet := make([]*replica, 3)
	for i := range fleet {
		fleet[i], err = bootReplica(dir)
		check(err)
	}
	ctx := context.Background()
	models := make([]*collabscope.Model, len(fig.Schemas))
	for i, s := range fig.Schemas {
		models[i], err = seeder.TrainModelContext(ctx, s, variance)
		check(err)
		check(seeder.UploadModel(ctx, fleet[0].url(), "", models[i]))
	}
	// Restart replicas 1 and 2 so they load the seeded registry.
	for i := 1; i < len(fleet); i++ {
		fleet[i].kill()
		fleet[i], err = bootReplica(dir)
		check(err)
	}
	fmt.Printf("fleet of %d replicas serving %d models from %s\n", len(fleet), len(models), dir)

	// The assessing party: replica failover + circuit breaker + hedged
	// GETs, all under one logical peer URL that is itself unroutable.
	const logical = "http://scoping.fleet.invalid"
	metrics := collabscope.NewMetrics()
	pipe := collabscope.New(
		collabscope.WithDimension(384),
		collabscope.WithMetrics(metrics),
		collabscope.WithRetryPolicy(collabscope.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   10 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Timeout:     2 * time.Second,
		}),
		collabscope.WithPeerReplicas(logical, fleet[0].url(), fleet[1].url(), fleet[2].url()),
		collabscope.WithCircuitBreaker(collabscope.BreakerPolicy{
			ConsecutiveFailures: 2,
			Cooldown:            500 * time.Millisecond,
		}),
		collabscope.WithHedgedGets(collabscope.HedgePolicy{Delay: 25 * time.Millisecond}),
	)

	assess := func(label string) *collabscope.RemoteAssessment {
		res, err := pipe.AssessServer(ctx, fig.Schemas[0], logical, "")
		check(err)
		fmt.Printf("%-28s %d verdicts against %d foreign models\n", label+":", len(res.Verdicts), len(res.Used))
		return res
	}
	baseline := assess("all replicas up")

	// Kill the first replica — the default first hop of every request. The
	// client fails over, and after two consecutive connection failures the
	// dead host's breaker opens so later calls skip it without a timeout.
	victim := fleet[0]
	victimHost := victim.ln.Addr().String()
	victim.kill()
	fmt.Printf("\nreplica %s killed\n", victimHost)
	for i := 0; i < 3; i++ {
		res := assess(fmt.Sprintf("after kill, call %d", i+1))
		if !reflect.DeepEqual(res.Verdicts, baseline.Verdicts) {
			fmt.Println("ERROR: verdicts deviated after failover")
			exitCode = 1
		}
	}
	snap := metrics.Snapshot()
	if snap.Counters["exchange.failovers"] == 0 {
		fmt.Println("ERROR: no failovers recorded")
		exitCode = 1
	}
	breakerState := snap.Gauges["exchange.breaker."+victimHost+".state"]
	fmt.Printf("\nfailovers=%d retries=%d breaker[%s].state=%d (0 closed, 1 half-open, 2 open)\n",
		snap.Counters["exchange.failovers"], snap.Counters["exchange.retries"], victimHost, breakerState)

	// Gracefully drain a live replica: liveness stays green, readiness
	// flips, and new assess work is refused with the typed draining error.
	drained := fleet[1]
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	check(drained.srv.Drain(dctx))
	hz := probe(drained.url() + "/v1/healthz")
	rz := probe(drained.url() + "/v1/readyz")
	fmt.Printf("\ndrained %s: healthz=%q readyz=%q\n", drained.ln.Addr().String(), hz, rz)
	if hz != "ok" || rz != "draining" {
		fmt.Println("ERROR: drained replica's health surface is wrong")
		exitCode = 1
	}

	// The fleet still answers: the drained replica's refusals are
	// retryable, so the client lands on the last healthy replica.
	res := assess("after drain")
	if !reflect.DeepEqual(res.Verdicts, baseline.Verdicts) {
		fmt.Println("ERROR: verdicts deviated after drain")
		exitCode = 1
	}
	for _, r := range fleet[1:] {
		r.kill()
	}
	if exitCode == 0 {
		fmt.Println("\nevery assessment answered identically through kill, breaker, and drain")
	}
	os.Exit(exitCode)
}

// probe GETs a health route and returns the reported status string.
func probe(url string) string {
	resp, err := http.Get(url)
	check(err)
	defer resp.Body.Close()
	var hr struct {
		Status string `json:"status"`
	}
	check(json.NewDecoder(resp.Body).Decode(&hr))
	return hr.Status
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
