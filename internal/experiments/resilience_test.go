package experiments

// The chaos SLO harness: a replicated scoping fleet is driven through a
// deterministic kill → restart → stall → corrupt → drain schedule while a
// resilient client (replica failover + circuit breaker + deadline budgets)
// keeps firing the same traffic. The service-level objectives asserted:
//
//   - Availability: every request of every phase succeeds — a dead, stalled
//     or draining replica costs latency, never an answer.
//   - Consistency: verdicts never deviate from the healthy-fleet baseline,
//     and corrupted model bytes are always detected, never served onward.
//   - Recovery: the victim's breaker opens under failure, half-opens after
//     the cooldown, and closes again once the replica is back.
//   - Shutdown: Drain returns cleanly with all in-flight flights settled
//     and the restarted registry serves bit-identical ETags.
//
// The schedule is seed-deterministic (internal/faultinject At-ordinals and
// listener kills at fixed phase boundaries), so a failure replays exactly.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/exchange"
	"collabscope/internal/faultinject"
	"collabscope/internal/leakcheck"
	"collabscope/internal/obs"
	"collabscope/internal/synth"
)

// TestChaosSLO drives the replicated fleet through the full kill → restart
// → stall → corrupt → drain schedule and asserts every SLO, plus zero
// leaked goroutines once the fleet is down.
func TestChaosSLO(t *testing.T) {
	leakcheck.Guard(t)
	rep, err := RunChaosSLO(DefaultChaosSLOConfig())
	if err != nil {
		t.Fatalf("RunChaosSLO: %v", err)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	t.Logf("\n%s", buf.String())

	if rep.Availability < 1.0 {
		t.Errorf("availability %.4f, want 1.0 — a replica failure cost answers", rep.Availability)
	}
	if rep.InconsistentVerdicts != 0 {
		t.Errorf("%d verdicts deviated from the healthy baseline, want 0", rep.InconsistentVerdicts)
	}
	if rep.CorruptionsDetected < 1 {
		t.Errorf("injected corruption went undetected (detected=%d)", rep.CorruptionsDetected)
	}
	if rep.CorruptionsMissed != 0 {
		t.Errorf("%d corrupted models served silently, want 0", rep.CorruptionsMissed)
	}
	if rep.BreakerOpened < 2 {
		t.Errorf("victim breaker opened %d times, want ≥ 2 (kill and stall phases)", rep.BreakerOpened)
	}
	if rep.BreakerHalfOpens < 1 || rep.BreakerClosed < 1 {
		t.Errorf("victim breaker half_opens=%d closed=%d, want ≥ 1 each (recovery)", rep.BreakerHalfOpens, rep.BreakerClosed)
	}
	if rep.BreakerFinalState != "closed" {
		t.Errorf("victim breaker ended %s, want closed", rep.BreakerFinalState)
	}
	if rep.Failovers < 1 {
		t.Errorf("no failovers recorded, expected the kill phase to force some")
	}
	if rep.HedgeWins < 1 {
		t.Errorf("no hedge wins recorded, expected the stalled primary to lose the race")
	}
	if !rep.EtagsBitIdentical {
		t.Errorf("restarted victim served different ETags than before the kill")
	}
	if !rep.DrainClean {
		t.Errorf("Drain on a live replica did not return cleanly")
	}
	if !rep.DrainRefusesTyped {
		t.Errorf("draining replica did not refuse new work with the typed %q error", "draining")
	}
	if !rep.Passed() {
		t.Errorf("report.Passed() = false, want true")
	}
}

// ChaosSLOConfig tunes the chaos SLO harness.
type ChaosSLOConfig struct {
	// Schemas is the number of business schemas published on every replica.
	Schemas int
	// Dim is the signature dimensionality.
	Dim int
	// Requests is the number of assess calls fired per phase.
	Requests int
	// Replicas is the fleet size (the first replica is the chaos victim).
	Replicas int
	// Seed drives schema minting and the fault schedules.
	Seed int64
	// AttemptTimeout is the client's per-attempt timeout; the stall phase
	// delays the victim well past it, so availability through that phase
	// proves per-attempt timeouts fail over instead of aborting.
	AttemptTimeout time.Duration
	// Cooldown is the breaker cooldown (kept short so recovery phases can
	// wait it out quickly).
	Cooldown time.Duration
}

// DefaultChaosSLOConfig returns the CI-sized harness: 3 replicas, the
// first one killed, restarted, stalled and corrupted mid-run.
func DefaultChaosSLOConfig() ChaosSLOConfig {
	return ChaosSLOConfig{
		Schemas:        3,
		Dim:            64,
		Requests:       12,
		Replicas:       3,
		Seed:           11,
		AttemptTimeout: 150 * time.Millisecond,
		Cooldown:       100 * time.Millisecond,
	}
}

// ChaosPhase is one phase's outcome: how many requests were fired against
// the fleet while the phase's fault was active, and how many succeeded.
type ChaosPhase struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	OK       int64  `json:"ok"`
	Failed   int64  `json:"failed"`
	WallNS   int64  `json:"wall_ns"`
}

// ChaosSLOReport is the harness outcome; Passed reports the SLOs.
type ChaosSLOReport struct {
	Config ChaosSLOConfig `json:"config"`
	Phases []ChaosPhase   `json:"phases"`
	// Availability is overall OK / fired across all phases (target: 1.0).
	Availability float64 `json:"availability"`
	// InconsistentVerdicts counts assess responses that deviated from the
	// healthy-fleet baseline (target: 0).
	InconsistentVerdicts int64 `json:"inconsistent_verdicts"`
	// CorruptionsDetected counts injected model-byte corruptions the client
	// caught via end-to-end checksums (the corrupt phase injects exactly
	// one); CorruptionsMissed counts fetches that returned a model whose
	// fingerprint deviates from the published ETag (target: 0).
	CorruptionsDetected int64 `json:"corruptions_detected"`
	CorruptionsMissed   int64 `json:"corruptions_missed"`
	// Breaker transition counts of the victim host over the whole run.
	BreakerOpened    int64 `json:"breaker_opened"`
	BreakerHalfOpens int64 `json:"breaker_half_opens"`
	BreakerClosed    int64 `json:"breaker_closed"`
	// BreakerFinalState is the victim breaker's state at the end ("closed"
	// when recovery worked).
	BreakerFinalState string `json:"breaker_final_state"`
	// Failovers and Retries are the client's counters over the run.
	Failovers int64 `json:"failovers"`
	Retries   int64 `json:"retries"`
	// HedgeWins counts hedged GETs won by the backup replica during the
	// stall phase (target: ≥ 1 — the hedge fired and beat the stall).
	HedgeWins int64 `json:"hedge_wins"`
	// EtagsBitIdentical reports whether the victim, restarted over its
	// persisted registry, served every model with its pre-kill ETag.
	EtagsBitIdentical bool `json:"etags_bit_identical"`
	// DrainClean reports whether Drain on a live replica returned nil with
	// all in-flight flights settled; DrainRefusesTyped whether the drained
	// replica answered new assess work with the typed draining error.
	DrainClean        bool `json:"drain_clean"`
	DrainRefusesTyped bool `json:"drain_refuses_typed"`
}

// Passed reports whether every SLO held.
func (r *ChaosSLOReport) Passed() bool {
	return r.Availability >= 1.0 &&
		r.InconsistentVerdicts == 0 &&
		r.CorruptionsDetected >= 1 && r.CorruptionsMissed == 0 &&
		r.BreakerOpened >= 2 && r.BreakerHalfOpens >= 1 && r.BreakerClosed >= 1 &&
		r.BreakerFinalState == "closed" &&
		r.Failovers >= 1 && r.HedgeWins >= 1 &&
		r.EtagsBitIdentical && r.DrainClean && r.DrainRefusesTyped
}

// Fprint renders the chaos SLO table in the benchtables style.
func (r *ChaosSLOReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "chaos SLO: replicas=%d schemas=%d requests/phase=%d seed=%d\n",
		r.Config.Replicas, r.Config.Schemas, r.Config.Requests, r.Config.Seed)
	fmt.Fprintf(w, "%-10s %9s %6s %7s %10s\n", "phase", "requests", "ok", "failed", "wall(ms)")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%-10s %9d %6d %7d %10.1f\n", p.Name, p.Requests, p.OK, p.Failed, float64(p.WallNS)/1e6)
	}
	fmt.Fprintf(w, "availability=%.4f inconsistent=%d corrupt(detected/missed)=%d/%d\n",
		r.Availability, r.InconsistentVerdicts, r.CorruptionsDetected, r.CorruptionsMissed)
	fmt.Fprintf(w, "breaker opened=%d half_opens=%d closed=%d final=%s failovers=%d retries=%d hedge_wins=%d\n",
		r.BreakerOpened, r.BreakerHalfOpens, r.BreakerClosed, r.BreakerFinalState, r.Failovers, r.Retries, r.HedgeWins)
	fmt.Fprintf(w, "etags_bit_identical=%t drain_clean=%t drain_refuses_typed=%t pass=%t\n\n",
		r.EtagsBitIdentical, r.DrainClean, r.DrainRefusesTyped, r.Passed())
}

// replicaHub is one fleet member: server, listener address and lifecycle.
type replicaHub struct {
	srv  *exchange.Server
	hs   *http.Server
	addr string
}

func (h *replicaHub) base() string { return "http://" + h.addr }
func (h *replicaHub) host() string { return h.addr }

// bootReplica starts (or restarts, on a fixed addr) one replica serving
// the registry at dir. addr "" picks a fresh loopback port.
func bootReplica(dir, addr string, models []*core.Model) (*replicaHub, error) {
	opts := []exchange.ServerOption{
		exchange.WithAdmission(exchange.AdmissionConfig{QueueDepth: 32}),
	}
	if dir != "" {
		opts = append(opts, exchange.WithRegistryDir(dir))
	}
	opts = append(opts, exchange.WithModels(models...))
	srv, err := exchange.NewServer(opts...)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos replica: %w", err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos replica listen %s: %w", addr, err)
	}
	h := &replicaHub{srv: srv, hs: &http.Server{Handler: srv}, addr: ln.Addr().String()}
	go h.hs.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on shutdown
	return h, nil
}

// RunChaosSLO mints a schema fleet, boots cfg.Replicas identical replicas
// (the first persisted to disk), and drives assess + fetch traffic through
// the kill → restart → stall → corrupt → drain schedule, collecting the
// SLO evidence described on ChaosSLOReport.
func RunChaosSLO(cfg ChaosSLOConfig) (*ChaosSLOReport, error) {
	ctx := context.Background()
	rep := &ChaosSLOReport{Config: cfg}

	// Mint one dataset and train the shared model set: every replica of a
	// group serves identical content (that is what makes it a group).
	tenants, err := synth.MintTenants(1, synth.Config{Schemas: cfg.Schemas, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	enc := Config{Dim: cfg.Dim}.Encoder()
	sets := must(embed.EncodeSchemasContext(context.Background(), 0, enc, tenants[0].Dataset.Schemas))
	var models []*core.Model
	var corpus []*exchange.AssessRequest
	for _, set := range sets {
		m, err := core.Train(set, 0.8)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos train: %w", err)
		}
		models = append(models, m)
		req := &exchange.AssessRequest{
			Schema:     m.Schema,
			IDs:        make([]string, set.Len()),
			Signatures: make([][]float64, set.Len()),
		}
		for i := range req.IDs {
			req.IDs[i] = set.IDs[i].String()
			req.Signatures[i] = set.Matrix.RowView(i)
		}
		corpus = append(corpus, req)
	}

	// Boot the fleet. The victim (replica 0) persists its registry so the
	// restart phase can prove bit-identical recovery.
	victimDir, err := os.MkdirTemp("", "chaos-slo-registry-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(victimDir)
	fleet := make([]*replicaHub, cfg.Replicas)
	for i := range fleet {
		dir := ""
		if i == 0 {
			dir = victimDir
		}
		if fleet[i], err = bootReplica(dir, "", models); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, h := range fleet {
			if h != nil {
				_ = h.hs.Close()
			}
		}
	}()
	victim := fleet[0]

	// The logical peer the client addresses; requests fail over across the
	// fleet. The victim's host is first in rotation, so every phase's fault
	// sits directly in the default request path.
	const logical = "http://chaos.fleet.invalid"
	replicas := make([]string, cfg.Replicas)
	for i, h := range fleet {
		replicas[i] = h.base()
	}
	creg := obs.NewRegistry()
	client := exchange.NewClient(
		exchange.WithMetrics(creg),
		exchange.WithRetryPolicy(exchange.RetryPolicy{
			MaxAttempts: cfg.Replicas,
			BaseDelay:   time.Millisecond,
			MaxDelay:    5 * time.Millisecond,
			Timeout:     cfg.AttemptTimeout,
		}),
		exchange.WithReplicas(logical, replicas...),
		exchange.WithBreaker(exchange.BreakerPolicy{
			ConsecutiveFailures: 2,
			Cooldown:            cfg.Cooldown,
		}),
	)

	// Record the victim's published ETags for the bit-identical check.
	preKill, err := fetchETags(victim.base(), models)
	if err != nil {
		return nil, err
	}

	// baseline[i] is the healthy fleet's verdict vector for corpus[i];
	// every later response must match it element for element.
	baseline := make([]*exchange.AssessResponse, len(corpus))

	phase := func(name string, n int) *ChaosPhase {
		rep.Phases = append(rep.Phases, ChaosPhase{Name: name, Requests: int64(n)})
		return &rep.Phases[len(rep.Phases)-1]
	}
	fire := func(p *ChaosPhase) {
		sw := obs.NewStopwatch()
		for i := 0; i < int(p.Requests); i++ {
			k := i % len(corpus)
			res, err := client.Assess(ctx, logical, "", corpus[k])
			if err != nil {
				p.Failed++
				continue
			}
			p.OK++
			if baseline[k] == nil {
				baseline[k] = res
			} else if !verdictsEqual(baseline[k], res) {
				rep.InconsistentVerdicts++
			}
		}
		p.WallNS = int64(sw.Elapsed())
	}

	// Phase 1 — healthy: the full fleet answers; responses seed the
	// consistency baseline.
	fire(phase("healthy", cfg.Requests))

	// Phase 2 — kill: the victim's listener dies mid-run. Availability must
	// hold via failover, and the victim's breaker must open.
	_ = victim.hs.Close()
	fire(phase("kill", cfg.Requests))

	// Phase 3 — restart: the victim comes back on its old address from its
	// persisted registry; after the breaker cooldown, the half-open probe
	// must close the circuit again.
	restarted, err := bootReplica(victimDir, victim.addr, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos restart: %w", err)
	}
	fleet[0] = restarted
	victim = restarted
	postRestart, err := fetchETags(victim.base(), models)
	if err != nil {
		return nil, err
	}
	rep.EtagsBitIdentical = etagsEqual(preKill, postRestart)
	time.Sleep(cfg.Cooldown + 50*time.Millisecond)
	fire(phase("restart", cfg.Requests))

	// Phase 4 — stall: the victim stalls every request well past the
	// client's per-attempt timeout. Availability through this phase proves
	// the per-attempt child deadline is retried (a conflated caller
	// deadline would abort every request on its first stalled attempt).
	// A hedged fetch client must also beat the stall via its backup.
	stallInject := faultinject.New(cfg.Seed, faultinject.Fault{
		Site: "exchange.server.request", Kind: faultinject.KindDelay,
		Rate: 1, Delay: cfg.AttemptTimeout * 3,
	})
	victim.srv.SetFaultInjector(stallInject)
	hedged := exchange.NewClient(
		exchange.WithMetrics(creg),
		exchange.WithRetryPolicy(exchange.RetryPolicy{MaxAttempts: cfg.Replicas, Timeout: cfg.AttemptTimeout}),
		exchange.WithReplicas(logical, replicas...),
		exchange.WithHedge(exchange.HedgePolicy{Delay: 20 * time.Millisecond}),
	)
	stall := phase("stall", cfg.Requests)
	fire(stall)
	for _, m := range models {
		if _, err := hedged.FetchModel(ctx, logical+"/v1/models/"+m.Schema); err != nil {
			stall.Failed++
		} else {
			stall.OK++
		}
	}
	stall.Requests += int64(len(models))
	victim.srv.SetFaultInjector(nil)

	// Phase 5 — recover: faults gone, cooldown elapsed, the breaker's probe
	// closes the circuit for good.
	time.Sleep(cfg.Cooldown + 50*time.Millisecond)
	fire(phase("recover", cfg.Requests))

	// Phase 6 — corrupt: the victim serves one model with a flipped byte
	// (deterministic At-ordinal). The client's end-to-end checksum must
	// catch it; one caller-level retry then succeeds — detected, never
	// silently wrong.
	corruptInject := faultinject.New(cfg.Seed, faultinject.Fault{
		Site: "exchange.server.body", Kind: faultinject.KindCorrupt, At: []uint64{0},
	})
	victim.srv.SetFaultInjector(corruptInject)
	fetcher := exchange.NewClient(exchange.WithReplicas(logical, victim.base()))
	corrupt := phase("corrupt", 2)
	for try := 0; try < 2; try++ {
		m, err := fetcher.FetchModel(ctx, logical+"/v1/models/"+models[0].Schema)
		if err != nil {
			// Any error on the corrupted body is a detection: the damaged
			// model never reached the caller (whether the wire checksum or
			// the JSON layer tripped first).
			rep.CorruptionsDetected++
			corrupt.Failed++
			continue
		}
		corrupt.OK++
		fp, ferr := m.Fingerprint()
		if ferr != nil || `"`+fp+`"` != preKill[models[0].Schema] {
			rep.CorruptionsMissed++
		}
	}
	// The deliberate corrupted fetch is part of the schedule, not an
	// availability miss: the SLO is that it was detected and the retry
	// recovered, which CorruptionsDetected/Missed pin separately.
	corrupt.Requests = corrupt.OK + corrupt.Failed
	victim.srv.SetFaultInjector(nil)

	// Phase 7 — drain: a live replica drains gracefully; new work on it is
	// refused with the typed draining error while the rest of the fleet
	// keeps availability at 100%.
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	rep.DrainClean = fleet[1].srv.Drain(drainCtx) == nil
	cancel()
	rep.DrainRefusesTyped = drainRefused(fleet[1].base(), corpus[0])
	fire(phase("drain", cfg.Requests))

	// Collect the evidence counters.
	var fired, ok int64
	for _, p := range rep.Phases {
		if p.Name == "corrupt" {
			continue
		}
		fired += p.Requests
		ok += p.OK
	}
	if fired > 0 {
		rep.Availability = float64(ok) / float64(fired)
	}
	snap := creg.Snapshot()
	vh := victim.host()
	rep.BreakerOpened = snap.Counters["exchange.breaker."+vh+".opened"]
	rep.BreakerHalfOpens = snap.Counters["exchange.breaker."+vh+".half_opens"]
	rep.BreakerClosed = snap.Counters["exchange.breaker."+vh+".closed"]
	rep.BreakerFinalState = client.BreakerState(vh).String()
	rep.Failovers = snap.Counters["exchange.failovers"]
	rep.Retries = snap.Counters["exchange.retries"]
	rep.HedgeWins = snap.Counters["exchange.hedge_wins"]
	return rep, nil
}

// fetchETags GETs every model's ETag directly from one replica.
func fetchETags(base string, models []*core.Model) (map[string]string, error) {
	out := make(map[string]string, len(models))
	for _, m := range models {
		resp, err := http.Get(base + "/v1/models/" + m.Schema)
		if err != nil {
			return nil, fmt.Errorf("experiments: chaos etag fetch %s: %w", m.Schema, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("experiments: chaos etag fetch %s: status %d", m.Schema, resp.StatusCode)
		}
		out[m.Schema] = resp.Header.Get("ETag")
	}
	return out, nil
}

func etagsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if v == "" || b[k] != v {
			return false
		}
	}
	return true
}

// verdictsEqual compares two assess responses element for element.
func verdictsEqual(a, b *exchange.AssessResponse) bool {
	if len(a.Verdicts) != len(b.Verdicts) {
		return false
	}
	for i := range a.Verdicts {
		if a.Verdicts[i] != b.Verdicts[i] {
			return false
		}
	}
	return true
}

// drainRefused posts one assess request directly at a draining replica and
// reports whether it was refused with the typed draining error envelope.
func drainRefused(base string, req *exchange.AssessRequest) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	resp, err := http.Post(base+"/v1/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		return false
	}
	var env exchange.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return false
	}
	return env.Error.Code == exchange.CodeDraining
}
