package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/exchange"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/synth"
)

// serve_unique / serve_mixed: the multi-tenant /v1 service on loopback.
// Three phases share the measured window: an open loop at lowRate (2/5 of
// the time), an open loop at highRate (1/5) and a closed loop over both
// connections (the rest). serve_unique sends only distinct assess
// bodies, so neither coalescing nor cached score columns can help;
// serve_mixed mostly replays hot bodies and republishes models, so both
// do, beside registry writes.

const (
	lowRate    = 15.0 // requests per second
	highRate   = 40.0
	queueDepth = 64
	// hotBodies is how many distinct bodies serve_mixed replays.
	hotBodies = 8
	// maxLag is how late the generator may issue a request before the
	// run's latencies stop describing the schedule they claim.
	maxLag = 50 * time.Millisecond
	// serveCycle is the length of one low/high/capacity cycle.
	serveCycle = 5 * time.Second
	// serveWarmup is the untimed closed loop before the first cycle, which
	// lets connections open and the heap grow to its working size.
	serveWarmup = time.Second
	// replays is how many low-phase bodies a traced run replays serially
	// to split the handler into JSON decode and scoring.
	replays = 20
	// reqHeader carries the request ID the handler timer files its time
	// under; traced requests only.
	reqHeader = "X-Bench-Req"
	// nonceDigits is the width of the nonce written into each assess body.
	nonceDigits = 6
)

// template is one schema's pre-encoded assess body. The first signature
// value is written as a fixed-width slot whose last nonceDigits digits
// hold a nonce, so distinct nonces make distinct bodies (and distinct
// signatures) without encoding JSON while timed.
type template struct {
	tenant, schema string
	set            *embed.SignatureSet
	body           []byte
	slot           int    // offset of the slot text in body
	slotText       string // the slot with a zero nonce
	others         []string
}

// sentinel marks the slot while the template is marshalled.
const sentinel = 0.123456789123

func newTemplate(tenant string, set *embed.SignatureSet, others []string) (template, error) {
	req := exchange.AssessRequest{Schema: set.IDs[0].Schema, IDs: make([]string, set.Len()), Signatures: make([][]float64, set.Len())}
	for i := range req.IDs {
		req.IDs[i] = set.IDs[i].String()
		req.Signatures[i] = set.Matrix.RowView(i)
	}
	first := append([]float64(nil), req.Signatures[0]...)
	first[0] = sentinel
	req.Signatures[0] = first
	body, err := json.Marshal(req)
	if err != nil {
		return template{}, fmt.Errorf("encode assess body: %w", err)
	}
	marker := `"signatures":[[` + strconv.FormatFloat(sentinel, 'g', -1, 64)
	at := bytes.Index(body, []byte(marker))
	if at < 0 {
		return template{}, errors.New("assess body lacks the slot marker")
	}
	at += len(`"signatures":[[`)
	// "% .6f" is 9 characters for any |v| ≤ 1 (signatures are unit
	// vectors); a leading space is valid JSON whitespace.
	slotText := fmt.Sprintf("% .6f", set.Matrix.At(0, 0)) + strings.Repeat("0", nonceDigits)
	out := make([]byte, 0, len(body)+len(slotText))
	out = append(out, body[:at]...)
	out = append(out, slotText...)
	out = append(out, body[at+len(marker)-len(`"signatures":[[`):]...)
	return template{
		tenant: tenant, schema: req.Schema, set: set,
		body: out, slot: at, slotText: slotText, others: others,
	}, nil
}

// putNonce writes nonce as the nonceDigits digits that end at end.
func putNonce(b []byte, end, nonce int) {
	for i := 1; i <= nonceDigits; i++ {
		b[end-i] = byte('0' + nonce%10)
		nonce /= 10
	}
}

// writeNonce writes nonce into the slot of a copy of the template body.
func (t *template) writeNonce(b []byte, nonce int) {
	putNonce(b, t.slot+len(t.slotText), nonce)
}

// local returns the signature set a body with this nonce carries.
func (t *template) local(nonce int) (*embed.SignatureSet, error) {
	b := []byte(t.slotText)
	putNonce(b, len(b), nonce)
	v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return nil, fmt.Errorf("parse slot %q: %w", b, err)
	}
	m := linalg.NewDense(t.set.Len(), t.set.Matrix.Cols())
	for i := 0; i < t.set.Len(); i++ {
		copy(m.RowView(i), t.set.Matrix.RowView(i))
	}
	m.RowView(0)[0] = v
	return &embed.SignatureSet{IDs: t.set.IDs, Matrix: m}, nil
}

// republish is one tenant's alternating schema in serve_mixed: two models
// pre-trained in setup, each upload switching to the other one.
type republish struct {
	bodies [2][]byte
	etags  [2]string
}

// fleet is the service under test and everything the load needs.
type fleet struct {
	hub     *hub
	tenants []string
	tmpls   []template
	alt     []republish
	// models maps every ETag uploaded to its model, for the reference.
	models map[string]*core.Model
}

func newFleet(ctx context.Context, sz size, seed int64, mixed bool, tmpdir string) (f *fleet, err error) {
	scen, err := synth.MintTenants(sz.Tenants, sz.synth(sz.TenantSchemas, 0, seed))
	if err != nil {
		return nil, err
	}
	dir := ""
	if mixed {
		if dir, err = os.MkdirTemp(tmpdir, "bench-registry-"); err != nil {
			return nil, fmt.Errorf("registry dir: %w", err)
		}
	}
	h, err := startHub(dir)
	if err != nil {
		if dir != "" {
			os.RemoveAll(dir)
		}
		return nil, err
	}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	f = &fleet{hub: h, models: map[string]*core.Model{}}
	up := exchange.NewClient()
	upload := func(tenant string, m *core.Model) (string, error) {
		resp, err := up.Upload(ctx, h.base, tenant, m)
		if err != nil {
			return "", fmt.Errorf("upload %s/%s: %w", tenant, m.Schema, err)
		}
		f.models[resp.ETag] = m
		return resp.ETag, nil
	}
	for _, t := range scen {
		f.tenants = append(f.tenants, t.Tenant)
		sets, err := encodeAll(ctx, t.Dataset, sz.Dim, workers)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(sets))
		for i, set := range sets {
			names[i] = set.IDs[0].Schema
		}
		sort.Strings(names)
		for _, set := range sets {
			m, err := core.Train(set, variance)
			if err != nil {
				return nil, err
			}
			if _, err := upload(t.Tenant, m); err != nil {
				return nil, err
			}
			var others []string
			for _, n := range names {
				if n != m.Schema {
					others = append(others, n)
				}
			}
			tmpl, err := newTemplate(t.Tenant, set, others)
			if err != nil {
				return nil, err
			}
			f.tmpls = append(f.tmpls, tmpl)
		}
		if mixed {
			rp, err := f.prepareRepublish(t.Tenant, sets[0], upload)
			if err != nil {
				return nil, err
			}
			f.alt = append(f.alt, rp)
		}
	}
	return f, nil
}

// prepareRepublish trains the second model of a tenant's alternating
// schema (at a higher variance, so its content differs), uploads it and
// then the first again, leaving the first published.
func (f *fleet) prepareRepublish(tenant string, set *embed.SignatureSet, upload func(string, *core.Model) (string, error)) (republish, error) {
	var rp republish
	for k, v := range []float64{variance, 0.9} {
		m, err := core.Train(set, v)
		if err != nil {
			return rp, err
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			return rp, err
		}
		rp.bodies[k] = buf.Bytes()
		if k == 1 {
			if rp.etags[1], err = upload(tenant, m); err != nil {
				return rp, err
			}
		}
	}
	first, err := core.ReadModelJSON(bytes.NewReader(rp.bodies[0]))
	if err != nil {
		return rp, err
	}
	rp.etags[0], err = upload(tenant, first)
	return rp, err
}

func (f *fleet) close() error {
	if f == nil || f.hub == nil {
		return nil
	}
	err := f.hub.close()
	f.hub = nil
	return err
}

// hub is the exchange server on a loopback listener, behind a wrapper that
// times ServeHTTP for requests carrying reqHeader.
type hub struct {
	srv    *exchange.Server
	reg    *obs.Registry
	hs     *http.Server
	served chan error
	base   string
	dir    string

	mu      sync.Mutex
	handler map[int64][2]int64 // request ID → ServeHTTP start, end (epoch ns)
}

func startHub(dir string) (*hub, error) {
	reg := obs.NewRegistry()
	opts := []exchange.ServerOption{
		exchange.WithServerMetrics(reg),
		exchange.WithAdmission(exchange.AdmissionConfig{QueueDepth: queueDepth}),
		exchange.WithServerWorkers(workers),
	}
	if dir != "" {
		opts = append(opts, exchange.WithRegistryDir(dir))
	}
	srv, err := exchange.NewServer(opts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &hub{srv: srv, reg: reg, served: make(chan error, 1), base: "http://" + ln.Addr().String(), dir: dir, handler: map[int64][2]int64{}}
	h.hs = &http.Server{Handler: h}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

func (h *hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := now()
	h.srv.ServeHTTP(w, r)
	end := now()
	if v := r.Header.Get(reqHeader); v != "" {
		if id, err := strconv.ParseInt(v, 10, 64); err == nil {
			h.mu.Lock()
			h.handler[id] = [2]int64{start, end}
			h.mu.Unlock()
		}
	}
}

func (h *hub) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	<-h.served
	if h.dir != "" {
		if rerr := os.RemoveAll(h.dir); err == nil {
			err = rerr
		}
	}
	return err
}

type opKind int

const (
	opAssess opKind = iota
	opUpload
)

// op is one request of the traffic: an assess of template tmpl carrying
// nonce, or a republish of tenant tmpl's model number nonce.
type op struct {
	kind  opKind
	tmpl  int
	nonce int
}

// traffic draws the deterministic request sequence of a run.
type traffic struct {
	f     *fleet
	mixed bool
	mu    sync.Mutex
	rng   *rand.Rand
	nonce int   // last nonce handed to a unique body
	alt   []int // model each tenant publishes next
}

// next draws the next request; the closed loop's senders share it.
func (tr *traffic) next() op {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	x := 0.0
	if tr.mixed {
		x = tr.rng.Float64()
	}
	switch {
	case x < 0.85 && tr.mixed:
		k := tr.rng.Intn(hotBodies)
		return op{kind: opAssess, tmpl: k % len(tr.f.tmpls), nonce: k + 1}
	case x < 0.95:
		tr.nonce++
		return op{kind: opAssess, tmpl: tr.rng.Intn(len(tr.f.tmpls)), nonce: tr.nonce}
	}
	t := tr.rng.Intn(len(tr.f.tenants))
	tr.alt[t] ^= 1
	return op{kind: opUpload, tmpl: t, nonce: tr.alt[t]}
}

// ops draws the next n requests, for an open loop to schedule.
func (tr *traffic) ops(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = tr.next()
	}
	return ops
}

// call is one request as sent and answered.
type call struct {
	op     op
	id     int64 // nonzero: traced, and the handler time is filed under it
	due    int64 // epoch ns the request was due (closed loop: sent)
	lag    int64 // how late the generator issued it
	end    int64
	status int
	body   []byte
	err    error
}

func (c *call) ms() float64 { return float64(c.end-c.due) / 1e6 }

// loader drives the hub over at most `workers` connections. Each sender
// owns a private copy of every body to write nonces into.
type loader struct {
	f      *fleet
	client *http.Client
	bufs   [workers][][]byte
	trace  bool
	ids    atomic.Int64
}

func newLoader(f *fleet, trace bool) *loader {
	l := &loader{f: f, trace: trace, client: &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
	}}}
	for s := range l.bufs {
		for _, t := range f.tmpls {
			l.bufs[s] = append(l.bufs[s], append([]byte(nil), t.body...))
		}
	}
	return l
}

// stamp assigns a request ID to every other request of a traced run; the
// rest run untraced, so the run measures its own tracing overhead.
func (l *loader) stamp(c *call) {
	if id := l.ids.Add(1); l.trace && id%2 == 1 {
		c.id = id
	}
}

func (l *loader) send(ctx context.Context, sender int, c *call) {
	var b []byte
	var path, tenant string
	switch c.op.kind {
	case opAssess:
		t := &l.f.tmpls[c.op.tmpl]
		b = l.bufs[sender][c.op.tmpl]
		t.writeNonce(b, c.op.nonce)
		path, tenant = "/v1/assess", t.tenant
	case opUpload:
		b = l.f.alt[c.op.tmpl].bodies[c.op.nonce]
		path, tenant = "/v1/models", l.f.tenants[c.op.tmpl]
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.f.hub.base+path, bytes.NewReader(b))
	if err != nil {
		c.err = err
		c.end = now()
		return
	}
	req.Header.Set(exchange.TenantHeader, tenant)
	req.Header.Set("Content-Type", "application/json")
	if c.id != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(c.id, 10))
	}
	resp, err := l.client.Do(req)
	if err == nil {
		c.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		c.status = resp.StatusCode
	}
	c.err = err
	c.end = now()
}

// openLoop issues ops at a fixed rate regardless of completions; a request
// that waits for a free connection is still timed from when it was due.
func (l *loader) openLoop(ctx context.Context, ops []op, rate float64) []call {
	calls := make([]call, len(ops))
	jobs := make(chan int, len(ops)) // one slot per request: the generator never blocks
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range jobs {
				l.send(ctx, s, &calls[i])
			}
		}(s)
	}
	period := float64(time.Second) / rate
	start := now()
	for i := range ops {
		due := start + int64(float64(i)*period)
		if wait := due - now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		calls[i] = call{op: ops[i], due: due, lag: now() - due}
		l.stamp(&calls[i])
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return calls
}

// closedLoop keeps both connections busy for d: each sender sends its next
// request as soon as the previous one is answered. It returns the calls
// and the seconds from start to the last answer.
func (l *loader) closedLoop(ctx context.Context, next func() op, d time.Duration) ([]call, float64) {
	start := now()
	stop := start + int64(d)
	per := make([][]call, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for now() < stop {
				c := call{op: next(), due: now()}
				l.stamp(&c)
				l.send(ctx, s, &c)
				per[s] = append(per[s], c)
			}
		}(s)
	}
	wg.Wait()
	var calls []call
	last := start
	for _, cs := range per {
		calls = append(calls, cs...)
		for _, c := range cs {
			last = max(last, c.end)
		}
	}
	return calls, float64(last-start) / 1e9
}

// verify checks every call: a transport error or a non-2xx answer (a 429
// shed included) fails it, and so does any answer that differs from the
// in-process reference. It returns the number of verified answers.
func (f *fleet) verify(ctx context.Context, r *result, calls []call, ref map[string]map[string]bool) int {
	ok := 0
	for i := range calls {
		c := &calls[i]
		r.attempted++
		if c.err != nil || c.status/100 != 2 {
			r.failed++
			if r.failed <= 5 {
				r.notef("request failed: status %d, %v: %.200s", c.status, c.err, c.body)
			}
			continue
		}
		if err := f.check(ctx, c, ref); err != nil {
			r.wrongf("%v", err)
			continue
		}
		ok++
	}
	return ok
}

// check compares one answer with what the service must have said.
func (f *fleet) check(ctx context.Context, c *call, ref map[string]map[string]bool) error {
	if c.op.kind == opUpload {
		var up exchange.UploadResponse
		if err := json.Unmarshal(c.body, &up); err != nil {
			return fmt.Errorf("decode upload answer: %w", err)
		}
		if want := f.alt[c.op.tmpl].etags[c.op.nonce]; up.ETag != want {
			return fmt.Errorf("upload answered ETag %s, want %s", up.ETag, want)
		}
		return nil
	}
	var resp exchange.AssessResponse
	if err := json.Unmarshal(c.body, &resp); err != nil {
		return fmt.Errorf("decode assess answer: %w", err)
	}
	return f.checkAssess(ctx, c.op, &resp, ref)
}

// checkAssess recomputes the verdicts with core.AssessContext over the
// models the answer names in Used, caching references by body and models.
func (f *fleet) checkAssess(ctx context.Context, o op, resp *exchange.AssessResponse, ref map[string]map[string]bool) error {
	t := &f.tmpls[o.tmpl]
	if resp.Tenant != t.tenant || resp.Schema != t.schema {
		return fmt.Errorf("answer for %s/%s, asked %s/%s", resp.Tenant, resp.Schema, t.tenant, t.schema)
	}
	if len(resp.Used) != len(t.others) || len(resp.Verdicts) != t.set.Len() {
		return fmt.Errorf("%s/%s: %d models and %d verdicts, want %d and %d",
			t.tenant, t.schema, len(resp.Used), len(resp.Verdicts), len(t.others), t.set.Len())
	}
	foreign := make([]*core.Model, len(resp.Used))
	key := fmt.Sprintf("%d|%d", o.tmpl, o.nonce)
	for i, u := range resp.Used {
		m := f.models[u.ETag]
		if u.Schema != t.others[i] || m == nil || m.Schema != u.Schema {
			return fmt.Errorf("%s/%s: used model %s %s is not a published foreign model", t.tenant, t.schema, u.Schema, u.ETag)
		}
		foreign[i] = m
		key += "|" + u.ETag
	}
	want, ok := ref[key]
	if !ok {
		local, err := t.local(o.nonce)
		if err != nil {
			return err
		}
		v, err := core.AssessContext(ctx, workers, local, foreign, core.AssessConfig{})
		if err != nil {
			return fmt.Errorf("reference assess: %w", err)
		}
		want = make(map[string]bool, len(v))
		for id, linkable := range v {
			want[id.String()] = linkable
		}
		ref[key] = want
	}
	for i, v := range resp.Verdicts {
		if id := t.set.IDs[i].String(); v.Element != id || v.Linkable != want[id] {
			return fmt.Errorf("%s/%s: verdict %d is %s=%v, reference %s=%v", t.tenant, t.schema, i, v.Element, v.Linkable, id, want[id])
		}
	}
	return nil
}

func runServe(ctx context.Context, o options, mixed bool) (*result, error) {
	r := newResult()
	var f *fleet
	closeFleet := func() error {
		err := f.close()
		f = nil
		return err
	}
	setup, err := repeatSetup(closeFleet, func() (err error) {
		f, err = newFleet(ctx, o.size, o.seed, mixed, o.tmpdir)
		return err
	})
	defer func() { f.close() }()
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	l := newLoader(f, o.trace != nil)
	defer l.client.CloseIdleConnections()
	tr := &traffic{f: f, mixed: mixed, rng: rand.New(rand.NewSource(o.seed)), nonce: hotBodies, alt: make([]int, len(f.tenants))}
	// The three phases repeat in cycles of about serveCycle, so that each
	// phase's samples span the whole window rather than one stretch of it;
	// a shared machine's slow spells then weigh on every phase alike.
	cycles := int(math.Ceil(o.seconds.Seconds() / serveCycle.Seconds()))
	cycle := o.seconds / time.Duration(cycles)
	low, high := cycle*2/5, cycle/5
	warm, _ := l.closedLoop(ctx, tr.next, serveWarmup)

	runtime.GC()
	before := f.hub.reg.Snapshot()
	var ms0, ms1 runtime.MemStats
	if o.trace != nil {
		runtime.ReadMemStats(&ms0)
	}
	gc := readGC()
	var lowCalls, highCalls, capCalls []call
	var capSecs float64
	for c := 0; c < cycles; c++ {
		lowCalls = append(lowCalls, l.openLoop(ctx, tr.ops(int(lowRate*low.Seconds())), lowRate)...)
		highCalls = append(highCalls, l.openLoop(ctx, tr.ops(int(highRate*high.Seconds())), highRate)...)
		calls, secs := l.closedLoop(ctx, tr.next, cycle-low-high)
		capCalls = append(capCalls, calls...)
		capSecs += secs
	}
	r.set("runtime.gc_cpu_fraction", gc.fraction())
	if o.trace != nil {
		runtime.ReadMemStats(&ms1)
	}
	after := f.hub.reg.Snapshot()

	ref := map[string]map[string]bool{}
	f.verify(ctx, r, warm, ref)
	f.verify(ctx, r, lowCalls, ref)
	f.verify(ctx, r, highCalls, ref)
	capOK := f.verify(ctx, r, capCalls, ref)

	lowMS, lag := assessLatencies(lowCalls)
	highMS, highLag := assessLatencies(highCalls)
	lag = max(lag, highLag)
	r.latency("latency_ms_p50", fmt.Sprintf("assess at %g/s", lowRate), lowMS)
	r.latency("exchange.high_ms_p50", fmt.Sprintf("assess at %g/s", highRate), highMS)
	r.set("throughput_per_s", float64(capOK)/capSecs)
	r.notef("capacity: %d verified answers in %.3fs over %d connections", capOK, capSecs, workers)
	r.set("exchange.gen_lag_ms_max", lag)
	if lag > float64(maxLag)/1e6 {
		r.invalid = fmt.Sprintf("generator lagged %.1fms behind its schedule (limit %v)", lag, maxLag)
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	if n := delta("service.requests"); n > 0 {
		r.set("exchange.coalesced_ratio", delta("service.coalesced")/n)
	}
	if n := delta("service.delta.reused") + delta("service.delta.rescored"); n > 0 {
		r.set("exchange.delta_reuse_ratio", delta("service.delta.reused")/n)
	}
	r.set("exchange.shed", delta("service.shed"))

	if o.trace != nil {
		all := append(append(append([]call(nil), lowCalls...), highCalls...), capCalls...)
		f.traceCalls(o.trace, r, lowCalls, all)
		r.set("exchange.alloc_kb_per_req", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(len(all)))
		if err := f.replay(r, lowCalls); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// assessLatencies returns the latencies (ms) of the answered assess calls
// and the generator's largest lag (ms).
func assessLatencies(calls []call) (ms []float64, lag float64) {
	for i := range calls {
		c := &calls[i]
		lag = max(lag, float64(c.lag)/1e6)
		if c.op.kind == opAssess && c.err == nil && c.status/100 == 2 {
			ms = append(ms, c.ms())
		}
	}
	return ms, lag
}

// traceCalls turns the traced calls into spans (a request root from due
// time to answer, its handler as the child) and sets the serve layer
// metrics.
func (f *fleet) traceCalls(t *tracer, r *result, low, all []call) {
	f.hub.mu.Lock()
	handler := f.hub.handler
	f.hub.mu.Unlock()
	var reqKB, respKB float64
	var assessN int
	var handlerMS, waitMS, tracedMS, plainMS, uploadMS []float64
	for i := range all {
		c := &all[i]
		if c.op.kind == opAssess {
			reqKB += float64(len(f.tmpls[c.op.tmpl].body)) / 1024
			respKB += float64(len(c.body)) / 1024
			assessN++
		}
		hs, ok := handler[c.id] // untraced calls have ID 0, never filed
		if !ok {
			continue
		}
		root := span{Trace: c.id, ID: t.newID(), Name: "serve.request", Start: c.due, End: c.end}
		t.add(root)
		t.add(span{Trace: c.id, ID: t.newID(), Parent: root.ID, Name: "exchange.handler", Start: hs[0], End: hs[1]})
		if c.op.kind == opUpload {
			uploadMS = append(uploadMS, float64(hs[1]-hs[0])/1e6)
		}
	}
	for i := range low {
		c := &low[i]
		if c.op.kind != opAssess || c.err != nil || c.status/100 != 2 {
			continue
		}
		hs, ok := handler[c.id]
		if !ok {
			plainMS = append(plainMS, c.ms())
			continue
		}
		h := float64(hs[1]-hs[0]) / 1e6
		tracedMS = append(tracedMS, c.ms())
		handlerMS = append(handlerMS, h)
		waitMS = append(waitMS, c.ms()-h)
	}
	if assessN > 0 {
		r.set("exchange.req_kb", reqKB/float64(assessN))
		r.set("exchange.resp_kb", respKB/float64(assessN))
	}
	hp50, wp50 := median(handlerMS), median(waitMS)
	r.set("exchange.handler_ms_p50", hp50)
	r.set("exchange.wait_ms_p50", wp50)
	if len(uploadMS) > 0 {
		r.set("exchange.upload_ms_p50", median(uploadMS))
	}
	r.notef("traced low phase: handler p50 %.3fms + wait p50 %.3fms = %.3fms against latency p50 %.3fms",
		hp50, wp50, hp50+wp50, median(tracedMS))
	_, _, share := layerMedians(t.spans)
	r.set("layers.attributed_share", 1-share["serve.request"])
	r.set("trace_overhead", median(tracedMS)/median(plainMS)-1)
}

// replay splits the handler's work by replaying low-phase assess bodies
// serially in process: JSON decode into exchange.AssessRequest, then
// scoring with Model.ErrorsInto over the models the answer used.
func (f *fleet) replay(r *result, low []call) error {
	var decodeMS, scoreMS []float64
	for i := range low {
		c := &low[i]
		if len(decodeMS) == replays {
			break
		}
		if c.op.kind != opAssess || c.status/100 != 2 {
			continue
		}
		var resp exchange.AssessResponse
		if err := json.Unmarshal(c.body, &resp); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		t := &f.tmpls[c.op.tmpl]
		body := append([]byte(nil), t.body...)
		t.writeNonce(body, c.op.nonce)
		var req exchange.AssessRequest
		sw := obs.NewStopwatch()
		if err := json.Unmarshal(body, &req); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		decodeMS = append(decodeMS, float64(sw.Elapsed())/1e6)
		x := linalg.NewDense(len(req.Signatures), len(req.Signatures[0]))
		for k, row := range req.Signatures {
			copy(x.RowView(k), row)
		}
		foreign := make([]*core.Model, 0, len(resp.Used))
		for _, u := range resp.Used {
			if m := f.models[u.ETag]; m != nil {
				foreign = append(foreign, m)
			}
		}
		dst := make([]float64, x.Rows())
		sw = obs.NewStopwatch()
		for _, m := range foreign {
			m.ErrorsInto(x, dst, nil)
		}
		scoreMS = append(scoreMS, float64(sw.Elapsed())/1e6)
	}
	r.set("exchange.decode_ms_p50", median(decodeMS))
	r.set("core.score_ms_p50", median(scoreMS))
	return nil
}
