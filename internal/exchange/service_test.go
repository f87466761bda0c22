package exchange

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/faultinject"
	"collabscope/internal/leakcheck"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
	"collabscope/internal/schema"
)

// serviceModel is testModel with a content knob: different scales produce
// different model content for the same schema name, so upload versioning
// can be exercised.
func serviceModel(t *testing.T, name string, scale float64) *core.Model {
	t.Helper()
	rows := [][]float64{
		{1 * scale, 0.1, 0, 0.5},
		{0.2, 1 / scale, 0.1, 0.25},
		{0, 0.3, 1, 0.125 * scale},
		{0.4, 0, 0.2, 1},
	}
	m := linalg.NewDense(len(rows), len(rows[0]))
	ids := make([]schema.ElementID, len(rows))
	for i, row := range rows {
		copy(m.RowView(i), row)
		ids[i] = schema.AttributeID(name, "T", fmt.Sprintf("A%d", i))
	}
	model, err := core.Train(&embed.SignatureSet{IDs: ids, Matrix: m}, 0.9)
	if err != nil {
		t.Fatalf("train %s: %v", name, err)
	}
	return model
}

// doV1 fires one raw request (no retry loop) so tests can assert exact
// status codes, headers and body bytes.
func doV1(t *testing.T, method, url, tenant string, payload []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func decodeEnvelope(t *testing.T, body []byte) ErrorEnvelope {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the v1 envelope: %v\n%s", err, body)
	}
	if env.Error.Code == "" {
		t.Fatalf("envelope carries no error code: %s", body)
	}
	return env
}

func marshalAssess(t *testing.T, req *AssessRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitInflight polls the service.inflight gauge until it reaches want.
func waitInflight(t *testing.T, reg *obs.Registry, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Gauges["service.inflight"] >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("service.inflight never reached %d", want)
}

// TestV1UploadAssessAndVersioning covers the registry + hot path round
// trip: uploads are checksum-validated and versioned (idempotent on
// identical content), and /v1/assess answers with verdicts computed
// against the tenant's foreign models only.
func TestV1UploadAssessAndVersioning(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer(WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(WithRetryPolicy(quickPolicy()))
	ctx := context.Background()

	for _, name := range []string{"Alpha", "Beta", "Gamma"} {
		ur, err := c.Upload(ctx, ts.URL, "acme", serviceModel(t, name, 1.5))
		if err != nil {
			t.Fatal(err)
		}
		if ur.Version != 1 || ur.Tenant != "acme" || ur.Schema != name {
			t.Fatalf("upload response = %+v, want version 1 in tenant acme", ur)
		}
	}
	// Identical content is idempotent; changed content bumps the version.
	if ur, err := c.Upload(ctx, ts.URL, "acme", serviceModel(t, "Alpha", 1.5)); err != nil || ur.Version != 1 {
		t.Fatalf("re-upload of identical model: version %v err %v, want 1 <nil>", ur, err)
	}
	if ur, err := c.Upload(ctx, ts.URL, "acme", serviceModel(t, "Alpha", 2.5)); err != nil || ur.Version != 2 {
		t.Fatalf("upload of retrained model: version %v err %v, want 2 <nil>", ur, err)
	}

	req := &AssessRequest{
		Schema:     "Alpha",
		IDs:        []string{"e0", "e1"},
		Signatures: [][]float64{{1, 0.1, 0, 0.5}, {9, 9, 9, 9}},
	}
	res, err := c.Assess(ctx, ts.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != 2 || res.Verdicts[0].Element != "e0" {
		t.Fatalf("verdicts = %+v", res.Verdicts)
	}
	if len(res.Used) != 2 || res.Used[0].Schema != "Beta" || res.Used[1].Schema != "Gamma" {
		t.Fatalf("used = %+v, want the foreign models Beta, Gamma in order", res.Used)
	}

	// The same query in an empty tenant finds no models: every verdict is
	// the conservative false, and no model is reported used.
	res, err = c.Assess(ctx, ts.URL, "other", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Used) != 0 {
		t.Fatalf("empty tenant used %+v", res.Used)
	}
	for _, v := range res.Verdicts {
		if v.Linkable {
			t.Fatalf("verdict %+v linkable with zero foreign models", v)
		}
	}
}

// TestV1UploadRejectsCorruptPayload pins server-side checksum validation:
// a flipped byte cannot enter the registry.
func TestV1UploadRejectsCorruptPayload(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer(WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var buf bytes.Buffer
	if err := serviceModel(t, "Dam", 1.5).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[len(wire)/3] ^= 0x20
	resp, body := doV1(t, http.MethodPost, ts.URL+"/v1/models", "", wire)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != CodeInvalidModel {
		t.Fatalf("error code %q, want %q", env.Error.Code, CodeInvalidModel)
	}
	if n := reg.Snapshot().Counters["service.upload_rejects"]; n != 1 {
		t.Fatalf("service.upload_rejects = %d, want 1", n)
	}
	if got := srv.Schemas(); len(got) != 0 {
		t.Fatalf("corrupt upload entered the registry: %v", got)
	}
}

// TestUploadRejectsUnsealedModel: a valid model body with its version key
// and hash trailer stripped is the retired unsealed format, and the upload
// route must refuse it rather than register a model no trailer vouches for.
func TestUploadRejectsUnsealedModel(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := NewServer(WithServerMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := tamper(t, serviceModel(t, "Bare", 1.5), func(wire map[string]any) {
		delete(wire, "version")
		delete(wire, "sum")
	})
	resp, out := doV1(t, http.MethodPost, ts.URL+"/v1/models", "", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, out)
	}
	if env := decodeEnvelope(t, out); env.Error.Code != CodeInvalidModel {
		t.Fatalf("error code %q, want %q", env.Error.Code, CodeInvalidModel)
	}
	if n := reg.Snapshot().Counters["service.upload_rejects"]; n != 1 {
		t.Fatalf("service.upload_rejects = %d, want 1", n)
	}
	resp, out = doV1(t, http.MethodGet, ts.URL+"/v1/models", "", nil)
	var listing ListingV1
	if err := json.Unmarshal(out, &listing); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("listing: status %d, %v: %s", resp.StatusCode, err, out)
	}
	if len(listing.Models) != 0 {
		t.Fatalf("unsealed upload entered the registry: %+v", listing.Models)
	}
}

// TestRegistryRestartServesIdenticalState kills a hub (by constructing a
// fresh one over the same checkpoint directory) and pins the acceptance
// bar of the registry redesign: the restarted hub serves byte-identical
// model bodies, identical listings, and bit-identical assess responses.
func TestRegistryRestartServesIdenticalState(t *testing.T) {
	dir := t.TempDir()
	srv1, err := NewServer(WithRegistryDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	c := NewClient(WithRetryPolicy(quickPolicy()))
	ctx := context.Background()
	for _, name := range []string{"Alpha", "Beta", "Gamma"} {
		if _, err := c.Upload(ctx, ts1.URL, "acme", serviceModel(t, name, 1.5)); err != nil {
			t.Fatal(err)
		}
	}
	// A second upload generation for Alpha: restart must keep version 2.
	if _, err := c.Upload(ctx, ts1.URL, "acme", serviceModel(t, "Alpha", 2.5)); err != nil {
		t.Fatal(err)
	}
	assess := marshalAssess(t, &AssessRequest{
		Schema:     "Beta",
		Signatures: [][]float64{{1, 0.1, 0, 0.5}, {0.2, 0.7, 0.1, 0.25}},
	})
	get := func(ts *httptest.Server, path string) []byte {
		resp, body := doV1(t, http.MethodGet, ts.URL+path, "acme", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	// post returns the assess response with the generation field zeroed:
	// generation counts publishes since process start (it keys the in-flight
	// coalescer), so it is process state, not registry state.
	post := func(ts *httptest.Server) []byte {
		resp, body := doV1(t, http.MethodPost, ts.URL+"/v1/assess", "acme", assess)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("assess: status %d: %s", resp.StatusCode, body)
		}
		var ar AssessResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatalf("decode assess response: %v", err)
		}
		ar.Generation = 0
		out, err := json.Marshal(ar)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	listing1 := get(ts1, "/v1/models")
	model1 := get(ts1, "/v1/models/Alpha")
	verdicts1 := post(ts1)
	ts1.Close()

	srv2, err := NewServer(WithRegistryDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	if got := get(ts2, "/v1/models"); !bytes.Equal(got, listing1) {
		t.Fatalf("listing changed across restart:\n%s\nvs\n%s", listing1, got)
	}
	if got := get(ts2, "/v1/models/Alpha"); !bytes.Equal(got, model1) {
		t.Fatalf("model body changed across restart")
	}
	if got := post(ts2); !bytes.Equal(got, verdicts1) {
		t.Fatalf("assess response changed across restart:\n%s\nvs\n%s", verdicts1, got)
	}
}

// TestAssessQueueFullShed saturates a depth-1 admission queue with a
// stalled computation and pins the shedding contract: 429, Retry-After,
// the overloaded error code, and the service.shed counter.
func TestAssessQueueFullShed(t *testing.T) {
	leakcheck.Guard(t)
	reg := obs.NewRegistry()
	srv, err := NewServer(
		WithModels(testModel(t, "A"), testModel(t, "B")),
		WithServerMetrics(reg),
		WithServerFaultInjector(faultinject.New(1, faultinject.Fault{
			Site: "exchange.service.assess", Kind: faultinject.KindDelay,
			Rate: 1, Delay: 400 * time.Millisecond,
		})),
		WithAdmission(AdmissionConfig{QueueDepth: 1, TenantQuota: -1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := doV1(t, http.MethodPost, ts.URL+"/v1/assess", "",
			marshalAssess(t, &AssessRequest{Schema: "A", Signatures: [][]float64{{1, 2, 3, 4}}}))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("stalled leader: status %d: %s", resp.StatusCode, body)
		}
	}()
	waitInflight(t, reg, 1)

	// A second, distinct request must be shed, not queued.
	resp, body := doV1(t, http.MethodPost, ts.URL+"/v1/assess", "",
		marshalAssess(t, &AssessRequest{Schema: "A", Signatures: [][]float64{{4, 3, 2, 1}}}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != CodeOverloaded {
		t.Fatalf("error code %q, want %q", env.Error.Code, CodeOverloaded)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if n := snap.Counters["service.shed"]; n != 1 {
		t.Fatalf("service.shed = %d, want 1", n)
	}
	if n := snap.Gauges["service.inflight"]; n != 0 {
		t.Fatalf("service.inflight = %d after drain, want 0", n)
	}
}

// TestAssessCoalescesIdenticalInFlight fires identical requests at a
// stalled hub and pins coalescing: one computation, N−1 joins, identical
// response bytes for everyone.
func TestAssessCoalescesIdenticalInFlight(t *testing.T) {
	leakcheck.Guard(t)
	reg := obs.NewRegistry()
	in := faultinject.New(1, faultinject.Fault{
		Site: "exchange.service.assess", Kind: faultinject.KindDelay,
		Rate: 1, Delay: 400 * time.Millisecond,
	})
	srv, err := NewServer(
		WithModels(testModel(t, "A"), testModel(t, "B")),
		WithServerMetrics(reg),
		WithServerFaultInjector(in),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	payload := marshalAssess(t, &AssessRequest{Schema: "A", Signatures: [][]float64{{1, 2, 3, 4}}})

	const followers = 3
	bodies := make([][]byte, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := doV1(t, http.MethodPost, ts.URL+"/v1/assess", "", payload)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("leader: status %d: %s", resp.StatusCode, body)
		}
		bodies[0] = body
	}()
	waitInflight(t, reg, 1)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := doV1(t, http.MethodPost, ts.URL+"/v1/assess", "", payload)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("follower %d: status %d: %s", i, resp.StatusCode, body)
			}
			bodies[i+1] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from the leader's:\n%s\nvs\n%s", i, bodies[0], bodies[i])
		}
	}
	if n := reg.Snapshot().Counters["service.coalesced"]; n != followers {
		t.Fatalf("service.coalesced = %d, want %d", n, followers)
	}
	// The fault site fires once per computation: coalesced joins never
	// re-enter the compute path.
	computes := 0
	for _, e := range in.Events() {
		if e.Site == "exchange.service.assess" {
			computes++
		}
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times for %d identical requests, want 1", computes, followers+1)
	}
}

// TestTenantQuotaIsolation stalls one tenant at its quota and pins
// isolation: the hot tenant is shed while another tenant's request is
// admitted and served by the same hub.
func TestTenantQuotaIsolation(t *testing.T) {
	leakcheck.Guard(t)
	reg := obs.NewRegistry()
	srv, err := NewServer(
		WithServerMetrics(reg),
		WithServerFaultInjector(faultinject.New(1, faultinject.Fault{
			Site: "exchange.service.assess", Kind: faultinject.KindDelay,
			Rate: 1, Delay: 400 * time.Millisecond,
		})),
		WithAdmission(AdmissionConfig{QueueDepth: 8, TenantQuota: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"hot", "calm"} {
		for _, name := range []string{"A", "B"} {
			if _, err := srv.PublishTenant(tenant, testModel(t, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, body := doV1(t, http.MethodPost, ts.URL+"/v1/assess", "hot",
			marshalAssess(t, &AssessRequest{Schema: "A", Signatures: [][]float64{{1, 2, 3, 4}}}))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("stalled hot tenant: status %d: %s", resp.StatusCode, body)
		}
	}()
	waitInflight(t, reg, 1)

	// The hot tenant is at quota: a second, distinct request is shed…
	resp, body := doV1(t, http.MethodPost, ts.URL+"/v1/assess", "hot",
		marshalAssess(t, &AssessRequest{Schema: "A", Signatures: [][]float64{{4, 3, 2, 1}}}))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("hot tenant second request: status %d, want 429: %s", resp.StatusCode, body)
	}
	// …while another tenant rides the same hub unharmed.
	resp, body = doV1(t, http.MethodPost, ts.URL+"/v1/assess", "calm",
		marshalAssess(t, &AssessRequest{Schema: "A", Signatures: [][]float64{{1, 2, 3, 4}}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("calm tenant: status %d, want 200: %s", resp.StatusCode, body)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if n := snap.Counters["service.tenant.hot.shed"]; n != 1 {
		t.Fatalf("service.tenant.hot.shed = %d, want 1", n)
	}
	if n := snap.Counters["service.tenant.calm.shed"]; n != 0 {
		t.Fatalf("service.tenant.calm.shed = %d, want 0", n)
	}
}

// TestMethodNotAllowed pins the 405 contract: read-only routes answer
// non-GET with 405 + an accurate Allow header (never 404), in the error
// envelope.
func TestMethodNotAllowed(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "M")), WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct{ method, path, allow string }{
		{http.MethodDelete, "/v1/models", "GET, HEAD, POST"},
		{http.MethodPut, "/v1/models/M", "GET, HEAD"},
		{http.MethodGet, "/v1/assess", "POST"},
		{http.MethodPost, "/v1/metrics", "GET, HEAD"},
	}
	for _, tc := range cases {
		resp, body := doV1(t, tc.method, ts.URL+tc.path, "", nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Fatalf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if env := decodeEnvelope(t, body); env.Error.Code != CodeMethodNotAllowed {
			t.Fatalf("%s %s: error code %q", tc.method, tc.path, env.Error.Code)
		}
	}
}

// TestV1ErrorDialect pins the one error dialect: every failure, including
// a request for a path outside /v1 (the retired /models, /models/<schema>
// and /metrics among them), answers in the JSON error envelope.
func TestV1ErrorDialect(t *testing.T) {
	srv, err := NewServer(WithModels(testModel(t, "M")), WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, path := range []string{"/v1/no-such-route", "/models", "/models/M", "/metrics", "/no-such-route"} {
		resp, body := doV1(t, http.MethodGet, ts.URL+path, "", nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		if env := decodeEnvelope(t, body); env.Error.Code != CodeNotFound {
			t.Fatalf("GET %s: error code %q, want %q", path, env.Error.Code, CodeNotFound)
		}
	}

	resp, body := doV1(t, http.MethodGet, ts.URL+"/v1/models", "bad tenant!", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed tenant: status %d, want 400", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != CodeInvalidRequest {
		t.Fatalf("error code %q, want %q", env.Error.Code, CodeInvalidRequest)
	}

	resp, body = doV1(t, http.MethodPost, ts.URL+"/v1/assess", "",
		[]byte(`{"schema":"M","signatures":[[1,2],[1]]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ragged signatures: status %d, want 400: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != CodeInvalidRequest {
		t.Fatalf("error code %q, want %q", env.Error.Code, CodeInvalidRequest)
	}
}

// TestDeadlineBudgetSaturates sends deadline budgets through POST
// /v1/assess. A millisecond count too large for a time.Duration must read
// as a huge budget, not wrap into a spent one; zero and negative budgets
// are still shed, and a non-numeric one is still ignored.
func TestDeadlineBudgetSaturates(t *testing.T) {
	srv, err := NewServer(WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := marshalAssess(t, &AssessRequest{Schema: "S", Signatures: [][]float64{{1, 0, 0, 0}}})

	for _, tc := range []struct {
		budget string
		want   int
	}{
		{"10000000000000", http.StatusOK},
		{"9223372036854775807", http.StatusOK},
		{"-10000000000000", http.StatusServiceUnavailable},
		{"0", http.StatusServiceUnavailable},
		{"-5", http.StatusServiceUnavailable},
		{"soon", http.StatusOK},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/assess", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(DeadlineHeader, tc.budget)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("budget %s: status %d, want %d: %s", tc.budget, resp.StatusCode, tc.want, out)
			continue
		}
		if tc.want != http.StatusOK {
			if env := decodeEnvelope(t, out); env.Error.Code != CodeDeadline {
				t.Errorf("budget %s: error code %q, want %q", tc.budget, env.Error.Code, CodeDeadline)
			}
		}
	}
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// TestUploadBodyCap: a model upload one byte over maxUploadBody answers
// 413 in the error envelope.
func TestUploadBodyCap(t *testing.T) {
	defer debug.FreeOSMemory() // return the 64 MiB body before the next test
	srv, err := NewServer(WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/models", io.LimitReader(repeatByte(' '), maxUploadBody+1))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = maxUploadBody + 1
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, out)
	}
	if env := decodeEnvelope(t, out); env.Error.Code != CodeInvalidRequest {
		t.Fatalf("error code %q, want %q", env.Error.Code, CodeInvalidRequest)
	}
}

// TestChunkedBodiesDecode: bodies sent without a Content-Length (chunked
// transfer encoding) are read and decoded on both POST routes.
func TestChunkedBodiesDecode(t *testing.T) {
	srv, err := NewServer(WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	// The wrapper echoes the Content-Length the server saw; -1 is unknown.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Seen-Content-Length", strconv.FormatInt(r.ContentLength, 10))
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		// A reader of unknown length makes the transport send chunks.
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, io.MultiReader(bytes.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if seen := resp.Header.Get("X-Seen-Content-Length"); seen != "-1" {
			t.Fatalf("POST %s reached the server with Content-Length %s, want none", path, seen)
		}
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	var model bytes.Buffer
	if err := serviceModel(t, "Beta", 1.5).WriteJSON(&model); err != nil {
		t.Fatal(err)
	}
	if status, out := post("/v1/models", model.Bytes()); status != http.StatusCreated {
		t.Fatalf("chunked upload: status %d, want 201: %s", status, out)
	}
	body := marshalAssess(t, &AssessRequest{
		Schema: "Alpha", IDs: []string{"e0", "e1"},
		Signatures: [][]float64{{1, 0.1, 0, 0.5}, {9, 9, 9, 9}},
	})
	status, out := post("/v1/assess", body)
	if status != http.StatusOK {
		t.Fatalf("chunked assess: status %d, want 200: %s", status, out)
	}
	var res AssessResponse
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != 2 || res.Verdicts[1].Element != "e1" || len(res.Used) != 1 || res.Used[0].Schema != "Beta" {
		t.Fatalf("chunked assess answered %+v", res)
	}
}

// TestOverstatedContentLength: a body shorter than its Content-Length,
// followed by the client closing its side, answers 400 invalid_request on
// both POST routes.
func TestOverstatedContentLength(t *testing.T) {
	srv, err := NewServer(WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := `{"schema":"S","signatures":[[1]]}`
	for _, path := range []string{"/v1/assess", "/v1/models"} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			path, len(body)+100, body)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d, want 400: %s", path, resp.StatusCode, out)
		}
		if env := decodeEnvelope(t, out); env.Error.Code != CodeInvalidRequest {
			t.Fatalf("POST %s: error code %q, want %q", path, env.Error.Code, CodeInvalidRequest)
		}
	}
}
