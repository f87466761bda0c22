// Command servesmoke is the CI smoke test for the scoping service: it
// boots a hub with a persistent registry on a loopback listener, uploads
// freshly trained models through POST /v1/models, assesses signatures
// through POST /v1/assess, restarts the hub over the same registry
// directory to confirm the verdicts survive, and scrapes /v1/metrics.
// Any deviation exits non-zero, so `make serve-smoke` can gate merges.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"time"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/exchange"
	"collabscope/internal/obs"
	"collabscope/internal/synth"
)

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke:", err)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fatal(fmt.Errorf(format, args...))
}

// serve boots a hub over the registry directory and returns the server,
// its base URL, and a shutdown func.
func serve(reg *obs.Registry, dir string) (*exchange.Server, string, func()) {
	srv, err := exchange.NewServer(
		exchange.WithServerMetrics(reg),
		exchange.WithRegistryDir(dir),
		exchange.WithAdmission(exchange.AdmissionConfig{QueueDepth: 16}),
	)
	fatal(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	fatal(err)
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on shutdown
	return srv, "http://" + ln.Addr().String(), func() { fatal(hs.Close()) }
}

// probe GETs a health route and returns the status code plus the decoded
// HealthResponse.
func probe(base, route string) (int, exchange.HealthResponse) {
	resp, err := http.Get(base + route)
	fatal(err)
	defer resp.Body.Close()
	var hr exchange.HealthResponse
	fatal(json.NewDecoder(resp.Body).Decode(&hr))
	return resp.StatusCode, hr
}

// expectHealth asserts one probe outcome.
func expectHealth(base, route string, wantCode int, wantStatus string) {
	code, hr := probe(base, route)
	if code != wantCode || hr.Status != wantStatus {
		fatalf("%s answered %d %q, want %d %q", route, code, hr.Status, wantCode, wantStatus)
	}
}

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "servesmoke-registry-*")
	fatal(err)
	defer os.RemoveAll(dir)

	reg := obs.NewRegistry()
	_, base, stop := serve(reg, dir)

	// Health surface: alive and ready before any model is uploaded.
	expectHealth(base, "/v1/healthz", http.StatusOK, "ok")
	expectHealth(base, "/v1/readyz", http.StatusOK, "ok")
	fmt.Println("servesmoke: healthz/readyz probes OK")

	// Mint one tenant's schemas, train a model per schema, and upload them
	// all through the versioned API.
	scenarios, err := synth.MintTenants(1, synth.Config{Schemas: 3, Seed: 7})
	fatal(err)
	tenant := scenarios[0].Tenant
	enc := embed.NewHashEncoder(embed.WithDim(96))
	sets, err := embed.EncodeSchemasContext(ctx, 0, enc, scenarios[0].Dataset.Schemas)
	fatal(err)
	client := exchange.NewClient()
	var models []*core.Model
	for _, set := range sets {
		m, err := core.Train(set, 0.8)
		fatal(err)
		ur, err := client.Upload(ctx, base, tenant, m)
		fatal(err)
		if ur.Version != 1 {
			fatalf("upload of %s registered version %d, want 1", m.Schema, ur.Version)
		}
		models = append(models, m)
	}
	fmt.Printf("servesmoke: uploaded %d models into tenant %s\n", len(models), tenant)

	// Assess the first schema's own signatures against its tenant peers.
	req := &exchange.AssessRequest{
		Schema:     models[0].Schema,
		IDs:        make([]string, sets[0].Len()),
		Signatures: make([][]float64, sets[0].Len()),
	}
	for i := range req.IDs {
		req.IDs[i] = sets[0].IDs[i].String()
		req.Signatures[i] = sets[0].Matrix.RowView(i)
	}
	res, err := client.Assess(ctx, base, tenant, req)
	fatal(err)
	if len(res.Used) != len(models)-1 {
		fatalf("assessed against %d models, want the %d foreign ones", len(res.Used), len(models)-1)
	}
	linkable := 0
	for _, v := range res.Verdicts {
		if v.Linkable {
			linkable++
		}
	}
	fmt.Printf("servesmoke: assessed %d elements (%d linkable) against %d foreign models\n",
		len(res.Verdicts), linkable, len(res.Used))

	// Restart the hub over the same registry directory: the verdicts must
	// come back bit-identical without re-uploading anything.
	stop()
	srv2, base2, stop2 := serve(obs.NewRegistry(), dir)
	defer stop2()
	res2, err := exchange.NewClient().Assess(ctx, base2, tenant, req)
	fatal(err)
	if !reflect.DeepEqual(res.Verdicts, res2.Verdicts) || !reflect.DeepEqual(res.Used, res2.Used) {
		fatalf("restarted hub answered differently:\n%+v\nvs\n%+v", res, res2)
	}
	fmt.Println("servesmoke: restart over the persisted registry reproduced the verdicts")

	// Scrape the metrics route of the first hub's registry snapshot.
	resp, err := http.Get(base2 + "/v1/metrics")
	fatal(err)
	snap, err := obs.ReadSnapshotJSON(resp.Body)
	resp.Body.Close()
	fatal(err)
	if snap.Counters["service.requests"] < 1 {
		fatalf("metrics snapshot records %d assess requests, want ≥ 1", snap.Counters["service.requests"])
	}
	fmt.Println("servesmoke: /v1/metrics scrape OK")

	// Drain phase: the restarted hub drains cleanly — readiness flips to
	// 503, new work is refused with the typed draining error, liveness
	// stays green, and GET routes keep serving.
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	fatal(srv2.Drain(dctx))
	expectHealth(base2, "/v1/healthz", http.StatusOK, "ok")
	expectHealth(base2, "/v1/readyz", http.StatusServiceUnavailable, "draining")
	body, err := json.Marshal(req)
	fatal(err)
	resp, err = http.Post(base2+"/v1/assess", "application/json", bytes.NewReader(body))
	fatal(err)
	var envelope exchange.ErrorEnvelope
	fatal(json.NewDecoder(resp.Body).Decode(&envelope))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || envelope.Error.Code != exchange.CodeDraining {
		fatalf("assess on a draining hub answered %d %q, want %d %q",
			resp.StatusCode, envelope.Error.Code, http.StatusServiceUnavailable, exchange.CodeDraining)
	}
	if resp.Header.Get("Retry-After") == "" {
		fatalf("draining hub sent no Retry-After header")
	}
	mreq, err := http.NewRequest(http.MethodGet, base2+"/v1/models/"+models[0].Schema, nil)
	fatal(err)
	mreq.Header.Set(exchange.TenantHeader, tenant)
	mresp, err := http.DefaultClient.Do(mreq)
	fatal(err)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		fatalf("draining hub stopped serving models: status %d", mresp.StatusCode)
	}
	fmt.Println("servesmoke: drain phase OK (readyz 503, typed refusals, GETs still served)")
	fmt.Println("servesmoke: PASS")
}
