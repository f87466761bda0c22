package collabscope

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func quickRetry() Option {
	return WithRetryPolicy(RetryPolicy{
		MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Timeout: 500 * time.Millisecond,
	})
}

// servedParties trains one model per Figure-1 schema and serves each from
// its own httptest hub, returning the peer URLs aligned with the schemas.
func servedParties(t *testing.T, pipe *Pipeline, schemas []*Schema, v float64) []string {
	t.Helper()
	peers := make([]string, len(schemas))
	for i, s := range schemas {
		m, err := pipe.TrainModelContext(context.Background(), s, v)
		if err != nil {
			t.Fatalf("train %s: %v", s.Name, err)
		}
		h, err := NewScopingServer(WithServerModels(m))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		peers[i] = ts.URL
	}
	return peers
}

// TestAssessRemoteMatchesLocalAssessment pins that the HTTP round trip is
// verdict-preserving: assessing over the wire equals assessing against the
// same models in process.
func TestAssessRemoteMatchesLocalAssessment(t *testing.T) {
	pipe := New(WithDimension(192), quickRetry())
	schemas := figure1Schemas()
	const v = 0.7
	peers := servedParties(t, pipe, schemas, v)

	local := schemas[0]
	var foreign []*Model
	for _, s := range schemas[1:] {
		m, err := pipe.TrainModelContext(context.Background(), s, v)
		if err != nil {
			t.Fatal(err)
		}
		foreign = append(foreign, m)
	}
	want := must(pipe.AssessContext(context.Background(), local, foreign))

	// The peer list includes the local party's own hub: AssessRemote must
	// skip the self-model, as Algorithm 2 requires.
	res, err := pipe.AssessRemote(context.Background(), local, peers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("all peers healthy, yet failures reported: %v", res.Failed)
	}
	if len(res.Used) != len(schemas)-1 {
		t.Fatalf("used %v, want the %d foreign schemas", res.Used, len(schemas)-1)
	}
	for _, used := range res.Used {
		if used == local.Name {
			t.Fatalf("self-model %q was not skipped", local.Name)
		}
	}
	if len(res.Verdicts) != len(want) {
		t.Fatalf("verdict count %d, want %d", len(res.Verdicts), len(want))
	}
	for id, w := range want {
		if res.Verdicts[id] != w {
			t.Fatalf("verdict for %v differs between local and remote assessment", id)
		}
	}
}

// TestAssessRemotePartialPeers kills one peer and checks graceful
// degradation: the round completes, the dead peer is reported, and the
// verdicts equal a local assessment without that peer's model.
func TestAssessRemotePartialPeers(t *testing.T) {
	pipe := New(WithDimension(192), quickRetry())
	schemas := figure1Schemas()
	const v = 0.7
	peers := servedParties(t, pipe, schemas[1:], v) // foreign hubs only
	local := schemas[0]

	// Baseline without the last foreign schema's model.
	var surviving []*Model
	for _, s := range schemas[1 : len(schemas)-1] {
		m, err := pipe.TrainModelContext(context.Background(), s, v)
		if err != nil {
			t.Fatal(err)
		}
		surviving = append(surviving, m)
	}
	want := must(pipe.AssessContext(context.Background(), local, surviving))

	// Kill the last peer: its port now refuses connections.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	peers[len(peers)-1] = deadURL

	res, err := pipe.AssessRemote(context.Background(), local, peers)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 || res.Failed[0].Peer != deadURL {
		t.Fatalf("expected exactly the dead peer in the report, got %v", res.Failed)
	}
	for id, w := range want {
		if res.Verdicts[id] != w {
			t.Fatalf("verdict for %v differs from the dead-peer-excluded baseline", id)
		}
	}
}

func TestCollaborativeScopeRemote(t *testing.T) {
	pipe := New(WithDimension(192), quickRetry())
	schemas := figure1Schemas()
	const v = 0.7
	peers := servedParties(t, pipe, schemas[1:], v)
	local := schemas[0]

	res, err := pipe.CollaborativeScopeRemote(context.Background(), local, v, peers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Local == nil || res.Local.Schema != local.Name {
		t.Fatalf("missing local model in result: %+v", res.Local)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("unexpected failures: %v", res.Failed)
	}
	if len(res.Streamlined) != 1 {
		t.Fatalf("expected one streamlined schema, got %d", len(res.Streamlined))
	}
	if res.Kept+res.Pruned != local.NumElements() {
		t.Fatalf("verdicts cover %d elements, schema has %d", res.Kept+res.Pruned, local.NumElements())
	}
	if res.Kept == 0 {
		t.Fatal("Figure-1 schemas share a domain; expected some linkable elements")
	}
}

// TestCollaborativeScopeRemoteAllPeersDown pins the conservative floor: no
// peers means no foreign models, so nothing is linkable — and every peer is
// named in the report rather than the round failing.
func TestCollaborativeScopeRemoteAllPeersDown(t *testing.T) {
	pipe := New(WithDimension(192), quickRetry())
	local := figure1Schemas()[0]
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	res, err := pipe.CollaborativeScopeRemote(context.Background(), local, 0.7, []string{deadURL})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("expected the dead peer reported, got %v", res.Failed)
	}
	if res.Kept != 0 {
		t.Fatalf("no foreign models must mean no linkable elements, kept %d", res.Kept)
	}
}

func TestFetchModelsReportsFailures(t *testing.T) {
	pipe := New(WithDimension(192), quickRetry())
	schemas := figure1Schemas()
	peers := servedParties(t, pipe, schemas[:1], 0.7)
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("this is not a model listing"))
	}))
	t.Cleanup(garbage.Close)

	models, failed := pipe.FetchModels(context.Background(), append(peers, garbage.URL))
	if len(models) != 1 || models[0].Schema != schemas[0].Name {
		t.Fatalf("expected one model from the healthy peer, got %d", len(models))
	}
	if len(failed) != 1 || failed[0].Peer != garbage.URL {
		t.Fatalf("expected the garbage peer reported, got %v", failed)
	}
	if !strings.Contains(failed[0].Error(), garbage.URL) {
		t.Fatalf("PeerError message should name the peer: %v", failed[0])
	}
}

// TestAssessServerMatchesLocalAssessment pins the service hot path as
// verdict-preserving: uploading every party's model into one scoping hub
// and posting the local schema's signatures to /v1/assess yields exactly
// the verdicts of an in-process assessment against the same models.
func TestAssessServerMatchesLocalAssessment(t *testing.T) {
	pipe := New(WithDimension(192), quickRetry())
	schemas := figure1Schemas()
	const v = 0.7

	srv, err := NewScopingServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	local := schemas[0]
	var foreign []*Model
	for _, s := range schemas {
		m, err := pipe.TrainModelContext(context.Background(), s, v)
		if err != nil {
			t.Fatalf("train %s: %v", s.Name, err)
		}
		// Every party's model goes into the hub — including the local
		// schema's own, which the service must skip by name.
		if err := pipe.UploadModel(context.Background(), ts.URL, "figure1", m); err != nil {
			t.Fatalf("upload %s: %v", s.Name, err)
		}
		if s != local {
			foreign = append(foreign, m)
		}
	}
	want := must(pipe.AssessContext(context.Background(), local, foreign))

	res, err := pipe.AssessServer(context.Background(), local, ts.URL, "figure1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Used) != len(schemas)-1 {
		t.Fatalf("used %v, want the %d foreign schemas", res.Used, len(schemas)-1)
	}
	for _, used := range res.Used {
		if used == local.Name {
			t.Fatalf("self-model %q was not skipped by the service", local.Name)
		}
	}
	if len(res.Verdicts) != len(want) {
		t.Fatalf("verdict count %d, want %d", len(res.Verdicts), len(want))
	}
	for id, w := range want {
		if res.Verdicts[id] != w {
			t.Fatalf("verdict for %v differs between local and service assessment", id)
		}
	}
}
