package exchange

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"collabscope/internal/core"
	"collabscope/internal/linalg"
	"collabscope/internal/obs"
)

// TestDeltaAssessReusesColumnsAcrossRepublish pins the service delta path:
// re-assessing the same signatures recomputes nothing, a single-model
// republish (version bump) recomputes exactly that model's column, and the
// delta-served verdicts are identical to a cold server's — with the
// service.delta.* counters (global and per-tenant) proving the reuse.
func TestDeltaAssessReusesColumnsAcrossRepublish(t *testing.T) {
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
		if _, err := c.Upload(ctx, ts.URL, "acme", serviceModel(t, name, 1.5)); err != nil {
			t.Fatal(err)
		}
	}
	req := &AssessRequest{
		Schema:     "Alpha",
		IDs:        []string{"e0", "e1", "e2"},
		Signatures: [][]float64{{1, 0.1, 0, 0.5}, {0.2, 0.7, 0.1, 0.25}, {9, 9, 9, 9}},
	}
	n := int64(len(req.Signatures))
	counters := func(name string) int64 { return reg.Snapshot().Counters[name] }

	// Cold round: both foreign columns (Beta, Gamma) are scored.
	first, err := c.Assess(ctx, ts.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	if got := counters("service.delta.rescored"); got != 2*n {
		t.Fatalf("cold round rescored %d, want %d", got, 2*n)
	}
	if got := counters("service.delta.reused"); got != 0 {
		t.Fatalf("cold round reused %d, want 0", got)
	}

	// Identical round: everything reused, verdicts identical.
	second, err := c.Assess(ctx, ts.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	if got := counters("service.delta.reused"); got != 2*n {
		t.Fatalf("warm round reused %d, want %d", got, 2*n)
	}
	if got := counters("service.delta.rescored"); got != 2*n {
		t.Fatalf("warm round rescored %d, want still %d", got, 2*n)
	}
	for i := range first.Verdicts {
		if first.Verdicts[i] != second.Verdicts[i] {
			t.Fatalf("verdict %d changed on reuse: %+v vs %+v", i, first.Verdicts[i], second.Verdicts[i])
		}
	}

	// Republish Beta with new content: a version bump. Only Beta's column
	// re-scores; Gamma's is still served from the cache.
	ur, err := c.Upload(ctx, ts.URL, "acme", serviceModel(t, "Beta", 3.5))
	if err != nil {
		t.Fatal(err)
	}
	if ur.Version != 2 {
		t.Fatalf("republish version %d, want 2", ur.Version)
	}
	third, err := c.Assess(ctx, ts.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	if got := counters("service.delta.rescored"); got != 3*n {
		t.Fatalf("republish round total rescored %d, want %d (one column)", got, 3*n)
	}
	if got := counters("service.delta.reused"); got != 3*n {
		t.Fatalf("republish round total reused %d, want %d", got, 3*n)
	}
	if counters("service.tenant.acme.delta.reused") != 3*n || counters("service.tenant.acme.delta.rescored") != 3*n {
		t.Fatal("per-tenant service.tenant.acme.delta.* counters did not mirror the global ones")
	}

	// Ground truth: a cold server holding the same final registry answers
	// identically to the delta-served response.
	cold, err := NewServer()
	if err != nil {
		t.Fatal(err)
	}
	tsCold := httptest.NewServer(cold)
	defer tsCold.Close()
	for _, m := range []struct {
		name  string
		scale float64
	}{{"Alpha", 1.5}, {"Beta", 3.5}, {"Gamma", 1.5}} {
		if _, err := c.Upload(ctx, tsCold.URL, "acme", serviceModel(t, m.name, m.scale)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := c.Assess(ctx, tsCold.URL, "acme", req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Verdicts {
		if third.Verdicts[i] != want.Verdicts[i] {
			t.Fatalf("delta verdict %d = %+v, cold server says %+v", i, third.Verdicts[i], want.Verdicts[i])
		}
	}

	// Different signatures miss the cache (fresh key), different tenant too.
	other := &AssessRequest{Schema: "Alpha", Signatures: [][]float64{{0.5, 0.5, 0.5, 0.5}}}
	if _, err := c.Assess(ctx, ts.URL, "acme", other); err != nil {
		t.Fatal(err)
	}
	if got := counters("service.delta.rescored"); got != 3*n+2 {
		t.Fatalf("fresh signatures rescored: counter %d, want %d", got, 3*n+2)
	}
}

// TestDeltaStoreBounded pins the eviction bound: the cache never holds more
// than maxDeltaEntries signature entries.
func TestDeltaStoreBounded(t *testing.T) {
	d := newDeltaStore(nil)
	for i := 0; i < maxDeltaEntries+50; i++ {
		d.put(string(rune(i))+"key", "S", deltaColumn{etag: "e", errs: []float64{1}})
	}
	if n := d.entries.Len(); n != maxDeltaEntries {
		t.Fatalf("cache holds %d entries, cap %d", n, maxDeltaEntries)
	}
	if _, ok := d.get("missing", "S"); ok {
		t.Fatal("lookup of a missing key returned an entry")
	}
}

// TestDeltaStoreEvictsLeastRecentlyUsed: a key looked up after every insert
// survives maxDeltaEntries further inserts (oldest-first eviction would
// drop it), and every insert beyond the cap counts one
// service.delta.evictions.
func TestDeltaStoreEvictsLeastRecentlyUsed(t *testing.T) {
	reg := obs.NewRegistry()
	d := newDeltaStore(reg)
	col := deltaColumn{etag: "e", errs: []float64{1}}
	d.put("hot", "S", col)
	const inserts = maxDeltaEntries + 40
	for i := 0; i < inserts; i++ {
		d.put(fmt.Sprintf("cold%d", i), "S", col)
		if _, ok := d.get("hot", "S"); !ok {
			t.Fatalf("hot key evicted after %d inserts although touched after each", i+1)
		}
	}
	if _, ok := d.get("cold0", "S"); ok {
		t.Fatal("least recently used key cold0 survived")
	}
	if got, want := reg.Snapshot().Counters["service.delta.evictions"], int64(1+inserts-maxDeltaEntries); got != want {
		t.Fatalf("service.delta.evictions = %d, want %d", got, want)
	}
}

// TestAssessSigKeyGolden pins the delta-cache key of a fixed request. The
// digest was taken from the one-Write-per-float hasher, so feeding SHA-256
// in chunks must not move it; the 900 floats cross a chunk boundary.
func TestAssessSigKeyGolden(t *testing.T) {
	req := &AssessRequest{Schema: "Orders", Signatures: make([][]float64, 9)}
	for i := range req.Signatures {
		row := make([]float64, 100)
		for j := range row {
			row[j] = float64(i*100+j-450) / 337
		}
		req.Signatures[i] = row
	}
	req.Signatures[0][1] = math.Copysign(0, -1)
	req.Signatures[8][99] = math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		tenant string
		req    *AssessRequest
		want   string
	}{
		{"acme", req, "fdcfb85280c8ae6d8b98165717cef3c0447ab826fde2e7ef09428c668c8f5dfb"},
		{"", &AssessRequest{}, "01d448afd928065458cf670b60f5a594d735af0172c8d67f22a81680132681ca"},
	} {
		if got := core.SignatureDigest(tc.tenant, tc.req.Schema, linalg.FromRows(tc.req.Signatures)); got != tc.want {
			t.Errorf("SignatureDigest(%q, %d rows) = %s, want %s", tc.tenant, len(tc.req.Signatures), got, tc.want)
		}
	}
}
