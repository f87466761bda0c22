package scoping

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"collabscope/internal/embed"
	"collabscope/internal/linalg"
	"collabscope/internal/metrics"
	"collabscope/internal/outlier"
	"collabscope/internal/schema"
)

// unionSet builds a small unified signature set: a dense order-customer
// cluster plus a distant racing cluster, with labels marking the dense
// cluster linkable.
func unionSet(t *testing.T) (*embed.SignatureSet, map[schema.ElementID]bool) {
	t.Helper()
	oc := (&schema.Schema{Name: "OC", Tables: []schema.Table{{
		Name: "CUSTOMER",
		Attributes: []schema.Attribute{
			{Name: "CUSTOMER_ID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "NAME", Type: schema.TypeText},
			{Name: "ADDRESS", Type: schema.TypeText},
			{Name: "PHONE", Type: schema.TypeText},
			{Name: "EMAIL", Type: schema.TypeText},
		},
	}, {
		Name: "CLIENT",
		Attributes: []schema.Attribute{
			{Name: "CLIENT_ID", Type: schema.TypeNumber, Constraint: schema.PrimaryKey},
			{Name: "CLIENT_NAME", Type: schema.TypeText},
			{Name: "CITY", Type: schema.TypeText},
			{Name: "TELEPHONE", Type: schema.TypeText},
			{Name: "MAIL", Type: schema.TypeText},
		},
	}}}).Normalize()
	racing := (&schema.Schema{Name: "F1", Tables: []schema.Table{{
		Name: "CIRCUITS",
		Attributes: []schema.Attribute{
			{Name: "CIRCUIT_REF", Type: schema.TypeText},
			{Name: "LAP_RECORD", Type: schema.TypeText},
		},
	}}}).Normalize()
	enc := embed.NewHashEncoder(embed.WithDim(96))
	union := embed.Union(embed.EncodeSchemas(enc, []*schema.Schema{oc, racing}))
	labels := map[schema.ElementID]bool{}
	for _, id := range union.IDs {
		labels[id] = id.Schema == "OC"
	}
	return union, labels
}

func TestRankSortsAscending(t *testing.T) {
	union, _ := unionSet(t)
	r := Rank(outlier.ZScore{}, union)
	if r.Len() != union.Len() {
		t.Fatalf("Len = %d", r.Len())
	}
	for i := 1; i < r.Len(); i++ {
		if r.Scores[i] < r.Scores[i-1] {
			t.Fatalf("scores not ascending at %d", i)
		}
	}
}

func TestScopeBoundaries(t *testing.T) {
	union, _ := unionSet(t)
	r := Rank(outlier.PCA{Variance: 0.5}, union)
	if got := len(r.Scope(1)); got != r.Len() {
		t.Fatalf("p=1 keeps %d of %d", got, r.Len())
	}
	if got := len(r.Scope(0)); got != 0 {
		t.Fatalf("p=0 keeps %d", got)
	}
	// Out-of-range p clamps.
	if got := len(r.Scope(2)); got != r.Len() {
		t.Fatalf("p=2 keeps %d", got)
	}
	if got := len(r.Scope(-1)); got != 0 {
		t.Fatalf("p=-1 keeps %d", got)
	}
	// Half keeps about half.
	half := len(r.Scope(0.5))
	if half < r.Len()/2-1 || half > r.Len()/2+1 {
		t.Fatalf("p=0.5 keeps %d of %d", half, r.Len())
	}
}

func TestScopeKeepsLowestScores(t *testing.T) {
	union, _ := unionSet(t)
	r := Rank(outlier.PCA{Variance: 0.5}, union)
	keep := r.Scope(0.25)
	n := len(keep)
	for i := 0; i < n; i++ {
		if !keep[r.IDs[i]] {
			t.Fatalf("rank %d (low score) not kept", i)
		}
	}
	for i := n; i < r.Len(); i++ {
		if keep[r.IDs[i]] {
			t.Fatalf("rank %d (high score) wrongly kept", i)
		}
	}
}

func TestLinkableScoresNegation(t *testing.T) {
	union, _ := unionSet(t)
	r := Rank(outlier.ZScore{}, union)
	ls := r.LinkableScores()
	for i := range ls {
		if ls[i] != -r.Scores[i] {
			t.Fatal("LinkableScores must negate outlier scores")
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(g) != 5 {
		t.Fatalf("grid = %v", g)
	}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Fatalf("grid = %v", g)
		}
	}
	if len(Grid(0)) != 2 {
		t.Fatal("Grid clamps n to ≥ 1")
	}
}

func TestSweepMonotoneRecall(t *testing.T) {
	union, labels := unionSet(t)
	r := Rank(outlier.PCA{Variance: 0.5}, union)
	entries := r.Sweep(labels, Grid(10))
	if len(entries) != 11 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Recall is non-decreasing in p (keeping more can only add TPs) and
	// reaches 1 at p=1.
	prev := -1.0
	for _, e := range entries {
		rec := e.Confusion.Recall()
		if rec < prev-1e-12 {
			t.Fatalf("recall decreased at p=%v", e.Param)
		}
		prev = rec
	}
	if last := entries[len(entries)-1].Confusion.Recall(); last != 1 {
		t.Fatalf("recall at p=1 is %v", last)
	}
}

func TestEvaluateSeparatesDomains(t *testing.T) {
	union, labels := unionSet(t)
	sum := Evaluate(outlier.PCA{Variance: 0.5}, union, labels, Grid(20), 0.001)
	// The racing outliers should be rankable: better than random.
	if sum.AUCROC <= 0.5 {
		t.Fatalf("AUC-ROC = %v, want > 0.5", sum.AUCROC)
	}
	if sum.AUCPR <= 0.6 {
		t.Fatalf("AUC-PR = %v, want > 0.6", sum.AUCPR)
	}
	if sum.AUCF1 <= 0 || sum.AUCF1 > 1 {
		t.Fatalf("AUC-F1 = %v", sum.AUCF1)
	}
	if sum.AUCROCp < 0 || sum.AUCROCp > 1 {
		t.Fatalf("AUC-ROC' = %v", sum.AUCROCp)
	}
}

// Property: for any p ≤ q the keep-set at p is a subset of the keep-set at
// q (scoping is monotone in the threshold).
func TestScopeMonotoneProperty(t *testing.T) {
	union, _ := unionSet(t)
	r := Rank(outlier.ZScore{}, union)
	f := func(a, b float64) bool {
		p, q := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if p > q {
			p, q = q, p
		}
		kp, kq := r.Scope(p), r.Scope(q)
		for id := range kp {
			if !kq[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRankOnUniformData(t *testing.T) {
	// Degenerate input: identical signatures — scores equal, no panic.
	ids := []schema.ElementID{
		schema.TableID("A", "T1"), schema.TableID("B", "T2"),
		schema.TableID("C", "T3"),
	}
	m := linalg.NewDense(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, 1)
		}
	}
	set := &embed.SignatureSet{IDs: ids, Matrix: m}
	r := Rank(outlier.ZScore{}, set)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

// RankLocal is the "local-only" scoping ablation: each schema scores its
// OWN elements with its own detector, and the per-schema scores are
// standardised before merging so the threshold p is comparable across
// schemas. This isolates what collaborative scoping's model EXCHANGE
// contributes: purely local outlier scores cannot see that an element
// normal within its own schema (every Formula One attribute) is unlinkable
// globally, so this baseline is expected to fail on domain heterogeneity.
func RankLocal(det outlier.Detector, sets []*embed.SignatureSet) *Ranking {
	var ids []schema.ElementID
	var scores []float64
	for _, set := range sets {
		local := det.Scores(set.Matrix)
		standardize(local)
		ids = append(ids, set.IDs...)
		scores = append(scores, local...)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	r := &Ranking{
		IDs:    make([]schema.ElementID, len(idx)),
		Scores: make([]float64, len(idx)),
	}
	for out, in := range idx {
		r.IDs[out] = ids[in]
		r.Scores[out] = scores[in]
	}
	return r
}

// standardize shifts and scales v in place to zero mean, unit variance
// (no-op for constant slices).
func standardize(v []float64) {
	mu := linalg.Mean(v)
	sd := linalg.StdDev(v)
	if sd == 0 {
		for i := range v {
			v[i] = 0
		}
		return
	}
	for i := range v {
		v[i] = (v[i] - mu) / sd
	}
}

func TestRankLocalCannotSeeCrossSchemaLinkability(t *testing.T) {
	// The local-only ablation: elements normal WITHIN their own schema get
	// low scores even when they are globally unlinkable. The racing
	// schema's elements are perfectly normal to themselves, so local
	// ranking must NOT concentrate them at the anomalous end the way
	// global ranking does.
	union, labels := unionSet(t)
	// Rebuild the per-schema sets from the union.
	var ocIDs, racingIDs []schema.ElementID
	for _, id := range union.IDs {
		if id.Schema == "OC" {
			ocIDs = append(ocIDs, id)
		} else {
			racingIDs = append(racingIDs, id)
		}
	}
	toSet := func(ids []schema.ElementID) *embed.SignatureSet {
		keep := map[schema.ElementID]bool{}
		for _, id := range ids {
			keep[id] = true
		}
		return union.Select(keep)
	}
	sets := []*embed.SignatureSet{toSet(ocIDs), toSet(racingIDs)}

	local := RankLocal(outlier.PCA{Variance: 0.5}, sets)
	if local.Len() != union.Len() {
		t.Fatalf("local ranking covers %d elements", local.Len())
	}
	// Standardised per-schema scores are finite and merged.
	for _, s := range local.Scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("non-finite local score %v", s)
		}
	}

	// Global scoping separates the racing cluster (above-random AUC);
	// local-only scoring must be clearly worse — the exchange is what
	// detects cross-schema unlinkability.
	global := Rank(outlier.PCA{Variance: 0.5}, union)
	auc := func(r *Ranking) float64 {
		scores := r.LinkableScores()
		aligned := r.LabelsFor(labels)
		return metrics.TrapezoidAUC(metrics.ROCFromScores(scores, aligned))
	}
	if auc(local) >= auc(global) {
		t.Errorf("local-only AUC %.3f should trail global AUC %.3f", auc(local), auc(global))
	}
}
