package collabscope

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Cross-module integration tests exercising the public API end-to-end on
// the bundled datasets.

func TestOC3EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-dataset integration test")
	}
	oc3 := DatasetOC3()
	pipe := New(WithDimension(256))

	res, err := pipe.CollaborativeScopeContext(context.Background(), oc3.Schemas, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	labels := oc3.Labels()
	var tp, fp int
	for id, kept := range res.Keep {
		if kept {
			if labels[id] {
				tp++
			} else {
				fp++
			}
		}
	}
	prec := float64(tp) / float64(tp+fp)
	if prec < 0.55 {
		t.Errorf("scoping precision at v=0.85 = %.3f, want ≥ 0.55", prec)
	}

	// Matching the streamlined schemas beats the originals on PQ.
	matcher := NewLSHMatcher(5)
	sota := EvaluateMatch(must(pipe.MatchContext(context.Background(), matcher, oc3.Schemas)), oc3.Truth, oc3.Schemas)
	scoped := EvaluateMatch(must(pipe.MatchContext(context.Background(), matcher, res.Streamlined)), oc3.Truth, oc3.Schemas)
	if scoped.PQ <= sota.PQ {
		t.Errorf("scoped PQ %.3f should beat SOTA %.3f", scoped.PQ, sota.PQ)
	}
	if scoped.RR < sota.RR {
		t.Errorf("scoped RR %.3f below SOTA %.3f", scoped.RR, sota.RR)
	}
}

func TestModelExchangeMatchesInProcessScoping(t *testing.T) {
	// Serialising every model through JSON and assessing against the
	// deserialised copies must give the same verdicts as in-process
	// collaborative scoping.
	fig := DatasetFigure1()
	pipe := New(WithDimension(192))
	const v = 0.4

	direct, err := pipe.CollaborativeScopeContext(context.Background(), fig.Schemas, v)
	if err != nil {
		t.Fatal(err)
	}

	models := make([]*Model, len(fig.Schemas))
	for i, s := range fig.Schemas {
		m, err := pipe.TrainModelContext(context.Background(), s, v)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		models[i], err = ReadModelJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range fig.Schemas {
		var foreign []*Model
		for j, m := range models {
			if j != i {
				foreign = append(foreign, m)
			}
		}
		for id, verdict := range must(pipe.AssessContext(context.Background(), s, foreign)) {
			if direct.Keep[id] != verdict {
				t.Fatalf("verdict for %v differs: direct %v vs exchanged %v",
					id, direct.Keep[id], verdict)
			}
		}
	}
}

// Property: for any valid variance, scoping verdicts cover exactly the
// input elements, streamlined schemas are element-wise subsets, and the
// run is deterministic.
func TestCollaborativeScopeInvariantsProperty(t *testing.T) {
	fig := DatasetFigure1()
	pipe := New(WithDimension(128))
	total := 0
	for _, s := range fig.Schemas {
		total += s.NumElements()
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := 0.05 + r.Float64()*0.9
		a, err := pipe.CollaborativeScopeContext(context.Background(), fig.Schemas, v)
		if err != nil {
			return false
		}
		if len(a.Keep) != total || a.Kept+a.Pruned != total {
			return false
		}
		for i, s := range fig.Schemas {
			if a.Streamlined[i].NumElements() > s.NumElements() {
				return false
			}
		}
		b, err := pipe.CollaborativeScopeContext(context.Background(), fig.Schemas, v)
		if err != nil {
			return false
		}
		for id, kept := range a.Keep {
			if b.Keep[id] != kept {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: global scoping keep-count equals round(p·n) for any p.
func TestGlobalScopeCountProperty(t *testing.T) {
	fig := DatasetFigure1()
	pipe := New(WithDimension(128))
	det := NewZScoreDetector()
	n := 0
	for _, s := range fig.Schemas {
		n += s.NumElements()
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := r.Float64()
		res, err := pipe.GlobalScopeContext(context.Background(), fig.Schemas, det, p)
		if err != nil {
			return false
		}
		return res.Kept == int(math.Round(p*float64(n)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMediatedSchemaFromGroundTruth(t *testing.T) {
	// Building a mediated schema from the OC3 ground truth itself (the
	// perfect matcher) yields customer/order/product tables spanning all
	// three vendors.
	oc3 := DatasetOC3()
	var pairs []Pair
	for _, l := range oc3.Truth.Linkages() {
		pairs = append(pairs, Pair{A: l.A, B: l.B})
	}
	med := BuildMediated(oc3.Schemas, pairs)
	if len(med.Tables) < 3 {
		t.Fatalf("mediated tables = %d, want ≥ 3", len(med.Tables))
	}
	foundTriple := false
	for _, mt := range med.Tables {
		if len(mt.Sources) == 3 {
			foundTriple = true
			sql := UnionView(mt)
			if len(sql) == 0 {
				t.Fatal("empty view")
			}
		}
	}
	if !foundTriple {
		t.Fatal("no mediated table spans all three vendors")
	}
}
