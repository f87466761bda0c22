package collabscope

import (
	"strings"
	"testing"
)

func TestRegistryNamesCoverAllConstructors(t *testing.T) {
	wantDet := []string{"autoencoder", "isoforest", "knn", "lof", "mahalanobis", "pca", "zscore"}
	if got := Detectors(); strings.Join(got, ",") != strings.Join(wantDet, ",") {
		t.Fatalf("Detectors() = %v, want %v", got, wantDet)
	}
	wantMat := []string{"cluster", "coma", "flood", "hac", "lsh", "lsh-approx", "lsh-hnsw", "lsh-ivf", "name", "sim"}
	if got := Matchers(); strings.Join(got, ",") != strings.Join(wantMat, ",") {
		t.Fatalf("Matchers() = %v, want %v", got, wantMat)
	}
}

func TestNewDetectorByName(t *testing.T) {
	for _, name := range Detectors() {
		d, err := NewDetectorByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Name() == "" {
			t.Errorf("%s: empty detector name", name)
		}
	}
	if d, err := NewDetectorByName("pca", WithParam(0.7)); err != nil || d.Name() != "PCA(v=0.70)" {
		t.Fatalf("pca with param: %v %v", d, err)
	}
	if d, err := NewDetectorByName("LOF", WithParam(5)); err != nil || d.Name() != "LOF(n=5)" {
		t.Fatalf("case-insensitive lof: %v %v", d, err)
	}
	if _, err := NewDetectorByName("nope"); err == nil {
		t.Fatal("unknown detector should fail")
	}
	if d, err := NewDetectorByName("ae", WithEnsemble(2, 10), WithSeed(7)); err != nil || d == nil {
		t.Fatalf("ae alias: %v %v", d, err)
	}
}

func TestNewMatcherByName(t *testing.T) {
	for _, name := range Matchers() {
		m, err := NewMatcherByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() == "" {
			t.Errorf("%s: empty matcher name", name)
		}
	}
	if m, err := NewMatcherByName("sim", WithParam(0.8)); err != nil || m.Name() != "SIM(0.8)" {
		t.Fatalf("sim with param: %v %v", m, err)
	}
	if _, err := NewMatcherByName("nope"); err == nil {
		t.Fatal("unknown matcher should fail")
	}
}

func TestMatcherIndexConfigPlumbing(t *testing.T) {
	if m, err := NewMatcherByName("lsh-hnsw", WithParam(10)); err != nil || m.Name() != "LSH[hnsw](10)" {
		t.Fatalf("lsh-hnsw: %v %v", m, err)
	}
	if m, err := NewMatcherByName("lsh-ivf"); err != nil || m.Name() != "LSH[ivf](5)" {
		t.Fatalf("lsh-ivf: %v %v", m, err)
	}
	// The full index parameterisation flows through — Tables/Bits used to be
	// silently discarded by the seed-only plumbing.
	m, err := NewMatcherByName("lsh-approx", WithIndexConfig(IndexConfig{Tables: 12, Bits: 10}))
	if err != nil {
		t.Fatalf("lsh-approx with index config: %v", err)
	}
	if m.Name() != "LSH*(5)" {
		t.Fatalf("lsh-approx name = %q", m.Name())
	}
	// ... and is validated at construction, not silently dropped at match
	// time.
	if _, err := NewMatcherByName("lsh-approx", WithIndexConfig(IndexConfig{Bits: 100})); err == nil {
		t.Fatal("bits > 64 must fail construction")
	}
	if _, err := NewMatcherByName("lsh-hnsw", WithIndexConfig(IndexConfig{M: 1})); err == nil {
		t.Fatal("hnsw M = 1 must fail construction")
	}
	if _, err := ParseMatcher("lsh-ivf:5", WithIndexConfig(IndexConfig{NProbe: -1})); err == nil {
		t.Fatal("negative nprobe must fail construction")
	}
	if _, err := ParseMatcher("lsh-hnsw:3", WithIndexConfig(IndexConfig{M: 8, EfSearch: 32})); err != nil {
		t.Fatalf("ParseMatcher with index opts: %v", err)
	}
}

func TestParseSpecStrings(t *testing.T) {
	d, err := ParseDetector("pca:0.5")
	if err != nil || d.Name() != "PCA(v=0.50)" {
		t.Fatalf("ParseDetector = %v, %v", d, err)
	}
	if _, err := ParseDetector("pca:zzz"); err == nil {
		t.Fatal("bad param should fail")
	}
	m, err := ParseMatcher("lsh:3")
	if err != nil || m.Name() != "LSH(3)" {
		t.Fatalf("ParseMatcher = %v, %v", m, err)
	}
	if _, err := ParseMatcher("bogus:1"); err == nil {
		t.Fatal("unknown matcher spec should fail")
	}
}

// TestLSHTopKBelowOneFailsConstruction: a top-k below 1 (a fractional
// parameter truncates to 0) builds a matcher that links nothing, so it
// must fail at construction and name k.
func TestLSHTopKBelowOneFailsConstruction(t *testing.T) {
	for _, spec := range []string{"lsh:0", "lsh:-2", "lsh-hnsw:0", "lsh:0.5"} {
		m, err := ParseMatcher(spec)
		if err == nil {
			t.Errorf("ParseMatcher(%q) = %v, want an error", spec, m.Name())
			continue
		}
		if !strings.Contains(err.Error(), "k=") {
			t.Errorf("ParseMatcher(%q) error %q does not name k", spec, err)
		}
	}
	if _, err := ParseMatcher("lsh:1"); err != nil {
		t.Fatalf("lsh:1: %v", err)
	}
}
