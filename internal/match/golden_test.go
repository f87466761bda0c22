package match

import (
	"context"
	"testing"

	"collabscope/internal/ann"
	"collabscope/internal/datasets"
	"collabscope/internal/embed"
)

// TestMatcherGoldens pins every matcher's output on the OC3 dataset with
// a fixed hash encoder. Pair counts and leading pairs were captured from
// the pre-kernel scalar implementations; the cosine/GEMM kernel paths and
// the heap top-k ANN search must reproduce them exactly (all comparisons
// here are against thresholds the kernels hit bit-identically).
func TestMatcherGoldens(t *testing.T) {
	d := datasets.OC3()
	enc := embed.NewHashEncoder(embed.WithDim(96))
	sets := must(embed.EncodeSchemasContext(context.Background(), 0, enc, d.Schemas))

	comp := Composite{Threshold: 0.5}.Match(sets[0], sets[1])
	if len(comp) != 74 {
		t.Fatalf("len(comp) = %d, want 74", len(comp))
	}
	wantComp := [][2]string{
		{"OC-MySQL.customers", "OC-Oracle.CUSTOMERS"},
		{"OC-MySQL.products", "OC-Oracle.PRODUCTS"},
		{"OC-MySQL.productlines", "OC-Oracle.PRODUCTS"},
	}
	for i, w := range wantComp {
		if comp[i].A.String() != w[0] || comp[i].B.String() != w[1] {
			t.Errorf("comp[%d] = %v, want %v", i, comp[i], w)
		}
	}

	sim := Sim{Threshold: 0.6}.Match(sets[0], sets[1])
	if len(sim) != 102 {
		t.Fatalf("len(sim) = %d, want 102", len(sim))
	}

	lsh := LSH{K: 3}.Match(sets[0], sets[1])
	if len(lsh) != 260 {
		t.Fatalf("len(lsh) = %d, want 260", len(lsh))
	}
	wantLSH := [][2]string{
		{"OC-MySQL.customers", "OC-Oracle.CUSTOMERS"},
		{"OC-MySQL.employees", "OC-Oracle.CUSTOMERS"},
		{"OC-MySQL.offices", "OC-Oracle.CUSTOMERS"},
	}
	for i, w := range wantLSH {
		if lsh[i].A.String() != w[0] || lsh[i].B.String() != w[1] {
			t.Errorf("lsh[%d] = %v, want %v", i, lsh[i], w)
		}
	}

	lshA := LSH{K: 3, Index: IndexConfig{Kind: ann.KindLSH, Seed: 4}}.Match(sets[0], sets[1])
	if len(lshA) != 265 {
		t.Fatalf("len(lshA) = %d, want 265", len(lshA))
	}
	for i, w := range wantLSH {
		if lshA[i].A.String() != w[0] || lshA[i].B.String() != w[1] {
			t.Errorf("lshA[%d] = %v, want %v", i, lshA[i], w)
		}
	}
}
