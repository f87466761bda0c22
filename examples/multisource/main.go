// Multisource compares collaborative scoping with the global-scoping
// baseline on the OC3 scenario: three Order-Customer schemas from different
// database vendors (Oracle, MySQL, SAP HANA) with a 103 % unlinkable
// overhead.
//
//	go run ./examples/multisource
package main

import (
	"context"
	"fmt"

	"collabscope"
)

func main() {
	oc3 := collabscope.DatasetOC3()
	labels := oc3.Labels()
	pipe := collabscope.New()
	ctx := context.Background()

	fmt.Println("OC3: three vendor schemas, 160 elements, 79 linkable")
	fmt.Println()

	// Global scoping (prior work): one outlier detector over the unified
	// signature set, keeping the lowest-scoring fraction p.
	for _, p := range []float64{0.5, 0.7, 0.9} {
		res, err := pipe.GlobalScopeContext(ctx, oc3.Schemas, collabscope.NewPCADetector(0.5), p)
		if err != nil {
			panic(err)
		}
		report(fmt.Sprintf("global scoping PCA(0.5) p=%.1f", p), res, labels)
	}
	fmt.Println()

	// Collaborative scoping: per-schema encoder-decoders, assessed
	// mutually; the explained variance v is the only shared knob.
	for _, v := range []float64{0.9, 0.75, 0.5} {
		res, err := pipe.CollaborativeScopeContext(ctx, oc3.Schemas, v)
		if err != nil {
			panic(err)
		}
		report(fmt.Sprintf("collaborative scoping v=%.2f", v), res, labels)
	}
}

// report prints scoping quality against the annotated linkability labels.
func report(name string, res *collabscope.ScopeResult, labels map[collabscope.ElementID]bool) {
	var tp, fp, fn int
	for id, kept := range res.Keep {
		switch {
		case kept && labels[id]:
			tp++
		case kept && !labels[id]:
			fp++
		case !kept && labels[id]:
			fn++
		}
	}
	prec := safeDiv(tp, tp+fp)
	rec := safeDiv(tp, tp+fn)
	f1 := 0.0
	if prec+rec > 0 {
		f1 = 2 * prec * rec / (prec + rec)
	}
	fmt.Printf("%-34s kept=%3d precision=%.3f recall=%.3f F1=%.3f\n",
		name, res.Kept, prec, rec, f1)
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
