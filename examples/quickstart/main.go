// Quickstart runs collaborative scoping on the paper's Figure-1 toy
// scenario: four tiny schemas — three about customers and orders, one about
// Formula One cars — where only 15 of 24 elements are linkable.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"collabscope"
)

func main() {
	// The bundled Figure-1 dataset: S1 (CLIENT), S2 (CUSTOMER, SHIPMENTS),
	// S3 (BUYER), and the unrelated S4 (CAR).
	fig := collabscope.DatasetFigure1()

	pipe := collabscope.New()
	ctx := context.Background()

	// Phase I-III of collaborative scoping in one call: every schema
	// trains a local encoder-decoder at the shared explained variance and
	// assesses its elements against the other schemas' models.
	// Tiny schemas (4-5 elements) support only tiny PCA subspaces, so the
	// shared variance must be low; real schemas (see the multisource
	// example) work well at v ∈ [0.6, 0.95].
	const variance = 0.3
	res, err := pipe.CollaborativeScopeContext(ctx, fig.Schemas, variance)
	if err != nil {
		panic(err)
	}

	fmt.Printf("collaborative scoping at v=%.2f kept %d of %d elements\n\n",
		variance, res.Kept, res.Kept+res.Pruned)
	for i, s := range fig.Schemas {
		fmt.Printf("%s: %d -> %d elements\n", s.Name, s.NumElements(),
			res.Streamlined[i].NumElements())
		for _, id := range s.ElementIDs() {
			if !res.Keep[id] {
				fmt.Printf("  pruned: %s\n", id)
			}
		}
	}

	// Matching the streamlined schemas produces far fewer false linkages
	// than matching the originals.
	evaluate := func(schemas []*collabscope.Schema) collabscope.MatchEval {
		pairs, err := pipe.MatchContext(ctx, collabscope.NewLSHMatcher(2), schemas)
		if err != nil {
			panic(err)
		}
		return collabscope.EvaluateMatch(pairs, fig.Truth, fig.Schemas)
	}
	sota, scoped := evaluate(fig.Schemas), evaluate(res.Streamlined)

	fmt.Printf("\nmatching with %s:\n", "LSH(2)")
	fmt.Printf("  original schemas:    PQ=%.2f PC=%.2f F1=%.2f RR=%.2f\n",
		sota.PQ, sota.PC, sota.F1, sota.RR)
	fmt.Printf("  streamlined schemas: PQ=%.2f PC=%.2f F1=%.2f RR=%.2f\n",
		scoped.PQ, scoped.PC, scoped.F1, scoped.RR)
}
