// Heterogeneous demonstrates the paper's headline result on the OC3-FO
// scenario: the three Order-Customer schemas joined by the completely
// unrelated Formula One schema (263 % unlinkable overhead). Collaborative
// scoping prunes the unrelated schema ahead of matching, boosting every
// matcher's pair quality while keeping completeness near the unscoped
// baseline.
//
//	go run ./examples/heterogeneous
package main

import (
	"context"
	"fmt"

	"collabscope"
)

func main() {
	ocfo := collabscope.DatasetOC3FO()
	pipe := collabscope.New()
	ctx := context.Background()

	matchers := []collabscope.Matcher{
		collabscope.NewSimMatcher(0.8),
		collabscope.NewClusterMatcher(20, 1),
		collabscope.NewLSHMatcher(1),
	}

	fmt.Println("OC3-FO: 287 elements, 79 linkable (Formula One contributes 127 unlinkable)")
	fmt.Println()

	// How much of the Formula One schema survives scoping?
	const variance = 0.85
	res, err := pipe.CollaborativeScopeContext(ctx, ocfo.Schemas, variance)
	if err != nil {
		panic(err)
	}
	var foKept, foTotal int
	for id, kept := range res.Keep {
		if id.Schema == "FormulaOne" {
			foTotal++
			if kept {
				foKept++
			}
		}
	}
	fmt.Printf("collaborative scoping v=%.2f: kept %d of %d elements overall,\n",
		variance, res.Kept, res.Kept+res.Pruned)
	fmt.Printf("only %d of %d Formula One elements survive\n\n", foKept, foTotal)

	// Ablation: each matcher on the original vs streamlined schemas.
	fmt.Printf("%-12s %-12s %7s %7s %7s %7s %7s\n",
		"matcher", "input", "PQ", "PC", "F1", "RR", "pairs")
	evaluate := func(m collabscope.Matcher, schemas []*collabscope.Schema) collabscope.MatchEval {
		pairs, err := pipe.MatchContext(ctx, m, schemas)
		if err != nil {
			panic(err)
		}
		return collabscope.EvaluateMatch(pairs, ocfo.Truth, ocfo.Schemas)
	}
	for _, m := range matchers {
		printEval(m.Name(), "original", evaluate(m, ocfo.Schemas))
		printEval(m.Name(), "streamlined", evaluate(m, res.Streamlined))
	}
}

func printEval(matcher, input string, e collabscope.MatchEval) {
	fmt.Printf("%-12s %-12s %7.3f %7.3f %7.3f %7.3f %7d\n",
		matcher, input, e.PQ, e.PC, e.F1, e.RR, e.Generated)
}
