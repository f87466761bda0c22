// Integrate shows the full journey from raw schemas to a mediated global
// schema: collaborative scoping prunes unlinkable elements, a matcher
// generates linkages over the streamlined schemas, linkage clusters become
// mediated tables, and UNION ALL view skeletons materialise them — the
// integration step the paper points to as the consumer of its linkages.
//
//	go run ./examples/integrate
package main

import (
	"context"
	"fmt"

	"collabscope"
)

func main() {
	fig := collabscope.DatasetFigure1()
	pipe := collabscope.New()
	ctx := context.Background()

	// 1. Scope: prune unlinkable elements (the CAR schema, DOB, …).
	res, err := pipe.CollaborativeScopeContext(ctx, fig.Schemas, 0.3)
	if err != nil {
		panic(err)
	}
	fmt.Printf("scoping kept %d of %d elements\n", res.Kept, res.Kept+res.Pruned)

	// 2. Match the streamlined schemas.
	pairs, err := pipe.MatchContext(ctx, collabscope.NewSimMatcher(0.55), res.Streamlined)
	if err != nil {
		panic(err)
	}
	fmt.Printf("matcher generated %d linkage candidates\n\n", len(pairs))

	// 3. Derive the mediated schema from the linkage clusters.
	med := collabscope.BuildMediated(fig.Schemas, pairs)
	for _, mt := range med.Tables {
		fmt.Printf("mediated table %s (%d columns, sources in %d schemas)\n",
			mt.Name, len(mt.Columns), len(mt.Sources))
		for _, col := range mt.Columns {
			fmt.Printf("  column %-12s <-", col.Name)
			for schemaName, attrs := range col.Sources {
				for _, a := range attrs {
					fmt.Printf(" %s.%s.%s", schemaName, a.Table, a.Attribute)
				}
			}
			fmt.Println()
		}
		fmt.Println()
		// 4. Materialisation skeleton.
		fmt.Println(collabscope.UnionView(mt))
		fmt.Println()
	}
}
