package collabscope_test

import (
	"context"
	"fmt"
	"sort"

	"collabscope"
)

// Example demonstrates the end-to-end pipeline on two hand-built schemas:
// parse DDL, collaboratively scope, and match the streamlined schemas.
func Example() {
	crm, err := collabscope.ParseDDL("crm", `
	    CREATE TABLE client (cid INT PRIMARY KEY, name VARCHAR(100),
	                         address VARCHAR(200), phone VARCHAR(20));
	    CREATE TABLE orders (order_id INT PRIMARY KEY,
	                         cid INT REFERENCES client (cid), order_date DATE);`)
	if err != nil {
		panic(err)
	}
	shop, err := collabscope.ParseDDL("shop", `
	    CREATE TABLE customer (customer_id INT PRIMARY KEY, first_name VARCHAR(50),
	                           last_name VARCHAR(50), city VARCHAR(50), dob DATE);
	    CREATE TABLE purchases (purchase_id INT PRIMARY KEY,
	                            customer_id INT REFERENCES customer (customer_id),
	                            purchase_date DATE);`)
	if err != nil {
		panic(err)
	}
	racing, err := collabscope.ParseDDL("racing", `
	    CREATE TABLE car (car_id INT PRIMARY KEY, car_name VARCHAR(50),
	                      year INT, country VARCHAR(50));`)
	if err != nil {
		panic(err)
	}

	pipe := collabscope.New()
	ctx := context.Background()
	res, err := pipe.CollaborativeScopeContext(ctx, []*collabscope.Schema{crm, shop, racing}, 0.5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("kept %d of %d elements\n", res.Kept, res.Kept+res.Pruned)

	pairs, err := pipe.MatchContext(ctx, collabscope.NewLSHMatcher(1), res.Streamlined)
	if err != nil {
		panic(err)
	}
	for _, p := range pairs {
		fmt.Printf("%s ~ %s\n", p.A, p.B)
	}
	// Output:
	// kept 7 of 24 elements
	// crm.client ~ shop.customer
	// crm.orders ~ shop.purchases
	// crm.client.name ~ shop.customer.first_name
	// crm.orders.order_date ~ shop.purchases.purchase_date
	// crm.orders.order_id ~ shop.customer.customer_id
	// crm.orders.order_id ~ shop.purchases.purchase_id
}

// ExamplePipeline_TrainModelContext shows the distributed workflow: one
// party trains a model, the other assesses against it — no schema elements
// are exchanged.
func ExamplePipeline_TrainModelContext() {
	fig := collabscope.DatasetFigure1()
	pipe := collabscope.New()
	ctx := context.Background()

	// S2 trains locally and publishes only {mean, components, range}.
	model, err := pipe.TrainModelContext(ctx, fig.Schemas[1], 0.5)
	if err != nil {
		panic(err)
	}

	// S1 assesses its elements against S2's model.
	verdicts, err := pipe.AssessContext(ctx, fig.Schemas[0], []*collabscope.Model{model})
	if err != nil {
		panic(err)
	}
	var linkable []string
	for id, ok := range verdicts {
		if ok {
			linkable = append(linkable, id.String())
		}
	}
	sort.Strings(linkable)
	fmt.Println(linkable)
	// Output:
	// [S1.CLIENT.CID S1.CLIENT.NAME]
}

// ExampleEvaluateMatch scores generated linkages against annotated ground
// truth with the paper's PQ / PC / F1 / RR metrics.
func ExampleEvaluateMatch() {
	fig := collabscope.DatasetFigure1()
	pipe := collabscope.New()
	pairs, err := pipe.MatchContext(context.Background(), collabscope.NewSimMatcher(0.8), fig.Schemas)
	if err != nil {
		panic(err)
	}
	eval := collabscope.EvaluateMatch(pairs, fig.Truth, fig.Schemas)
	fmt.Printf("PQ=%.2f PC=%.2f\n", eval.PQ, eval.PC)
	// Output:
	// PQ=1.00 PC=0.31
}
