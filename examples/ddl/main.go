// DDL shows the file-level workflow: parse vendor CREATE TABLE scripts,
// exchange locally trained models instead of schema contents, assess
// linkability per schema, and emit the streamlined schemas as JSON.
//
//	go run ./examples/ddl
package main

import (
	"context"
	"fmt"
	"os"

	"collabscope"
)

const crmDDL = `
-- A small CRM system.
CREATE TABLE client (
  cid     INT PRIMARY KEY,
  name    VARCHAR(100),
  address VARCHAR(200),
  phone   VARCHAR(20)
);
CREATE TABLE orders (
  order_id   INT PRIMARY KEY,
  cid        INT REFERENCES client (cid),
  order_date DATE,
  status     VARCHAR(10)
);`

const shopDDL = `
/* An online shop. */
CREATE TABLE customer (
  customer_id INT PRIMARY KEY,
  first_name  VARCHAR(50),
  last_name   VARCHAR(50),
  city        VARCHAR(50),
  dob         DATE
);
CREATE TABLE purchase (
  purchase_id   INT PRIMARY KEY,
  customer_id   INT REFERENCES customer (customer_id),
  purchase_date DATE,
  state         VARCHAR(10)
);`

const racingDDL = `
CREATE TABLE car (
  car_id   INT PRIMARY KEY,
  car_name VARCHAR(50),
  year     INT,
  country  VARCHAR(50)
);
CREATE TABLE race_result (
  result_id INT PRIMARY KEY,
  car_id    INT REFERENCES car (car_id),
  grid      INT,
  points    DECIMAL(5,2)
);`

func main() {
	crm, err := collabscope.ParseDDL("crm", crmDDL)
	check(err)
	shop, err := collabscope.ParseDDL("shop", shopDDL)
	check(err)
	racing, err := collabscope.ParseDDL("racing", racingDDL)
	check(err)
	schemas := []*collabscope.Schema{crm, shop, racing}

	pipe := collabscope.New()
	ctx := context.Background()

	// The distributed workflow: each party trains its own model at the
	// agreed variance and shares ONLY the model (mean, components,
	// linkability range) — never its tables or attributes.
	const variance = 0.5 // small schemas warrant a lower variance
	models := make([]*collabscope.Model, len(schemas))
	for i, s := range schemas {
		models[i], err = pipe.TrainModelContext(ctx, s, variance)
		check(err)
		fmt.Printf("%s: trained local model with %d components, range %.4g\n",
			s.Name, models[i].Components(), models[i].Range)
	}
	fmt.Println()

	// Each party assesses its own schema against the others' models;
	// AssessContext skips the model trained on the schema itself.
	for _, s := range schemas {
		verdict, err := pipe.AssessContext(ctx, s, models)
		check(err)
		streamlined := s.Subset(verdict)
		fmt.Printf("%s: %d -> %d elements after linkability assessment\n",
			s.Name, s.NumElements(), streamlined.NumElements())
		check(streamlined.WriteJSON(os.Stdout))
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
