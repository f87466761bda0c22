package token

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestSplit(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"CUSTOMER_ID", []string{"customer", "id"}},
		{"customerName", []string{"customer", "name"}},
		{"ContactLastName", []string{"contact", "last", "name"}},
		{"HTTPServer", []string{"http", "server"}},
		{"addressLine1", []string{"address", "line", "1"}},
		{"ADDR2", []string{"addr", "2"}},
		{"order-date", []string{"order", "date"}},
		{"order.date", []string{"order", "date"}},
		{"ORDERDATE", []string{"orderdate"}},
		{"", nil},
		{"__", nil},
		{"a", []string{"a"}},
		{"MSRP", []string{"msrp"}},
		{"quantity_in_stock", []string{"quantity", "in", "stock"}},
		// Uppercase runes without a lowercase mapping are caseless, so the
		// lowered tokens split the same way again.
		{"Bℿ", []string{"bℿ"}},
		{"bℿ", []string{"bℿ"}},
		{"ℿℿB", []string{"ℿℿb"}},
		{"ℿℿb", []string{"ℿℿb"}},
		{"İD", []string{"id"}},
	}
	for _, c := range cases {
		if got := Split(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Split(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestExpand(t *testing.T) {
	cases := []struct {
		in   []string
		want []string
	}{
		{[]string{"dob"}, []string{"date", "of", "birth"}},
		{[]string{"qty", "ordered"}, []string{"quantity", "ordered"}},
		{[]string{"cust", "no"}, []string{"customer", "number"}},
		{[]string{"unknown"}, []string{"unknown"}},
		{nil, []string{}},
	}
	for _, c := range cases {
		if got := Expand(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Expand(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize("CUST_DOB")
	want := []string{"customer", "date", "of", "birth"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Normalize = %v, want %v", got, want)
	}
}

func TestConceptSynonyms(t *testing.T) {
	// The core semantic bridges the paper's running example relies on.
	pairs := [][2]string{
		{"client", "customer"},
		{"buyer", "customer"},
		{"delivery", "shipment"},
		{"zip", "postal"},
		{"street", "address"},
		{"telephone", "phone"},
		{"cost", "price"},
		{"supplier", "vendor"},
	}
	for _, p := range pairs {
		if Concept(p[0]) != Concept(p[1]) {
			t.Errorf("Concept(%q)=%q, Concept(%q)=%q — expected same group",
				p[0], Concept(p[0]), p[1], Concept(p[1]))
		}
	}
}

func TestConceptDoesNotBridgeDomains(t *testing.T) {
	// Formula-One vocabulary must not collapse into order-customer concepts.
	for _, tok := range []string{"driver", "circuit", "constructor", "grid", "podium", "championship"} {
		if c := Concept(tok); c != tok {
			t.Errorf("Concept(%q) = %q, want identity (no cross-domain bridge)", tok, c)
		}
	}
	if Concept("driver") == Concept("customer") {
		t.Fatal("driver must not map to customer")
	}
}

func TestConcepts(t *testing.T) {
	got := Concepts([]string{"client", "name"})
	want := []string{"customer", "name"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Concepts = %v, want %v", got, want)
	}
}

// Property: Split output tokens are lower-case, non-empty, and contain only
// letters or only digits.
func TestSplitInvariantsProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Split(s) {
			if tok == "" {
				return false
			}
			if tok != strings.ToLower(tok) {
				return false
			}
			hasLetter, hasDigit := false, false
			for _, r := range tok {
				if unicode.IsLetter(r) {
					hasLetter = true
				}
				if unicode.IsDigit(r) {
					hasDigit = true
				}
			}
			if hasLetter && hasDigit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Split is idempotent under re-joining with underscores.
func TestSplitStableProperty(t *testing.T) {
	f := func(s string) bool {
		first := Split(s)
		joined := ""
		for i, tok := range first {
			if i > 0 {
				joined += "_"
			}
			joined += tok
		}
		return reflect.DeepEqual(Split(joined), first)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
