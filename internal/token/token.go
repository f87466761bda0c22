// Package token splits relational identifiers into normalised word tokens
// and maps them to semantic concepts via a curated synonym lexicon.
//
// Schema metadata names arrive in many conventions — SNAKE_CASE, camelCase,
// PascalCase, with digits and abbreviations. The tokenizer normalises them
// all to lower-case word sequences so the signature encoder (and any string
// matcher) sees CLIENT_NAME, clientName and ClientName identically.
package token

import (
	"sort"
	"strings"
	"unicode"
)

// Split breaks an identifier into lower-case tokens. It splits on
// non-alphanumeric separators and on case transitions (fooBar → foo, bar;
// HTTPServer → http, server) and separates digit runs (addr2 → addr, 2).
func Split(ident string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(ident)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r):
			if cur.Len() > 0 {
				prev := runes[i-1]
				switch {
				case unicode.IsDigit(prev):
					flush()
				case unicode.IsLower(prev) && isUpper(r):
					// camelCase boundary.
					flush()
				case isUpper(prev) && isUpper(r) &&
					i+1 < len(runes) && unicode.IsLower(runes[i+1]):
					// End of an acronym run: HTTPServer → HTTP | Server.
					flush()
				}
			}
			cur.WriteRune(r)
		case unicode.IsDigit(r):
			if cur.Len() > 0 && !unicode.IsDigit(runes[i-1]) {
				flush()
			}
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// isUpper reports whether r is an uppercase letter that lowering changes.
// Uppercase runes without a lowercase mapping (ℂ, ℿ) stay uppercase in the
// lowered tokens, so treating them as case boundaries would split those
// tokens again on re-tokenising; they count as caseless instead.
func isUpper(r rune) bool { return unicode.IsUpper(r) && unicode.ToLower(r) != r }

// Expand rewrites common relational abbreviations to their full words and
// returns the expanded token list. Unknown tokens pass through unchanged.
func Expand(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if exp, ok := abbreviations[t]; ok {
			out = append(out, exp...)
			continue
		}
		out = append(out, t)
	}
	return out
}

// Normalize is the full pipeline: Split then Expand.
func Normalize(ident string) []string {
	return Expand(Split(ident))
}

// abbreviations maps frequent relational shorthand to full words.
var abbreviations = map[string][]string{
	"no":    {"number"},
	"num":   {"number"},
	"nr":    {"number"},
	"qty":   {"quantity"},
	"amt":   {"amount"},
	"addr":  {"address"},
	"tel":   {"telephone"},
	"dob":   {"date", "of", "birth"},
	"desc":  {"description"},
	"descr": {"description"},
	"dt":    {"date"},
	"cust":  {"customer"},
	"prod":  {"product"},
	"ord":   {"order"},
	"emp":   {"employee"},
	"dept":  {"department"},
	"msrp":  {"manufacturer", "suggested", "retail", "price"},
	"pos":   {"position"},
	"lat":   {"latitude"},
	"lon":   {"longitude"},
	"lng":   {"longitude"},
	"img":   {"image"},
	"id":    {"identifier"},
	"uid":   {"identifier"},
	"fname": {"first", "name"},
	"lname": {"last", "name"},
	"mime":  {"mime"},
}

// Concept returns the canonical concept for a token: its synonym-group head
// if the token belongs to a curated group, otherwise the token itself.
//
// The lexicon models the semantic bridging a pre-trained sentence encoder
// provides between business vocabulary across database vendors (CLIENT ≈
// CUSTOMER, SHIPMENT ≈ DELIVERY, …). It deliberately does NOT bridge
// vocabularies across unrelated domains (driver, circuit, constructor, …),
// mirroring how Sentence-BERT keeps Formula-One terminology away from
// order-customer terminology.
func Concept(tok string) string {
	if c, ok := synonyms[tok]; ok {
		return c
	}
	return tok
}

// Concepts maps every token to its concept.
func Concepts(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		out[i] = Concept(t)
	}
	return out
}

// Enrichment lexicon (DESIGN.md §16). The maps below extend the base
// abbreviation/synonym tables for the OPT-IN enrichment stage
// (internal/enrich) only: the base encoder keeps consulting
// `abbreviations` and `synonyms` unchanged, so every signature, golden
// matcher output, and claim-level pin built on the base lexicon stays
// bit-identical unless a caller explicitly enables enrichers.

// enrichmentAbbreviations extends `abbreviations` with shorthand common in
// production schemas but absent from the paper's datasets.
var enrichmentAbbreviations = map[string][]string{
	"acct": {"account"},
	"avg":  {"average"},
	"bal":  {"balance"},
	"cat":  {"category"},
	"curr": {"currency"},
	"dst":  {"destination"},
	"grp":  {"group"},
	"inv":  {"invoice"},
	"max":  {"maximum"},
	"mgr":  {"manager"},
	"min":  {"minimum"},
	"org":  {"organisation"},
	"pct":  {"percent"},
	"pmt":  {"payment"},
	"pwd":  {"password"},
	"ref":  {"reference"},
	"seq":  {"sequence"},
	"sku":  {"stock", "keeping", "unit"},
	"src":  {"source"},
	"ssn":  {"social", "security", "number"},
	"upc":  {"universal", "product", "code"},
	"usr":  {"user"},
	"vat":  {"value", "added", "tax"},
}

// synonymGroups is the inverted index of `synonyms`: concept head → sorted
// group members. Built once at init.
var synonymGroups = func() map[string][]string {
	groups := map[string][]string{}
	for tok, head := range synonyms {
		groups[head] = append(groups[head], tok)
	}
	for head := range groups {
		sort.Strings(groups[head])
	}
	return groups
}()

// SynonymGroup returns the sorted members of the token's curated synonym
// group (including the token itself), or nil when the token belongs to no
// group.
func SynonymGroup(tok string) []string {
	head, ok := synonyms[tok]
	if !ok {
		return nil
	}
	return synonymGroups[head]
}

// Enrich returns the deterministic expansion set of a token sequence for
// the enrichment stage: enrichment-lexicon abbreviation expansions plus
// every member of each token's synonym group, in first-derivation order,
// deduplicated, and excluding tokens already present in the input. The
// result is what the lexicon enricher appends to an element's
// serialisation before encoding.
func Enrich(tokens []string) []string {
	seen := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		seen[t] = true
	}
	var out []string
	add := func(t string) {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, t := range tokens {
		for _, exp := range enrichmentAbbreviations[t] {
			add(exp)
		}
		for _, member := range SynonymGroup(t) {
			add(member)
		}
	}
	return out
}

// synonyms maps tokens to a canonical concept head. Groups are built from
// common relational business vocabulary.
var synonyms = map[string]string{
	// customer group
	"customer": "customer", "client": "customer", "buyer": "customer",
	"purchaser": "customer", "account": "customer", "contact": "customer",

	// order group
	"order": "order", "purchase": "order", "sale": "order",

	// order line group
	"item": "line", "line": "line", "detail": "line", "position": "line",

	// product group
	"product": "product", "article": "product", "good": "product",
	"goods": "product", "merchandise": "product",

	// shipment group
	"shipment": "shipment", "delivery": "shipment", "shipping": "shipment",
	"dispatch": "shipment", "shipped": "shipment",

	// address / location group
	"address": "address", "street": "address", "location": "address",

	// geography
	"city": "city", "town": "city",
	"state": "region", "region": "region", "province": "region", "territory": "region",
	"country": "country", "nation": "country",
	"postal": "postal", "zip": "postal", "postcode": "postal",

	// person names
	"name": "name", "title": "name", "label": "name",
	"first": "first", "given": "first",
	"last": "last", "sur": "last", "family": "last",

	// communication
	"phone": "phone", "telephone": "phone", "mobile": "phone", "fax": "phone",
	"email": "email", "mail": "email",
	"web": "web", "url": "web", "site": "web", "homepage": "web",

	// money
	"price": "price", "cost": "price", "charge": "price",
	"amount": "amount", "total": "amount", "sum": "amount",
	"payment": "payment", "check": "payment", "invoice": "payment",
	"credit": "credit", "limit": "limit",
	"currency": "currency",

	// quantity and inventory
	"quantity": "quantity", "count": "quantity", "units": "quantity",
	"stock": "inventory", "inventory": "inventory", "warehouse": "inventory",

	// status / lifecycle
	"status": "status", "stage": "status",
	"date": "date", "time": "date", "datetime": "date", "timestamp": "date",
	"day": "date", "created": "created", "updated": "updated",
	"required": "required", "birth": "birth",

	// identifiers
	"identifier": "identifier", "key": "identifier", "code": "identifier",
	"number": "number",

	// organisation
	"employee": "employee", "staff": "employee", "worker": "employee",
	"salesrep": "employee", "rep": "employee", "representative": "employee",
	"office": "office", "branch": "office", "store": "office", "shop": "office",
	"vendor": "vendor", "supplier": "vendor", "manufacturer": "vendor",

	// descriptions
	"description": "description", "comment": "description", "note": "description",
	"notes": "description", "text": "description", "details": "description",
	"remark": "description",

	// images
	"image": "image", "picture": "image", "photo": "image", "logo": "image",
}
