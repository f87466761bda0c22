package exchange

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"collabscope/internal/core"
	"collabscope/internal/embed"
	"collabscope/internal/linalg"
)

// decodeBoth decodes body with encoding/json and with decodeAssess on
// workers goroutines, each followed by validate.
func decodeBoth(body []byte, workers int) (want, got AssessRequest, flat []float64, wantErr, gotErr error) {
	if wantErr = json.Unmarshal(body, &want); wantErr == nil {
		wantErr = want.validate()
	}
	if got, flat, gotErr = decodeAssess(context.Background(), body, workers); gotErr == nil {
		gotErr = got.validate()
	}
	return want, got, flat, wantErr, gotErr
}

// requireSameDecode fails t unless decodeAssess on workers goroutines
// plus validate accepts body exactly when encoding/json plus validate
// does, and an accepted body decodes to the same fields, every float bit
// for bit, with flat holding the matrix row by row.
func requireSameDecode(t *testing.T, body []byte, workers int) {
	t.Helper()
	want, got, flat, wantErr, gotErr := decodeBoth(body, workers)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("workers=%d: encoding/json + validate: %v\ndecodeAssess + validate: %v", workers, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if err := sameRequest(&want, &got); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	// Accepted requests must uphold the compute path's invariants: a
	// named schema, a rectangular finite matrix, aligned ids, a known
	// mode, and flat holding that matrix row by row.
	if got.Schema == "" || len(got.Signatures) == 0 || len(got.Signatures[0]) == 0 {
		t.Fatalf("accepted request without a schema or signatures: %+v", got)
	}
	if len(got.IDs) != 0 && len(got.IDs) != len(got.Signatures) {
		t.Fatal("accepted request with misaligned ids")
	}
	if got.Mode != "" && got.Mode != "any" && got.Mode != "all" {
		t.Fatalf("accepted request with mode %q", got.Mode)
	}
	n, dim := len(got.Signatures), len(got.Signatures[0])
	if len(flat) != n*dim {
		t.Fatalf("flat holds %d floats for a %dx%d matrix", len(flat), n, dim)
	}
	x := linalg.WrapDense(n, dim, flat)
	for i, row := range got.Signatures {
		if len(row) != dim {
			t.Fatal("accepted request with a ragged signature matrix")
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("accepted request with non-finite signatures")
			}
			if math.Float64bits(x.At(i, j)) != math.Float64bits(v) {
				t.Fatalf("flat[%d][%d] = %v, row view holds %v", i, j, x.At(i, j), v)
			}
		}
	}
	if core.SignatureDigest("t", got.Schema, x) != core.SignatureDigest("t", want.Schema, linalg.FromRows(want.Signatures)) {
		t.Fatal("delta-cache keys differ for equal requests")
	}
}

// sameRequest reports the first field where got differs from want, floats
// compared bit for bit and nil ids equal to empty ones.
func sameRequest(want, got *AssessRequest) error {
	switch {
	case got.Schema != want.Schema:
		return fmt.Errorf("schema %q, want %q", got.Schema, want.Schema)
	case got.Mode != want.Mode:
		return fmt.Errorf("mode %q, want %q", got.Mode, want.Mode)
	case math.Float64bits(got.RelaxEpsilon) != math.Float64bits(want.RelaxEpsilon):
		return fmt.Errorf("relax_epsilon %v, want %v", got.RelaxEpsilon, want.RelaxEpsilon)
	case len(got.IDs) != len(want.IDs):
		return fmt.Errorf("%d ids, want %d", len(got.IDs), len(want.IDs))
	case len(got.Signatures) != len(want.Signatures):
		return fmt.Errorf("%d signature rows, want %d", len(got.Signatures), len(want.Signatures))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			return fmt.Errorf("ids[%d] = %q, want %q", i, got.IDs[i], want.IDs[i])
		}
	}
	for i, row := range want.Signatures {
		if len(got.Signatures[i]) != len(row) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got.Signatures[i]), len(row))
		}
		for j, v := range row {
			if g := got.Signatures[i][j]; math.Float64bits(g) != math.Float64bits(v) {
				return fmt.Errorf("signatures[%d][%d] = %v (%#x), want %v (%#x)",
					i, j, g, math.Float64bits(g), v, math.Float64bits(v))
			}
		}
	}
	return nil
}

// FuzzAssessRequestJSON is the differential gate on the /v1/assess request
// decoder, the untrusted wire surface besides model bodies: decodeAssess
// plus validate, at 1 and at 3 workers, must accept exactly the bodies
// json.Unmarshal plus validate accepts, and an accepted body must decode
// to the same fields, every float bit for bit, with the flat buffer
// holding the same matrix.
func FuzzAssessRequestJSON(f *testing.F) {
	valid, err := json.Marshal(&AssessRequest{
		Schema:     "S",
		IDs:        []string{"a", "b"},
		Signatures: [][]float64{{1, 0.5}, {0.25, 0}},
		Mode:       "all",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"schema":"S","signatures":[[1,2],[3]]}`))
	f.Add([]byte(`{"schema":"","signatures":[[1]]}`))
	f.Add([]byte(`{"schema":"S","signatures":[[1e309]]}`))
	f.Add([]byte(`{"schema":"S","signatures":[[1]],"mode":"some"}`))
	f.Add([]byte(`{"schema":"S","signatures":[[1]],"relax_epsilon":-1}`))
	f.Add([]byte(`{"schema":"S","signatures":[],"ids":["x"]}`))
	f.Add([]byte(`{"schema":"S","signatures":[[0,0]],"ids":["x","y"]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	for _, seed := range decodeSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, workers := range []int{1, 3} {
			requireSameDecode(t, body, workers)
		}
	})
}

// decodeSeeds are the contract cases of the decoder, each a body on which
// it must agree with encoding/json.
func decodeSeeds(f *testing.F) [][]byte {
	html, err := json.Marshal(&AssessRequest{Schema: "<S&>", IDs: []string{"<a>"}, Signatures: [][]float64{{1}}})
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		html,
		// Keys match case-insensitively under Unicode folding.
		[]byte(`{"SCHEMA":"S","Signatures":[[1]],"MODE":"all","Relax_Epsilon":0.5,"IDs":["a"]}`),
		[]byte(`{"ſchema":"S","ſignatureſ":[[1]]}`),
		[]byte(`{"schema":"S","signatures":[[1]],"Key":1}`),
		// The last duplicate wins; null leaves strings and numbers alone and
		// sets slices to nil.
		[]byte(`{"schema":"A","schema":"B","signatures":[[1]]}`),
		[]byte(`{"schema":"S","schema":null,"mode":"all","mode":null,"signatures":[[1]]}`),
		[]byte(`{"schema":"S","relax_epsilon":0.5,"relax_epsilon":null,"signatures":[[1]]}`),
		[]byte(`{"schema":"S","signatures":[[1]],"signatures":null}`),
		[]byte(`{"schema":"S","ids":["a"],"ids":null,"signatures":[[1]]}`),
		// A repeated key decodes over the earlier value's storage.
		[]byte(`{"schema":"S","signatures":[[1,2,3]],"signatures":[[4]],"signatures":[[null,null,null]]}`),
		[]byte(`{"schema":"S","signatures":[[1,2],[3,4]],"signatures":[[null,5],[6,null]]}`),
		[]byte(`{"schema":"S","signatures":[[1,2]],"signatures":[],"signatures":[[null,null]]}`),
		[]byte(`{"schema":"S","signatures":[[1],[2]],"signatures":[null,[null]]}`),
		[]byte(`{"schema":"S","signatures":[[1],[2]],"signatures":[[3]],"signatures":[[null],[null]]}`),
		[]byte(`{"schema":"S","ids":["a","b","c"],"ids":["x"],"ids":[null,null,null],"signatures":[[1],[2],[3]]}`),
		// In new storage a null float is 0 and a null id "".
		[]byte(`{"schema":"S","ids":[null,"b"],"signatures":[[null,1],[2,null]]}`),
		[]byte(`{"schema":"S","signatures":[null,[1]]}`),
		// A top-level null is the zero request; other non-objects reject.
		[]byte(" null "),
		[]byte(`"S"`),
		[]byte(`1`),
		[]byte(`true`),
		// Whitespace may come before any token, inside rows too.
		[]byte(`{"schema":"S","ids":["a","b"],"signatures":[[ 0.012345000042,-0.5],[0.25,1]],"mode":"any"}`),
		[]byte(`{"schema":"S","signatures":[[-0.012345000042, 0.5]]}`),
		[]byte(" {\n\t\"schema\" : \"S\" ,\r\n \"signatures\" : [ [ 1 , 2 ] , [3,4] ] } \n"),
		// json.Marshal's exponent forms, -0, underflow, subnormals.
		[]byte(`{"schema":"S","signatures":[[1e-7,1e+21,-1E-7,2.5E+300,1E21]]}`),
		[]byte(`{"schema":"S","signatures":[[-0,-0.0,0e0,-0e-0]]}`),
		[]byte(`{"schema":"S","signatures":[[1e-400,-1e-400]]}`),
		[]byte(`{"schema":"S","signatures":[[5e-324,4.9406564584124654e-324,2.2250738585072009e-308]]}`),
		[]byte(`{"schema":"S","signatures":[[1.7976931348623157e308,-1e309]]}`),
		[]byte(`{"schema":"S","signatures":[[1]],"relax_epsilon":1e309}`),
		// Numbers outside the JSON grammar reject.
		[]byte(`{"schema":"S","signatures":[[01]]}`),
		[]byte(`{"schema":"S","signatures":[[-01]]}`),
		[]byte(`{"schema":"S","signatures":[[1.]]}`),
		[]byte(`{"schema":"S","signatures":[[.5]]}`),
		[]byte(`{"schema":"S","signatures":[[+1]]}`),
		[]byte(`{"schema":"S","signatures":[[1e]]}`),
		[]byte(`{"schema":"S","signatures":[[1e+]]}`),
		[]byte(`{"schema":"S","signatures":[[-]]}`),
		[]byte(`{"schema":"S","signatures":[[NaN,Infinity]]}`),
		[]byte(`{"schema":"S","signatures":[[0x10]]}`),
		// Wrong types reject.
		[]byte(`{"schema":1,"signatures":[[1]]}`),
		[]byte(`{"schema":"S","signatures":[["1"]]}`),
		[]byte(`{"schema":"S","signatures":[[true]]}`),
		[]byte(`{"schema":"S","signatures":[[[1]]]}`),
		[]byte(`{"schema":"S","signatures":[1]}`),
		[]byte(`{"schema":"S","signatures":{}}`),
		[]byte(`{"schema":"S","signatures":[[1]],"relax_epsilon":"0.5"}`),
		[]byte(`{"schema":"S","signatures":[[1]],"ids":"a"}`),
		[]byte(`{"schema":"S","signatures":[[1]],"ids":[1]}`),
		// Strings with escapes or non-ASCII bytes are encoding/json's.
		[]byte(`{"schema":"S\n\"\\\/\b\f\r\té😀","signatures":[[1]]}`),
		[]byte(`{"schema":"\ud800","signatures":[[1]]}`),
		[]byte(`{"schema":"<S&>","ids":[">"],"signatures":[[1]]}`),
		[]byte("{\"schema\":\"S\xff\xfe\",\"signatures\":[[1]]}"),
		[]byte("{\"schema\":\"S\x01\",\"signatures\":[[1]]}"),
		[]byte("{\"schema\":\"S\x7f\",\"signatures\":[[1]]}"),
		[]byte(`{"schema":"S\x","signatures":[[1]]}`),
		[]byte(`{"schema":"S","signatures":[[1]],"ü":1}`),
		// Unknown keys are skipped if their value is valid JSON.
		[]byte(`{"schema":"S","signatures":[[1]],"extra":{"a":[1,"x]",null,true,false,{"b":"}"}]},"":2}`),
		[]byte(`{"schema":"S","signatures":[[1]],"extra":tru}`),
		[]byte(`{"schema":"S","signatures":[[1]],"extra":[1,]}`),
		[]byte(`{"schema":"S","signatures":[[1]],"extra":1"x"}`),
		[]byte(`{"schema":"S","signatures":[[1]],"extra":}`),
		[]byte(`{"schema":"S","signatures":[[1]],"extra":[}`),
		// Any byte after the closing brace rejects.
		[]byte(`{"schema":"S","signatures":[[1]]}x`),
		[]byte(`{"schema":"S","signatures":[[1]]} {}`),
		[]byte(`{"schema":"S","signatures":[[1]]}` + " \t\r\n"),
		[]byte(`{"schema":"S","signatures":[[1]],}`),
		[]byte(`{"schema":"S","signatures":[[1],]}`),
		[]byte(`{"schema":"S","signatures":[[1,]]}`),
		[]byte(`{"schema":"S","signatures":[[1]]`),
		[]byte(`{"schema":"S","signatures":[[1 2]]}`),
		[]byte(`{"schema":"S","signatures":[[nul]]}`),
		[]byte("\xef\xbb\xbf" + `{"schema":"S","signatures":[[1]]}`),
	}
	return seeds
}

// TestDecodeAssessNestingLimit: the value under an unknown key may nest one
// level less deep than encoding/json's limit, as the request object takes
// one. (These bodies are 20 KB, too big to seed the fuzzer with.)
func TestDecodeAssessNestingLimit(t *testing.T) {
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth} {
		body := []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"schema":"S","signatures":[[1]]}`)
		_, _, _, wantErr, gotErr := decodeBoth(body, 1)
		if accept := depth < maxNestingDepth; (wantErr == nil) != accept || (gotErr == nil) != accept {
			t.Errorf("depth %d: encoding/json %v, decodeAssess %v; want accepted=%t", depth, wantErr, gotErr, accept)
		}
	}
}

// TestDecodeAssessFloatBits pins the number path value by value: over
// random finite bit patterns (subnormals and -0 included) and hash-encoder
// unit-vector components, each written the way json.Marshal writes it, by
// strconv.FormatFloat in several forms, and in the benchmark slot's
// "% .6f" + digits form, decodeAssess must return exactly the bits
// json.Unmarshal returns. A parser one ulp off would pass every fuzz seed
// yet flip verdicts that sit on an l_m boundary.
func TestDecodeAssessFloatBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 26))
	const random = 50_000
	values := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0)}
	for len(values) < random {
		bits := rng.Uint64()
		if len(values)%128 == 0 {
			bits &= 1<<63 | 1<<52 - 1 // a subnormal, or ±0
		}
		if v := math.Float64frombits(bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
			values = append(values, v)
		}
	}
	enc := embed.NewHashEncoder()
	for i := 0; len(values) < 2*random; i++ {
		values = append(values, enc.Encode(fmt.Sprintf("customer_%d order_total_%d shipped_at", i, i*7))...)
	}
	if len(values) < 100_000 {
		t.Fatalf("only %d values", len(values))
	}

	// No precision here rounds a finite value past MaxFloat64, which would
	// make both decoders reject the whole body.
	forms := []struct {
		name   string
		format func(float64) string
	}{
		{"json.Marshal", func(v float64) string {
			b, _ := json.Marshal(v) // a finite float64 always marshals
			return string(b)
		}},
		{"e-1", func(v float64) string { return strconv.FormatFloat(v, 'e', -1, 64) }},
		{"e17", func(v float64) string { return strconv.FormatFloat(v, 'e', 17, 64) }},
		{"E-1", func(v float64) string { return strconv.FormatFloat(v, 'E', -1, 64) }},
		{"E8", func(v float64) string { return strconv.FormatFloat(v, 'E', 8, 64) }},
		{"f-1", func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }},
		{"f6", func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }},
		{"bench slot", func(v float64) string { return fmt.Sprintf("% .6f", v) + "004217" }},
	}
	const dim = 500
	for _, form := range forms {
		t.Run(form.name, func(t *testing.T) {
			var body bytes.Buffer
			body.WriteString(`{"schema":"S","signatures":[`)
			for i, v := range values[:len(values)/dim*dim] {
				switch {
				case i == 0:
					body.WriteByte('[')
				case i%dim == 0:
					body.WriteString("],[")
				default:
					body.WriteByte(',')
				}
				body.WriteString(form.format(v))
			}
			body.WriteString("]]}")
			want, got, _, wantErr, gotErr := decodeBoth(body.Bytes(), 2)
			if wantErr != nil || gotErr != nil {
				t.Fatalf("encoding/json: %v, decodeAssess: %v", wantErr, gotErr)
			}
			if err := sameRequest(&want, &got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecodeAssessStopsAtFloatCap: maxAssessFloats counted values, then a
// row that passes the cap, then one invalid byte must fail with the cap
// error, not the syntax error, which shows the scan stopped at the cap
// instead of building every row first. Floats count one each and an empty
// or null row one, so a body of such rows stops at the cap too. The rows
// of floats are walked in blocks up to the cap, at 1, 2 and 4 workers,
// and the walk must leave the whole row past the cap to the scanner. A
// body of empty or null rows must allocate at most twice its row-offset
// table, one int per row: the table is sized once, not grown step by step.
func TestDecodeAssessStopsAtFloatCap(t *testing.T) {
	defer debug.FreeOSMemory() // return the large row buffers before the next test
	const dim = 1024
	full := "[" + strings.Repeat("0,", dim-1) + "0]"
	for _, tc := range []struct {
		name, row, past string
		rows            int
		workers         []int
	}{
		{"floats", full + ",", full, maxAssessFloats / dim, []int{1, 2, 4}},
		{"empty rows", "[],", "[0", maxAssessFloats, []int{2}},
		{"null rows", "null,", "[0", maxAssessFloats, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var body bytes.Buffer
			body.Grow(len(tc.row)*tc.rows + len(tc.past) + 64)
			body.WriteString(`{"schema":"S","signatures":[`)
			for i := 0; i < tc.rows; i++ {
				body.WriteString(tc.row)
			}
			body.WriteString(tc.past + "!")
			for _, workers := range tc.workers {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, _, err := decodeAssess(context.Background(), body.Bytes(), workers); !errors.Is(err, errFloatCap) {
					t.Fatalf("workers=%d: decode past the cap: %v, want %v", workers, err, errFloatCap)
				}
				runtime.ReadMemStats(&after)
				if table := uint64(tc.rows) * 8; tc.name != "floats" && after.TotalAlloc-before.TotalAlloc > 2*table {
					t.Fatalf("workers=%d: decode allocated %d MB, more than twice the %d MB row table",
						workers, (after.TotalAlloc-before.TotalAlloc)>>20, table>>20)
				}
			}
		})
	}
}

// TestDecodeAssessRowWalkFallback runs every kind of body that must leave
// the row walk for the scanner at 1, 2 and 4 workers, with the odd row
// placed in a later block of the walk, and requires each to decode as
// encoding/json does. TestDecodeAssessStopsAtFloatCap passes the float cap
// after many blocks of walked rows at the same worker counts.
func TestDecodeAssessRowWalkFallback(t *testing.T) {
	const rows, dim, odd = 40, 16, 29
	rng := rand.New(rand.NewPCG(25, 1))
	plain := make([]string, rows)
	for i := range plain {
		vals := make([]string, dim)
		for j := range vals {
			vals[j] = strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64)
		}
		plain[i] = "[" + strings.Join(vals, ",") + "]"
	}
	// body writes the rows with row odd replaced by oddRow (kept when empty)
	// and tail after the signatures array.
	body := func(oddRow, tail string) []byte {
		r := slices.Clone(plain)
		if oddRow != "" {
			r[odd] = oddRow
		}
		return []byte(`{"schema":"S","signatures":[` + strings.Join(r, ",") + `]` + tail + `}`)
	}
	short := plain[odd][:strings.LastIndexByte(plain[odd], ',')] + "]"
	cases := map[string][]byte{
		"plain":                   body("", ""),
		"whitespace between rows": []byte(`{"schema":"S","signatures":[` + strings.Join(plain, " ,\n\t") + " ]}"),
		"repeated signatures key": body("", `,"signatures":[`+plain[1]+`,null]`),
		"null row":                body("null", ""),
		"empty row":               body("[]", ""),
		"short row":               body(short, ""),
		"long row":                body(strings.TrimSuffix(plain[odd], "]")+",1]", ""),
		"null float":              body("["+strings.Repeat("null,", dim-1)+"1]", ""),
		"string in row":           body(`["1"`+strings.Repeat(",1", dim-1)+"]", ""),
		"bracket string in row":   body(`["]"`+strings.Repeat(",1", dim-1)+"]", ""),
		"nested row":              body("[[1]"+strings.Repeat(",1", dim-1)+"]", ""),
		"leading zero":            body("[01"+strings.Repeat(",1", dim-1)+"]", ""),
		"bare point":              body("[1."+strings.Repeat(",1", dim-1)+"]", ""),
		"out of range":            body("[1e309"+strings.Repeat(",1", dim-1)+"]", ""),
		"missing comma":           []byte(`{"schema":"S","signatures":[` + strings.Join(plain[:odd], ",") + " " + strings.Join(plain[odd:], ",") + "]}"),
		"unclosed row":            []byte(`{"schema":"S","signatures":[` + strings.Join(plain[:odd], ",") + ",[1,2"),
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				requireSameDecode(t, b, workers)
			}
		})
	}
}

var decodedSink AssessRequest

// BenchmarkDecodeAssessRequest times the two ways to decode one
// benchmark-sized assess body (57×768 hash-encoder signatures, written by
// json.Marshal): encoding/json into an AssessRequest, and decodeAssess on
// one worker and on two. Give the second a processor of its own:
//
//	go test -run '^$' -bench DecodeAssessRequest -benchmem -cpu 2 ./internal/exchange
func BenchmarkDecodeAssessRequest(b *testing.B) {
	enc := embed.NewHashEncoder()
	req := AssessRequest{Schema: "Orders", IDs: make([]string, 57), Signatures: make([][]float64, 57)}
	for i := range req.Signatures {
		req.IDs[i] = fmt.Sprintf("Orders.T%d.attribute_%d", i/8, i)
		req.Signatures[i] = enc.Encode(fmt.Sprintf("orders table %d attribute %d customer email", i/8, i))
	}
	body, err := json.Marshal(&req)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var r AssessRequest
			if err := json.Unmarshal(body, &r); err != nil {
				b.Fatal(err)
			}
			decodedSink = r
		}
	})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("decodeAssess/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				r, _, err := decodeAssess(context.Background(), body, workers)
				if err != nil {
					b.Fatal(err)
				}
				decodedSink = r
			}
		})
	}
}
