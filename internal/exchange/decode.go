package exchange

// The POST /v1/assess request decoder: one pass from wire bytes to the
// row-major matrix computeAssess scores (DESIGN.md §12, "Assess ingress").
//
// decodeAssess accepts exactly the bodies json.Unmarshal accepts into an
// AssessRequest and yields the same fields, floats bit for bit. It gets
// there by reproducing each encoding/json rule that can reach this type,
// and by handing encoding/json every token outside the hot grammar:
//
//   - a number is checked against the JSON grammar, then parsed by
//     strconv.ParseFloat(tok, 64), the call encoding/json makes; a range
//     error (±Inf) rejects;
//   - a string of plain printable ASCII is used as it stands; any other
//     string (an escape, a control byte, a byte ≥ 0x80) is decoded by
//     json.Unmarshal on that one token;
//   - a key names a field exactly or under Unicode case folding
//     (bytes.EqualFold, which encoding/json's folded-name lookup equals);
//   - the value under an unknown key is skipped and must pass json.Valid
//     at the nesting depth it sits at;
//   - null leaves a string or number field unchanged and sets a slice to
//     nil; in new storage a null float is 0 and a null id "";
//   - a repeated key decodes over what the earlier one left, so a null
//     element keeps the value an earlier array put at its index;
//   - anything but whitespace after the closing brace rejects.
//
// Signature rows land in one flat buffer, reserved once the first row
// shows how many bytes a row takes. req.Signatures holds capped row views
// of it, and the running count, one per float and one per empty or null
// row, stops the scan at maxAssessFloats.
//
// The rows after the first that holds a value are walked rather than
// scanned: their extents are found by their brackets alone and they are
// parsed in blocks on the server's worker pool, by the same row code,
// straight into their slots of the flat buffer. The walk stops before the
// first row that is not plain numbers of that first row's length, or that
// would pass the cap, and the scanner reads that row and the rest of the
// array as before.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"collabscope/internal/parallel"
)

// maxNestingDepth is encoding/json's nesting limit. The request object
// takes one level of it.
const maxNestingDepth = 10000

var errFloatCap = fmt.Errorf("signature rows hold more than %d floats", maxAssessFloats)

// walkBlocksPerWorker is how many blocks of walked rows each pool worker
// gets on average, so a worker slowed by other work hands rows to the rest.
const walkBlocksPerWorker = 4

// endsSizedAt is the row count from which a full row-offset table is sized
// once from the rest of the body instead of grown by append.
const endsSizedAt = 1024

var (
	nullLit       = []byte("null")
	keySchema     = []byte("schema")
	keyIDs        = []byte("ids")
	keySignatures = []byte("signatures")
	keyMode       = []byte("mode")
	keyRelax      = []byte("relax_epsilon")
)

// assessDecoder is the state of one decodeAssess call.
type assessDecoder struct {
	ctx     context.Context
	workers int
	data    []byte
	pos     int
	req     AssessRequest
	// flat backs req.Signatures when the last signatures value was decoded
	// into new storage; nil when it was decoded over an earlier value.
	flat []float64
	// floats counts against maxAssessFloats over every signatures value:
	// each float read so far, and each empty or null row as one.
	floats int
}

// decodeAssess decodes an assess request body, walking plain signature
// rows on up to workers goroutines (≤ 0 means GOMAXPROCS). flat holds the
// rows of req.Signatures back to back, so the matrix of a request that
// passes validate is linalg.WrapDense(len(req.Signatures), dim, flat). The
// result is the same at any worker count.
func decodeAssess(ctx context.Context, body []byte, workers int) (AssessRequest, []float64, error) {
	d := assessDecoder{ctx: ctx, workers: workers, data: body}
	if err := d.top(); err != nil {
		return AssessRequest{}, nil, err
	}
	flat := d.flat
	if flat == nil {
		for _, row := range d.req.Signatures {
			flat = append(flat, row...)
		}
	}
	return d.req, flat, nil
}

func (d *assessDecoder) top() error {
	d.skipSpace()
	var err error
	switch d.peek() {
	case '{':
		err = d.object()
	case 'n':
		err = d.null() // a top-level null leaves the request zero
	default:
		err = d.unexpected("a request object")
	}
	if err != nil {
		return err
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.unexpected("nothing after the request object")
	}
	return nil
}

func (d *assessDecoder) object() error {
	d.pos++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.unexpected("':' after an object key")
		}
		d.pos++
		d.skipSpace()
		if err := d.field(key); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			return nil
		default:
			return d.unexpected("',' or '}' after an object value")
		}
	}
}

func (d *assessDecoder) field(key []byte) error {
	switch {
	case bytes.EqualFold(key, keySchema):
		return d.stringValue(&d.req.Schema)
	case bytes.EqualFold(key, keyIDs):
		return d.ids()
	case bytes.EqualFold(key, keySignatures):
		return d.signatures()
	case bytes.EqualFold(key, keyMode):
		return d.stringValue(&d.req.Mode)
	case bytes.EqualFold(key, keyRelax):
		return d.floatValue(&d.req.RelaxEpsilon)
	default:
		return d.skipValue()
	}
}

func (d *assessDecoder) stringValue(dst *string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	case 'n':
		return d.null()
	default:
		return d.unexpected("a string")
	}
}

func (d *assessDecoder) floatValue(dst *float64) error {
	if d.peek() == 'n' {
		return d.null()
	}
	v, err := d.number()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func (d *assessDecoder) ids() error {
	switch d.peek() {
	case 'n':
		d.req.IDs = nil
		return d.null()
	case '[':
		ids, err := decodeArray(d, d.req.IDs, d.stringValue)
		d.req.IDs = ids
		return err
	default:
		return d.unexpected("an array of ids")
	}
}

func (d *assessDecoder) signatures() error {
	switch d.peek() {
	case 'n':
		d.req.Signatures, d.flat = nil, nil
		return d.null()
	case '[':
	default:
		return d.unexpected("an array of signature rows")
	}
	if len(d.req.Signatures) == 0 {
		return d.flatRows()
	}
	rows, err := decodeArray(d, d.req.Signatures, d.sigRow)
	d.req.Signatures, d.flat = rows, nil
	return err
}

// flatRows decodes a signatures array into one new row-major buffer. Only
// a value with no earlier rows to decode over takes this path, so a null
// float is 0 and a null row is nil.
func (d *assessDecoder) flatRows() error {
	d.pos++ // '['
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		d.req.Signatures, d.flat = [][]float64{}, nil
		return nil
	}
	var flat []float64
	var ends []int // end of each row in flat; -1 marks a null row
	reserved := false
	for {
		switch d.peek() {
		case 'n':
			if err := d.null(); err != nil {
				return err
			}
			if err := d.count(); err != nil {
				return err
			}
			ends = d.appendEnd(ends, -1)
		case '[':
			start := d.pos
			var err error
			if flat, err = d.flatRow(flat); err != nil {
				return err
			}
			ends = d.appendEnd(ends, len(flat))
			if !reserved && len(flat) > 0 {
				reserved = true
				flat = d.reserve(flat, d.pos-start)
				if flat, ends, err = d.walkRows(flat, ends); err != nil {
					return err
				}
			}
		default:
			return d.unexpected("a signature row")
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			rows := make([][]float64, len(ends))
			lo := 0
			for i, hi := range ends {
				if hi >= 0 {
					rows[i], lo = flat[lo:hi:hi], hi
				}
			}
			d.req.Signatures, d.flat = rows, flat
			return nil
		default:
			return d.unexpected("',' or ']' after a signature row")
		}
	}
}

// appendEnd appends one row end to ends, for the scanner. When ends is
// full and holds endsSizedAt rows or more, it first grows it once to room
// for as many more rows as the rest of the body can hold (a row and its
// comma take at least three bytes), capped at the rows the float cap still
// admits, so a body of many empty or null rows builds the table once.
// Below endsSizedAt it grows as append grows it: a body that only opens
// with such a row reserves no room for rows it does not have.
func (d *assessDecoder) appendEnd(ends []int, end int) []int {
	if len(ends) == cap(ends) && len(ends) >= endsSizedAt {
		more := min((len(d.data)-d.pos)/3+1, maxAssessFloats-d.floats+1)
		ends = append(make([]int, 0, len(ends)+more), ends...)
	}
	return append(ends, end)
}

// flatRow appends the floats of one signature row to flat.
func (d *assessDecoder) flatRow(flat []float64) ([]float64, error) {
	d.pos++ // '['
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		return flat, d.count()
	}
	for {
		var v float64
		if err := d.sigFloat(&v); err != nil {
			return flat, err
		}
		flat = append(flat, v)
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			return flat, nil
		default:
			return flat, d.unexpected("',' or ']' after a signature value")
		}
	}
}

// reserve sizes flat for the whole matrix once its first row, rowBytes
// long on the wire, is known: room for as many rows as the rest of the
// body can hold, a part row rounded up, capped at maxAssessFloats.
func (d *assessDecoder) reserve(flat []float64, rowBytes int) []float64 {
	rows := 1 + (len(d.data)-d.pos+rowBytes-1)/rowBytes
	want := min(rows*len(flat), maxAssessFloats)
	if want <= cap(flat) {
		return flat
	}
	return append(make([]float64, 0, want), flat...)
}

// walkRows decodes the plain rows after the one that sized flat: rows of
// exactly that row's length, each found from its '[' to the first ']'
// after it. Their extents are found first, stopping before a row that is
// not an array or would take the count past maxAssessFloats; blocks of
// them are then parsed by flatRow on the worker pool, each row into its
// own slot of flat. The walk keeps the rows before the first one that
// flatRow rejects or finds ragged, and leaves d.pos, d.floats, flat and
// ends as if the scanner had read those rows, so the scanner reads the
// rest of the array as it would have.
func (d *assessDecoder) walkRows(flat []float64, ends []int) ([]float64, []int, error) {
	data, dim := d.data, len(flat)
	starts := make([]int, 0, cap(flat)/dim) // offset of each walked row's '['; reserve's estimate
	for i := d.pos; ; {
		i = skipSpace(data, i)
		if i == len(data) || data[i] != ',' {
			break
		}
		i = skipSpace(data, i+1)
		if i == len(data) || data[i] != '[' || d.floats+(len(starts)+1)*dim > maxAssessFloats {
			break
		}
		end := bytes.IndexByte(data[i:], ']')
		if end < 0 {
			break
		}
		starts = append(starts, i)
		i += end + 1
	}
	n := len(starts)
	if n == 0 {
		return flat, ends, nil
	}
	base := len(flat)
	if cap(flat) < base+n*dim {
		flat = append(make([]float64, 0, base+n*dim), flat...)
	}
	flat = flat[:base+n*dim]
	blocks := min(n, walkBlocksPerWorker*parallel.Workers(d.workers))
	kept := make([]int, blocks) // rows of each block before its first non-plain one
	err := parallel.ForEach(d.ctx, d.workers, blocks, func(b int) error {
		lo, hi := b*n/blocks, (b+1)*n/blocks
		for r := lo; r < hi; r++ {
			slot := base + r*dim
			row := assessDecoder{data: data, pos: starts[r]}
			got, err := row.flatRow(flat[slot : slot : slot+dim])
			if err != nil || len(got) != dim {
				break
			}
			kept[b]++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	walked := 0
	for b, k := range kept {
		walked += k
		if k < (b+1)*n/blocks-b*n/blocks {
			break
		}
	}
	if walked == 0 {
		return flat[:base], ends, nil
	}
	ends = slices.Grow(ends, walked)
	for r := 1; r <= walked; r++ {
		ends = append(ends, base+r*dim)
	}
	last := starts[walked-1]
	d.pos = last + bytes.IndexByte(data[last:], ']') + 1
	d.floats += walked * dim
	return flat[:base+walked*dim], ends, nil
}

// sigRow decodes one row of a repeated signatures key over the row the
// earlier value left at its index. An empty or null row counts as one
// against maxAssessFloats.
func (d *assessDecoder) sigRow(row *[]float64) error {
	switch d.peek() {
	case 'n':
		*row = nil
		if err := d.null(); err != nil {
			return err
		}
		return d.count()
	case '[':
		r, err := decodeArray(d, *row, d.sigFloat)
		*row = r
		if err == nil && len(r) == 0 {
			err = d.count()
		}
		return err
	default:
		return d.unexpected("a signature row")
	}
}

// sigFloat decodes one signature value, counting it against
// maxAssessFloats before anything else.
func (d *assessDecoder) sigFloat(v *float64) error {
	if err := d.count(); err != nil {
		return err
	}
	return d.floatValue(v)
}

// count counts one float, or one empty or null row, against
// maxAssessFloats, so no body can make the decoder build more than that
// many row entries before it stops.
func (d *assessDecoder) count() error {
	if d.floats++; d.floats > maxAssessFloats {
		return errFloatCap
	}
	return nil
}

// decodeArray decodes a JSON array into s the way encoding/json decodes
// into an existing slice: element i is decoded over whatever s's backing
// array holds at i, the length becomes the element count, and an empty
// array gives a new empty slice.
func decodeArray[T any](d *assessDecoder, s []T, elem func(*T) error) ([]T, error) {
	d.pos++ // '['
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		return []T{}, nil
	}
	for i := 0; ; {
		if i >= cap(s) {
			s = slices.Grow(s, 1)
		}
		if i >= len(s) {
			s = s[:i+1] // shows what an earlier value left at i, as reflect's SetLen does
		}
		if err := elem(&s[i]); err != nil {
			return s, err
		}
		i++
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			return s[:i], nil
		default:
			return s, d.unexpected("',' or ']' after an array element")
		}
	}
}

// number reads one JSON number and parses it with strconv.ParseFloat.
// The token matches the JSON grammar, so only a range error can come back.
func (d *assessDecoder) number() (float64, error) {
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.pos = i
		return 0, d.unexpected("a number")
	}
	if i < len(data) && data[i] == '.' {
		j := digits(data, i+1)
		if j == i+1 {
			d.pos = j
			return 0, d.unexpected("a digit after '.'")
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := digits(data, i)
		if j == i {
			d.pos = i
			return 0, d.unexpected("a digit in the exponent")
		}
		i = j
	}
	d.pos = i
	return strconv.ParseFloat(string(data[start:i]), 64)
}

func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// str reads one JSON string. Plain printable ASCII comes back as a view
// of the body; any other string is decoded by json.Unmarshal on the one
// token, so escapes, surrogates and invalid UTF-8 come out exactly as
// encoding/json makes them.
func (d *assessDecoder) str() ([]byte, error) {
	data, start := d.data, d.pos
	for i := start + 1; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return data[start+1 : i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			if err := d.skipString(); err != nil {
				return nil, err
			}
			var s string
			if err := json.Unmarshal(data[start:d.pos], &s); err != nil {
				return nil, fmt.Errorf("string at offset %d: %w", start, err)
			}
			return []byte(s), nil
		}
	}
	d.pos = len(data)
	return nil, d.unexpected("a closing '\"'")
}

// skipString moves past one string token without decoding it.
func (d *assessDecoder) skipString() error {
	for i := d.pos + 1; i < len(d.data); i++ {
		switch d.data[i] {
		case '\\':
			i++
		case '"':
			d.pos = i + 1
			return nil
		}
	}
	d.pos = len(d.data)
	return d.unexpected("a closing '\"'")
}

// skipValue moves past the value under an unknown key. It finds the
// value's extent from brackets and strings alone and leaves judging it to
// json.Valid, with one level taken by the request object.
func (d *assessDecoder) skipValue() error {
	start := d.pos
	depth, deepest := 0, 0
scan:
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case '"':
			if err := d.skipString(); err != nil {
				return err
			}
			if depth == 0 {
				break scan
			}
		case '[', '{':
			depth++
			deepest = max(deepest, depth)
			d.pos++
		case ']', '}':
			if depth == 0 {
				break scan
			}
			depth--
			d.pos++
			if depth == 0 {
				break scan
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				break scan
			}
			d.pos++
		default:
			d.pos++
		}
	}
	if deepest >= maxNestingDepth || !json.Valid(d.data[start:d.pos]) {
		return fmt.Errorf("invalid value at offset %d", start)
	}
	return nil
}

func (d *assessDecoder) null() error {
	if !bytes.HasPrefix(d.data[d.pos:], nullLit) {
		return d.unexpected("null")
	}
	d.pos += len(nullLit)
	return nil
}

func (d *assessDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *assessDecoder) skipSpace() { d.pos = skipSpace(d.data, d.pos) }

// skipSpace returns the offset of the first non-whitespace byte of data at
// or after i, or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

func (d *assessDecoder) unexpected(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of input, want %s", want)
	}
	return fmt.Errorf("unexpected %q at offset %d, want %s", d.data[d.pos], d.pos, want)
}
