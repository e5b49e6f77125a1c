package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// A problem document is a JSON object with the fields "algorithm",
// "architecture", "exec" ([op][proc]), "comm" ([edge][medium]), "rtc",
// "npf" and, when the budget includes medium failures, "faults". Times
// are JSON numbers; forbidden (∞) entries are the string "inf", which
// standard JSON cannot express as a number.
//
// The exec and comm tables are most of a document (|edges| × |media|
// cells), so they have a codec of their own: MarshalJSON appends every
// cell in one loop, and decoding reads them with one parser. Both agree
// byte for byte with encoding/json applied cell by cell through JSONTime,
// which stays the decoder of every table the parser refuses (escaped
// strings, null, out-of-range numbers, wrong nesting).

// rtcJSON is the document form of Rtc, deadlines keyed by operation name.
type rtcJSON struct {
	Deadline    JSONTime            `json:"deadline,omitempty"`
	OpDeadlines map[string]JSONTime `json:"op_deadlines,omitempty"`
}

// JSONTime is a duration or instant that marshals +Inf as the string
// "inf", which standard JSON cannot express as a number. The problem
// tables, the failure scenarios and the service wire types all encode
// their times with it.
type JSONTime float64

// MarshalJSON encodes the duration, mapping +Inf to "inf".
func (t JSONTime) MarshalJSON() ([]byte, error) {
	v := float64(t)
	if math.IsNaN(v) || math.IsInf(v, -1) {
		return json.Marshal(v) // encoding/json's unsupported-value error
	}
	return appendTime(nil, v), nil
}

// UnmarshalJSON decodes either a number or the string "inf". A plain
// number or the literal "inf" is read directly; any other spelling goes
// through encoding/json.
func (t *JSONTime) UnmarshalJSON(data []byte) error {
	if v, n, ok := scanTime(data); ok && n == len(data) {
		*t = JSONTime(v)
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if s == "inf" {
			*t = JSONTime(math.Inf(1))
			return nil
		}
		return fmt.Errorf("spec: bad time string %q (only \"inf\" is allowed)", s)
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("spec: bad time: %w", err)
	}
	*t = JSONTime(f)
	return nil
}

// appendTime appends a table time the way encoding/json writes it through
// JSONTime: +Inf as "inf", any other value as encoding/json formats a
// float64 — 'f' format, except 'e' when |v| < 1e-6 or |v| ≥ 1e21, with a
// one-digit negative exponent written unpadded (1e-7, not 1e-07). v must
// not be NaN or -Inf, which the tables never hold.
func appendTime(b []byte, v float64) []byte {
	if math.IsInf(v, 1) {
		return append(b, `"inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendTable appends a rows×cols row-major table as nested JSON arrays.
func appendTable(b []byte, t []float64, rows, cols int) []byte {
	b = append(b, '[')
	for r := 0; r < rows; r++ {
		if r > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for c, v := range t[r*cols : (r+1)*cols] {
			if c > 0 {
				b = append(b, ',')
			}
			b = appendTime(b, v)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// MarshalJSON encodes the whole problem. The effective fault budget is
// written as the legacy "npf" number, plus a "faults" object when the
// budget includes medium failures (Nmf > 0). The output is compact and
// HTML-escaped, so it equals json.Marshal(p) byte for byte; content keys
// hash it directly. A problem with a nil component, a table whose shape
// disagrees with the graph or architecture, or a deadline on an unknown
// operation is refused with an error rather than encoded.
func (p *Problem) MarshalJSON() ([]byte, error) {
	if err := p.checkShape(); err != nil {
		return nil, err
	}
	alg, err := json.Marshal(p.Alg)
	if err != nil {
		return nil, err
	}
	arc, err := json.Marshal(p.Arc)
	if err != nil {
		return nil, err
	}
	rtc := rtcJSON{Deadline: JSONTime(p.Rtc.Deadline)}
	if len(p.Rtc.OpDeadlines) > 0 {
		rtc.OpDeadlines = make(map[string]JSONTime, len(p.Rtc.OpDeadlines))
		for op, d := range p.Rtc.OpDeadlines {
			if int(op) < 0 || int(op) >= p.Alg.NumOps() {
				return nil, fmt.Errorf("%w: id %d", ErrUnknownForRtc, op)
			}
			rtc.OpDeadlines[p.Alg.Op(op).Name] = JSONTime(d)
		}
	}
	rtcDoc, err := json.Marshal(rtc)
	if err != nil {
		return nil, err
	}
	fm := p.FaultModel()
	// A generated time has 16 or 17 significant digits: with its
	// separator, about 20 bytes a cell.
	b := make([]byte, 0, len(alg)+len(arc)+len(rtcDoc)+20*(len(p.Exec.t)+len(p.Comm.t))+64)
	b = append(b, `{"algorithm":`...)
	b = append(b, alg...)
	b = append(b, `,"architecture":`...)
	b = append(b, arc...)
	b = append(b, `,"exec":`...)
	b = appendTable(b, p.Exec.t, p.Exec.nOps, p.Exec.nProcs)
	b = append(b, `,"comm":`...)
	b = appendTable(b, p.Comm.t, p.Comm.nEdges, p.Comm.nMedia)
	b = append(b, `,"rtc":`...)
	b = append(b, rtcDoc...)
	b = append(b, `,"npf":`...)
	b = strconv.AppendInt(b, int64(fm.Npf), 10)
	// "faults" is written only when Nmf is non-zero, so documents for
	// processor-only budgets — and the cache keys hashed from them — stay
	// byte-identical to the encoding before the unified fault model.
	if fm.Nmf != 0 {
		faults, err := json.Marshal(fm)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"faults":`...)
		b = append(b, faults...)
	}
	return append(b, '}'), nil
}

// scanArray reads the JSON array starting at data[i], each of whose
// elements elem reads from its first byte, and returns the index past
// the closing bracket.
func scanArray(data []byte, i int, elem func(int) (int, bool)) (int, bool) {
	if i >= len(data) || data[i] != '[' {
		return 0, false
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return i + 1, true
	}
	for {
		var ok bool
		if i, ok = elem(i); !ok {
			return 0, false
		}
		if i = skipSpace(data, i); i >= len(data) {
			return 0, false
		}
		switch data[i] {
		case ']':
			return i + 1, true
		case ',':
			i = skipSpace(data, i+1)
		default:
			return 0, false
		}
	}
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// scanTime reads the time at the start of b — a strict JSON number that
// parses to a float64 in range, or the literal "inf" — and returns it with
// its length. It reports false for any other token.
func scanTime(b []byte) (float64, int, bool) {
	if len(b) >= 5 && string(b[:5]) == `"inf"` {
		return math.Inf(1), 5, true
	}
	n := numberLen(b)
	if n == 0 {
		return 0, 0, false
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	return v, n, err == nil
}

// numberLen returns the length of the JSON number at the start of b
// (-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?), or 0 when there is none.
func numberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// document is a problem document's top-level fields, with the exec and
// comm tables read into flat cells.
type document struct {
	alg, arc   []byte
	exec, comm table
	rtc        rtcJSON
	npf        int
	faults     *FaultModel
}

// table is a decoded time table: its cells row-major in one array, and
// the cell index past the end of each row.
type table struct {
	cells []float64
	ends  []int
}

// UnmarshalJSON decodes a problem written by MarshalJSON into an empty
// receiver. A document in MarshalJSON's form is read in one pass
// (readDocument); any other goes through encoding/json with [][]JSONTime
// tables, so every other accepted spelling and every error is the generic
// decoder's.
func (p *Problem) UnmarshalJSON(data []byte) error {
	if p.Alg != nil {
		return fmt.Errorf("spec: unmarshal into non-empty problem")
	}
	doc, ok := readDocument(data)
	if !ok {
		var err error
		if doc, err = genericDocument(data); err != nil {
			return err
		}
	}
	g := model.NewGraph()
	if err := json.Unmarshal(doc.alg, g); err != nil {
		return err
	}
	a := arch.New()
	if err := json.Unmarshal(doc.arc, a); err != nil {
		return err
	}
	p.Alg, p.Arc = g, a
	// A "faults" object wins; legacy npf-only documents resolve through
	// the deprecation shim either way.
	if doc.faults != nil {
		p.SetFaults(*doc.faults)
	} else {
		p.SetFaults(FaultModel{Npf: doc.npf})
	}
	exec := &ExecTable{nOps: g.NumOps(), nProcs: a.NumProcs()}
	var err error
	if exec.t, err = doc.exec.check(exec.nOps, exec.nProcs, "exec", "ops", "procs", func(r, c int, v float64) error {
		return exec.Set(model.OpID(r), arch.ProcID(c), v)
	}); err != nil {
		return err
	}
	p.Exec = exec
	comm := &CommTable{nEdges: g.NumEdges(), nMedia: a.NumMedia()}
	if comm.t, err = doc.comm.check(comm.nEdges, comm.nMedia, "comm", "edges", "media", func(r, c int, v float64) error {
		return comm.Set(model.EdgeID(r), arch.MediumID(c), v)
	}); err != nil {
		return err
	}
	p.Comm = comm
	p.Rtc = Rtc{Deadline: float64(doc.rtc.Deadline)}
	for name, d := range doc.rtc.OpDeadlines {
		op, ok := g.OpByName(name)
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownForRtc, name)
		}
		if p.Rtc.OpDeadlines == nil {
			p.Rtc.OpDeadlines = make(map[model.OpID]float64)
		}
		p.Rtc.OpDeadlines[op.ID] = float64(d)
	}
	return nil
}

// check checks the table against its rows×cols shape one row at a time —
// the row's length, then its cells in order, with set reporting the
// error of a negative one — and returns the checked cells as the table's
// backing array. So a malformed table reports the first error a
// cell-by-cell Set would meet. The shape errors name the table what and
// its dimensions rowsOf and colsOf.
func (tb table) check(rows, cols int, what, rowsOf, colsOf string, set func(r, c int, v float64) error) ([]float64, error) {
	if len(tb.ends) != rows {
		return nil, fmt.Errorf("%w: %s rows %d, %s %d", ErrShape, what, len(tb.ends), rowsOf, rows)
	}
	start := 0
	for r, end := range tb.ends {
		if end-start != cols {
			return nil, fmt.Errorf("%w: %s row %d has %d cols, %s %d", ErrShape, what, r, end-start, colsOf, cols)
		}
		for c, v := range tb.cells[start:end] {
			if v < 0 {
				return nil, set(r, c, v)
			}
		}
		start = end
	}
	return tb.cells[:start:start], nil
}

// genericDocument decodes a document through encoding/json, cell by cell
// through JSONTime. It decides acceptance and the error text of every
// document readDocument does not read; those texts name this anonymous
// struct and its [][]JSONTime tables.
func genericDocument(data []byte) (document, error) {
	var generic struct {
		Alg    json.RawMessage `json:"algorithm"`
		Arc    json.RawMessage `json:"architecture"`
		Exec   [][]JSONTime    `json:"exec"`
		Comm   [][]JSONTime    `json:"comm"`
		Rtc    rtcJSON         `json:"rtc"`
		Npf    int             `json:"npf"`
		Faults *FaultModel     `json:"faults"`
	}
	if err := json.Unmarshal(data, &generic); err != nil {
		return document{}, fmt.Errorf("spec: decode problem: %w", err)
	}
	return document{alg: generic.Alg, arc: generic.Arc, exec: flatten(generic.Exec), comm: flatten(generic.Comm),
		rtc: generic.Rtc, npf: generic.Npf, faults: generic.Faults}, nil
}

// flatten copies nested rows into a table.
func flatten(rows [][]JSONTime) table {
	var tb table
	for _, row := range rows {
		for _, v := range row {
			tb.cells = append(tb.cells, float64(v))
		}
		tb.ends = append(tb.ends, len(tb.cells))
	}
	return tb
}

// readDocument reads a document in the form MarshalJSON writes, in one
// pass: one object whose keys are exactly "algorithm", "architecture",
// "exec", "comm", "rtc", "npf" and "faults", unescaped, each at most once
// and in any order, with object values for the algorithm, architecture,
// rtc and faults, tables the one-pass parser reads, and a plain integer
// npf. Only the rtc and faults objects are decoded here, through
// encoding/json. The algorithm and architecture spans are returned to be
// decoded later, and the whole document has been checked to be valid
// JSON by then, so a syntax error anywhere still wins over an error in
// the graph, as in the generic decoder. It reports false for anything
// else, leaving the document to genericDocument; on a document it reads,
// genericDocument would decode the same fields.
func readDocument(data []byte) (document, bool) {
	var doc document
	var seen uint8
	member := func(key []byte, i int) (int, bool) {
		var bit uint8
		end, ok := 0, false
		switch string(key) {
		case "algorithm":
			bit = 1 << 0
			doc.alg, end, ok = objectSpan(data, i)
		case "architecture":
			bit = 1 << 1
			doc.arc, end, ok = objectSpan(data, i)
		case "exec":
			bit = 1 << 2
			doc.exec, end, ok = readTable(data, i)
		case "comm":
			bit = 1 << 3
			doc.comm, end, ok = readTable(data, i)
		case "rtc":
			bit = 1 << 4
			var span []byte
			if span, end, ok = objectSpan(data, i); ok {
				ok = json.Unmarshal(span, &doc.rtc) == nil
			}
		case "npf":
			bit = 1 << 5
			doc.npf, end, ok = readInt(data, i)
		case "faults":
			bit = 1 << 6
			var span []byte
			if span, end, ok = objectSpan(data, i); ok {
				doc.faults = new(FaultModel)
				ok = json.Unmarshal(span, doc.faults) == nil
			}
		}
		if !ok || seen&bit != 0 {
			return 0, false
		}
		seen |= bit
		return end, true
	}
	end, ok := scanObject(data, skipSpace(data, 0), member)
	return doc, ok && skipSpace(data, end) == len(data)
}

// objectSpan returns the JSON object starting at data[i], checked to be
// valid JSON, and the index past it.
func objectSpan(data []byte, i int) ([]byte, int, bool) {
	if i >= len(data) || data[i] != '{' {
		return nil, 0, false
	}
	end, ok := skipValue(data, i, 0)
	if !ok {
		return nil, 0, false
	}
	return data[i:end], end, true
}

// readTable reads a table whose cells are all strict JSON numbers or the
// literal "inf", and reports false for any other value.
func readTable(data []byte, i int) (table, int, bool) {
	var tb table
	cell := func(i int) (int, bool) {
		v, n, ok := scanTime(data[i:])
		tb.cells = append(tb.cells, v)
		return i + n, ok
	}
	row := func(i int) (int, bool) {
		i, ok := scanArray(data, i, cell)
		tb.ends = append(tb.ends, len(tb.cells))
		return i, ok
	}
	end, ok := scanArray(data, i, row)
	return tb, end, ok
}

// readInt reads a JSON number with no fraction or exponent that fits an
// int, the spellings encoding/json decodes into an int without error.
func readInt(data []byte, i int) (int, int, bool) {
	n := numberLen(data[i:])
	tok := data[i : i+n]
	for _, c := range tok {
		if c == '.' || c == 'e' || c == 'E' {
			return 0, 0, false
		}
	}
	v, err := strconv.Atoi(string(tok))
	return v, i + n, n > 0 && err == nil
}

// maxDepth bounds the nesting skipValue follows; deeper documents are
// left to encoding/json, which refuses them beyond its own, larger bound.
const maxDepth = 100

// skipValue checks that a valid JSON value starts at data[i], nested at
// most maxDepth deep, and returns the index past it.
func skipValue(data []byte, i, depth int) (int, bool) {
	if i >= len(data) || depth > maxDepth {
		return 0, false
	}
	elem := func(i int) (int, bool) { return skipValue(data, i, depth+1) }
	switch data[i] {
	case '{':
		return scanObject(data, i, func(_ []byte, i int) (int, bool) { return elem(i) })
	case '[':
		return scanArray(data, i, elem)
	case '"':
		return skipString(data, i)
	case 't':
		return skipLiteral(data, i, "true")
	case 'f':
		return skipLiteral(data, i, "false")
	case 'n':
		return skipLiteral(data, i, "null")
	}
	n := numberLen(data[i:])
	return i + n, n > 0
}

func skipLiteral(data []byte, i int, lit string) (int, bool) {
	end := i + len(lit)
	return end, end <= len(data) && string(data[i:end]) == lit
}

// scanObject reads the JSON object starting at data[i], handing each
// member's key (its raw bytes between the quotes) and the index of its
// value to member, which returns the index past the value; it returns the
// index past the closing brace.
func scanObject(data []byte, i int, member func(key []byte, i int) (int, bool)) (int, bool) {
	if i >= len(data) || data[i] != '{' {
		return 0, false
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	for {
		end, ok := skipString(data, i)
		if !ok {
			return 0, false
		}
		key := data[i+1 : end-1]
		if i = skipSpace(data, end); i >= len(data) || data[i] != ':' {
			return 0, false
		}
		if i, ok = member(key, skipSpace(data, i+1)); !ok {
			return 0, false
		}
		if i = skipSpace(data, i); i >= len(data) {
			return 0, false
		}
		switch data[i] {
		case '}':
			return i + 1, true
		case ',':
			i = skipSpace(data, i+1)
		default:
			return 0, false
		}
	}
}

// skipString checks that a valid JSON string starts at data[i] and
// returns the index past its closing quote.
func skipString(data []byte, i int) (int, bool) {
	if i >= len(data) || data[i] != '"' {
		return 0, false
	}
	for i++; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return 0, false
		case c == '\\':
			if i++; i >= len(data) {
				return 0, false
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(data)-i <= 4 {
					return 0, false
				}
				for _, h := range data[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return 0, false
					}
				}
				i += 4
			default:
				return 0, false
			}
		}
	}
	return 0, false
}
