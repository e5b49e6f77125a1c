package spec

import (
	"encoding/json"
	"errors"
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

// timeTable is a time table read in one pass: rows of cells that share
// one backing array.
type timeTable [][]JSONTime

// errGenericTable refuses a table the one-pass parser does not read.
var errGenericTable = errors.New("spec: table needs the generic decoder")

// UnmarshalJSON reads a table whose cells are all strict JSON numbers or
// the literal "inf", and refuses any other table with errGenericTable.
func (t *timeTable) UnmarshalJSON(data []byte) error {
	var cells []JSONTime
	var ends []int
	cell := func(i int) (int, bool) {
		v, n, ok := scanTime(data[i:])
		cells = append(cells, JSONTime(v))
		return i + n, ok
	}
	row := func(i int) (int, bool) {
		i, ok := scanArray(data, i, cell)
		ends = append(ends, len(cells))
		return i, ok
	}
	if i, ok := scanArray(data, skipSpace(data, 0), row); !ok || skipSpace(data, i) != len(data) {
		return errGenericTable
	}
	*t = make(timeTable, len(ends))
	start := 0
	for r, end := range ends {
		(*t)[r] = cells[start:end:end]
		start = end
	}
	return nil
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

// UnmarshalJSON decodes a problem written by MarshalJSON into an empty
// receiver. Documents whose tables the one-pass parser refuses are
// decoded cell by cell through JSONTime, so every accepted spelling and
// every error is the generic decoder's.
func (p *Problem) UnmarshalJSON(data []byte) error {
	if p.Alg != nil {
		return fmt.Errorf("spec: unmarshal into non-empty problem")
	}
	var doc struct {
		Alg    json.RawMessage `json:"algorithm"`
		Arc    json.RawMessage `json:"architecture"`
		Exec   timeTable       `json:"exec"`
		Comm   timeTable       `json:"comm"`
		Rtc    rtcJSON         `json:"rtc"`
		Npf    int             `json:"npf"`
		Faults *FaultModel     `json:"faults"`
	}
	if json.Unmarshal(data, &doc) != nil {
		// A refused table or a malformed document: decode it again cell
		// by cell, which decides acceptance and the error text. Those
		// texts name this anonymous struct and its [][]JSONTime tables.
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
			return fmt.Errorf("spec: decode problem: %w", err)
		}
		doc.Alg, doc.Arc, doc.Exec, doc.Comm = generic.Alg, generic.Arc, generic.Exec, generic.Comm
		doc.Rtc, doc.Npf, doc.Faults = generic.Rtc, generic.Npf, generic.Faults
	}
	g := model.NewGraph()
	if err := json.Unmarshal(doc.Alg, g); err != nil {
		return err
	}
	a := arch.New()
	if err := json.Unmarshal(doc.Arc, a); err != nil {
		return err
	}
	p.Alg, p.Arc = g, a
	// A "faults" object wins; legacy npf-only documents resolve through
	// the deprecation shim either way.
	if doc.Faults != nil {
		p.SetFaults(*doc.Faults)
	} else {
		p.SetFaults(FaultModel{Npf: doc.Npf})
	}
	p.Exec = NewExecTable(g, a)
	if len(doc.Exec) != g.NumOps() {
		return fmt.Errorf("%w: exec rows %d, ops %d", ErrShape, len(doc.Exec), g.NumOps())
	}
	for op, row := range doc.Exec {
		if len(row) != a.NumProcs() {
			return fmt.Errorf("%w: exec row %d has %d cols, procs %d", ErrShape, op, len(row), a.NumProcs())
		}
		for proc, v := range row {
			if math.IsInf(float64(v), 1) {
				continue
			}
			if err := p.Exec.Set(model.OpID(op), arch.ProcID(proc), float64(v)); err != nil {
				return err
			}
		}
	}
	p.Comm = NewCommTable(g, a)
	if len(doc.Comm) != g.NumEdges() {
		return fmt.Errorf("%w: comm rows %d, edges %d", ErrShape, len(doc.Comm), g.NumEdges())
	}
	for e, row := range doc.Comm {
		if len(row) != a.NumMedia() {
			return fmt.Errorf("%w: comm row %d has %d cols, media %d", ErrShape, e, len(row), a.NumMedia())
		}
		for m, v := range row {
			if math.IsInf(float64(v), 1) {
				continue
			}
			if err := p.Comm.Set(model.EdgeID(e), arch.MediumID(m), float64(v)); err != nil {
				return err
			}
		}
	}
	p.Rtc = Rtc{Deadline: float64(doc.Rtc.Deadline)}
	for name, d := range doc.Rtc.OpDeadlines {
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
