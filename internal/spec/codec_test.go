package spec_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/paperex"
	"ftbar/internal/spec"
)

// tinyAlg and tinyArc are a two-operation graph and two processors joined
// by one link; tinyDoc is their problem document with its exec and comm
// tables left as format verbs.
const (
	tinyAlg = `{"ops":[{"name":"a","kind":"comp"},{"name":"b","kind":"comp"}],"edges":[{"src":"a","dst":"b"}]}`
	tinyArc = `{"procs":["P0","P1"],"media":[{"name":"L","endpoints":["P0","P1"]}]}`
	tinyDoc = `{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":%s,"comm":%s,"rtc":{"deadline":9},"npf":0}`
)

// badAlg is tinyAlg with an edge to an unknown operation: a semantic
// error that only decoding the graph finds.
const badAlg = `{"ops":[{"name":"a","kind":"comp"}],"edges":[{"src":"a","dst":"zz"}]}`

// docCases are whole documents around the one-pass reader's boundary,
// each with whether that reader takes it (true) or leaves it to the
// generic decoder: key order, duplicate, case-variant and escaped keys,
// null and non-object sub-documents, npf spellings, unknown keys, deep
// nesting, truncations, and syntax errors behind a graph error.
var docCases = []struct {
	doc     string
	onePass bool
}{
	{`{"npf":1,"rtc":{},"comm":[[1]],"exec":[[1,2],[3,4]],"architecture":` + tinyArc + `,"algorithm":` + tinyAlg + `}`, true},
	{` { "faults" : {"npf":1,"nmf":1} , "algorithm" : ` + tinyAlg + ` , "architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[["inf"]]} ` + "\n", true},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"rtc":{"deadline":9,"op_deadlines":{"b":4}},"npf":1234567890}`, true},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"npf":-0}`, true},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"npf":-1}`, true},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]]}`, true},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"npf":1.0}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"npf":1e0}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"npf":01}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"npf":12345678901234567890}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"npf":"1"}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"npf":0,"npf":1}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"rtc":{"deadline":9},"rtc":{"op_deadlines":{"b":4}}}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"exec":[[5,6],[7,8]]}`, false},
	{`{"Algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"NPF":1}`, false},
	{`{"alg\u006frithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"np\u0066":1}`, false},
	{`{"algorithm":null,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]]}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":null,"exec":[[1,2],[3,4]],"comm":[[1]]}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":null,"comm":[[1]]}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"rtc":null,"faults":null}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"faults":[1]}`, false},
	{`{"algorithm":` + tinyAlg + `,"architecture":` + tinyArc + `,"exec":[[1,2],[3,4]],"comm":[[1]],"extra":{"x":[true,false,null]}}`, false},
	{`{"algorithm":{"ops":[],"x":` + strings.Repeat("[", 200) + strings.Repeat("]", 200) + `},"architecture":` + tinyArc + `}`, false},
	{`{"algorithm":` + badAlg + `,"architecture":` + tinyArc + `,"exec":[[1]],"comm":[[1]]}`, true},
	{`{"algorithm":` + badAlg + `,"architecture":` + tinyArc + `,"exec":[[1]],"comm":[[1]],"rtc":{"deadline":9,}}`, false},
	{`{"algorithm":` + badAlg + `,"architecture":` + tinyArc + `,"exec":[[1]],"comm":[[1]]}}`, false},
	{`{"algorithm":` + badAlg + `,"architecture":{"procs":["P0","P\q"]},"exec":[[1]],"comm":[[1]]}`, false},
	{`{"algorithm":` + badAlg + `,"architecture":{"procs":["P0","P` + "\x01" + `"]},"exec":[[1]],"comm":[[1]]}`, false},
	{`{"algorithm":` + badAlg + `,"exec":[[1]],"comm":[[1]],"rtc":{"deadline":9e}}`, false},
	{`{"algorithm":` + badAlg + `,"faults":{"npf":1,"nmf":` + "\"1\"" + `}}`, false},
	{`{"algorithm":`, false},
	{`{"algorithm":` + tinyAlg, false},
	{`{"algorithm":` + tinyAlg + `,`, false},
	{`{`, false},
	{`{}`, true},
	{`[]`, false},
}

// handCases are table spellings the generators never write: whitespace,
// exponent boundaries, signed zero, escaped and null cells, out-of-range
// and negative numbers, ragged rows and empty tables.
var handCases = [][2]string{
	{"[ [ 1 ,\n\t2 ] ,\r\n[3,4] ]", `[[0.5]]`},
	{`[[1e-7,1e21],[1E+2,0.000001]]`, `[[1e-6]]`},
	{`[[-0,0],[-0.0,1]]`, `[[-0]]`},
	{`[["inf",1],[2,"inf"]]`, `[["inf"]]`},
	{`[["\u0069nf",1],[2,3]]`, `[[1]]`},
	{`[[null,1],[2,3]]`, `[[1]]`},
	{`[[1,2],[3,4]]`, `null`},
	{`[[1e400,1],[2,3]]`, `[[1]]`},
	{`[[1,2],[3,4]]`, `[[-2]]`},
	{`[[-1,2],[3,4]]`, `[[1]]`},
	{`[[1,2],[3]]`, `[[1]]`},
	{`[[1,2],[3,4]]`, `[]`},
	{`[[1,2],[3,4]]`, `[[]]`},
	{`[[1,2],[3,4],[5,6]]`, `[[1]]`},
	{`[[1,2],3]`, `[[1]]`},
	{`[[[1],2],[3,4]]`, `[[1]]`},
	{`[["soon",2],[3,4]]`, `[[1]]`},
	{`[[{},2],[3,4]]`, `[[1]]`},
	{`[[true,2],[3,4]]`, `[[1]]`},
	{`{"a":1}`, `[[1]]`},
	{`[[0.1,2.5e-8],[123456789012345678901234,5e-324]]`, `[[1.7976931348623157e308]]`},
	{`[[1,2],[3,4]]`, `[[1]], "exec": [[5,6],[7,8]]`},
	{`[[1,2],[3,4]]`, `[[1]], "EXEC": [["inf",6],[7,8]]`},
}

// codecSeeds returns the seed documents of FuzzProblemCodec: the paper
// example, one generated problem per topology × family (the first with a
// medium budget, forbidden cells and deadlines), handCases and docCases.
func codecSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var problems []*spec.Problem
	problems = append(problems, paperex.Problem())
	for _, topo := range gen.Topologies() {
		for _, fam := range gen.Families() {
			p, err := gen.Generate(gen.Params{N: 10, CCR: 1, Procs: 8, Topology: topo, Family: fam, Npf: 1, Seed: 7})
			if err != nil {
				tb.Fatalf("%v/%v: %v", topo, fam, err)
			}
			problems = append(problems, p)
		}
	}
	first := problems[1]
	first.SetFaults(spec.FaultModel{Npf: 1, Nmf: 1})
	if err := first.Exec.Forbid(0, 0); err != nil {
		tb.Fatal(err)
	}
	if err := first.Comm.Forbid(0, 1); err != nil {
		tb.Fatal(err)
	}
	first.Rtc = spec.Rtc{Deadline: 1e30, OpDeadlines: map[model.OpID]float64{1: 2.5e-9}}
	var seeds [][]byte
	for _, p := range problems {
		data, err := json.Marshal(p)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, c := range handCases {
		seeds = append(seeds, []byte(fmt.Sprintf(tinyDoc, c[0], c[1])))
	}
	for _, c := range docCases {
		seeds = append(seeds, []byte(c.doc))
	}
	return seeds
}

// FuzzProblemCodec holds the problem codec to the per-cell codec it
// replaced (oracle_test.go). Decoding any input, both accept or refuse
// alike, with the same error text, and accepted tables are bit-identical.
// Every accepted problem marshals to the oracle's bytes, is read by the
// one-pass reader rather than the generic decoder, and round-trips. The
// input is also decoded as a single JSONTime against the old JSONTime
// decoder. Run it with
//
//	go test ./internal/spec -run '^$' -fuzz FuzzProblemCodec -fuzztime 10s
func FuzzProblemCodec(f *testing.F) {
	for _, doc := range codecSeeds(f) {
		f.Add(doc)
	}
	for _, cell := range []string{`1`, `-0`, `1e400`, `"inf"`, `"\u0069nf"`, `"INF"`, `"infx`, `null`, ` 2 `, `01`, `1.`, `"soon"`} {
		f.Add([]byte(cell))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTimeCodec(t, data)
		checkProblemCodec(t, data)
	})
}

func checkTimeCodec(t *testing.T, data []byte) {
	var got spec.JSONTime
	err := got.UnmarshalJSON(data)
	want, wantErr := spec.OracleUnmarshalTime(data)
	if !sameError(err, wantErr) {
		t.Fatalf("JSONTime %q: error %v, oracle %v", data, err, wantErr)
	}
	if err == nil && math.Float64bits(float64(got)) != math.Float64bits(want) {
		t.Fatalf("JSONTime %q = %g, oracle %g", data, float64(got), want)
	}
}

func checkProblemCodec(t *testing.T, data []byte) {
	var got spec.Problem
	err := got.UnmarshalJSON(data)
	want, wantErr := spec.OracleUnmarshal(data)
	if !sameError(err, wantErr) {
		t.Fatalf("decode: error %v, oracle %v", err, wantErr)
	}
	if err != nil {
		return
	}
	gotExec, gotComm := spec.TableCells(&got)
	wantExec, wantComm := spec.TableCells(want)
	if !sameBits(gotExec, wantExec) || !sameBits(gotComm, wantComm) {
		t.Fatalf("decoded tables differ:\n exec %v\noracle %v\n comm %v\noracle %v", gotExec, wantExec, gotComm, wantComm)
	}
	if got.FaultModel() != want.FaultModel() || got.Npf != want.Npf || got.Faults != want.Faults {
		t.Fatalf("fault budget %+v/%d, oracle %+v/%d", got.Faults, got.Npf, want.Faults, want.Npf)
	}
	if !sameRtc(got.Rtc, want.Rtc) {
		t.Fatalf("rtc %+v, oracle %+v", got.Rtc, want.Rtc)
	}

	enc, err := got.MarshalJSON()
	oracleEnc, oracleErr := spec.OracleMarshal(&got)
	if !sameError(err, oracleErr) {
		t.Fatalf("encode: error %v, oracle %v", err, oracleErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(enc, oracleEnc) {
		t.Fatalf("encoding differs:\n got %s\nwant %s", enc, oracleEnc)
	}
	if !spec.ReadsInOnePass(enc) {
		t.Fatalf("the one-pass reader leaves MarshalJSON's output to the generic decoder:\n%s", enc)
	}
	viaJSON, err := json.Marshal(&got)
	if err != nil || !bytes.Equal(viaJSON, enc) {
		t.Fatalf("json.Marshal differs from MarshalJSON (err %v):\n got %s\nwant %s", err, viaJSON, enc)
	}
	var back spec.Problem
	if err := back.UnmarshalJSON(enc); err != nil {
		t.Fatalf("encoding does not decode: %v\n%s", err, enc)
	}
	again, err := back.MarshalJSON()
	if err != nil || !bytes.Equal(again, enc) {
		t.Fatalf("round trip drifted (err %v):\n got %s\nwant %s", err, again, enc)
	}
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameRtc(a, b spec.Rtc) bool {
	if math.Float64bits(a.Deadline) != math.Float64bits(b.Deadline) || len(a.OpDeadlines) != len(b.OpDeadlines) {
		return false
	}
	for op, d := range a.OpDeadlines {
		if bd, ok := b.OpDeadlines[op]; !ok || math.Float64bits(bd) != math.Float64bits(d) {
			return false
		}
	}
	return true
}

// TestHandCases pins what the hand-written seeds exercise: some decode
// and some are refused, an escaped "inf" decodes through the generic
// path, and a negative time is refused as ErrBadTime.
func TestHandCases(t *testing.T) {
	accepted := 0
	for _, c := range handCases {
		var p spec.Problem
		if p.UnmarshalJSON([]byte(fmt.Sprintf(tinyDoc, c[0], c[1]))) == nil {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(handCases) {
		t.Errorf("%d of %d hand cases decode, want some of each", accepted, len(handCases))
	}
	var p spec.Problem
	err := p.UnmarshalJSON([]byte(fmt.Sprintf(tinyDoc, `[["\u0069nf",1],[2,3]]`, `[[1]]`)))
	if err != nil || !math.IsInf(p.Exec.Time(0, 0), 1) {
		t.Errorf(`escaped "inf" cell: %v`, err)
	}
	err = (&spec.Problem{}).UnmarshalJSON([]byte(fmt.Sprintf(tinyDoc, `[[1,2],[3,4]]`, `[[-2]]`)))
	if !errors.Is(err, spec.ErrBadTime) {
		t.Errorf("negative comm time: error %v, want ErrBadTime", err)
	}
}

// TestJSONTimeFloatFormat compares JSONTime's encoder with
// json.Marshal(float64) on the format boundaries, on random bit patterns
// of every magnitude and on random values around the 'f'/'e' cutoffs.
func TestJSONTimeFloatFormat(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7,
		1e20, 1e21, 9.999999999999999e20, 1e-300, 5e-324, math.MaxFloat64, 123456.789, 1e-10}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			values = append(values, v)
		}
		values = append(values, rng.Float64()*math.Pow(10, float64(rng.Intn(30)-8)))
	}
	for _, v := range values {
		got, err := spec.JSONTime(v).MarshalJSON()
		want, wantErr := json.Marshal(v)
		if err != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: JSONTime %s (%v), json.Marshal %s (%v)", v, got, err, want, wantErr)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		_, err := spec.JSONTime(v).MarshalJSON()
		_, wantErr := json.Marshal(v)
		if !sameError(err, wantErr) {
			t.Errorf("%v: error %v, want %v", v, err, wantErr)
		}
	}
	if got, err := spec.JSONTime(math.Inf(1)).MarshalJSON(); err != nil || string(got) != `"inf"` {
		t.Errorf("+Inf = %s (%v), want \"inf\"", got, err)
	}
}

// TestMarshalRefusesMalformedProblems pins the typed errors that replaced
// two panics on in-process problems: a nil component, and a table built
// before a processor was added to the architecture.
func TestMarshalRefusesMalformedProblems(t *testing.T) {
	p := paperex.Problem()
	p.Comm = nil
	if _, err := p.MarshalJSON(); !errors.Is(err, spec.ErrShape) {
		t.Errorf("nil comm table: MarshalJSON error %v, want ErrShape", err)
	}
	if _, err := p.ContentKey(); !errors.Is(err, spec.ErrShape) {
		t.Errorf("nil comm table: ContentKey error %v, want ErrShape", err)
	}

	p = paperex.Problem()
	p.Arc.MustAddProcessor("late")
	if _, err := p.ContentKey(); !errors.Is(err, spec.ErrShape) {
		t.Errorf("processor added after the tables: ContentKey error %v, want ErrShape", err)
	}

	p = paperex.Problem()
	p.Rtc.OpDeadlines = map[model.OpID]float64{model.OpID(p.Alg.NumOps()): 1}
	if _, err := p.MarshalJSON(); !errors.Is(err, spec.ErrUnknownForRtc) {
		t.Errorf("deadline on an unknown operation: error %v, want ErrUnknownForRtc", err)
	}
}

// TestOnePassReader pins which of docCases the one-pass reader takes; the
// fuzz seeds hold both paths to the oracle on every one of them.
func TestOnePassReader(t *testing.T) {
	for i, c := range docCases {
		if got := spec.ReadsInOnePass([]byte(c.doc)); got != c.onePass {
			t.Errorf("case %d: read in one pass %v, want %v:\n%s", i, got, c.onePass, c.doc)
		}
		checkProblemCodec(t, []byte(c.doc))
	}
}

// TestSyntaxErrorWinsOverGraphError pins the generic decoder's order: a
// document with an unknown edge endpoint in its graph and a syntax error
// later reports the syntax error, and the same graph in a well-formed
// document reports the graph's error.
func TestSyntaxErrorWinsOverGraphError(t *testing.T) {
	valid := `{"algorithm":` + badAlg + `,"architecture":` + tinyArc + `,"exec":[[1]],"comm":[[1]]}`
	var syntax *json.SyntaxError
	for _, doc := range []string{
		valid[:len(valid)-1] + `,"rtc":{"deadline":9,}}`,
		valid + `}`,
		valid[:len(valid)-1] + `,"npf":01}`,
	} {
		err := new(spec.Problem).UnmarshalJSON([]byte(doc))
		if !errors.As(err, &syntax) {
			t.Errorf("%s: error %v, want a syntax error", doc, err)
		}
	}
	err := new(spec.Problem).UnmarshalJSON([]byte(valid))
	if err == nil || errors.As(err, &syntax) {
		t.Errorf("well-formed document with a bad graph: error %v, want the graph's", err)
	}
}
