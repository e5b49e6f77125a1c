package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children a [10,40) and b [30,60), which overlap;
	// a has child c [15,20); d [90,120) runs past the end of root and is
	// clipped; e [200,210) is a second root with no children.
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 30, end: 60, parent: 0},
		{name: "c", start: 15, end: 20, parent: 1},
		{name: "d", start: 90, end: 120, parent: 0},
		{name: "e", start: 200, end: 210, parent: -1},
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // the union of a and b, and d up to root's end
		30 - 5,
		30,
		5,
		30,
		10,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	if cov := childCoverage(spans[:5]); math.Abs(cov-0.6) > 1e-12 {
		t.Errorf("childCoverage = %g, want 0.6", cov)
	}
}

func TestWriteChromeParses(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 7, 1)
	_ = tr.call("layer", root, 7, func() error { return nil })
	tr.end(root)
	var buf bytes.Buffer
	if err := writeChrome(&buf, tr.spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			Ts   float64            `json:"ts"`
			Dur  float64            `json:"dur"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args["op"] != 7 {
			t.Errorf("event %+v: want a complete event of op 7", e)
		}
	}
	if r, l := doc.TraceEvents[0], doc.TraceEvents[1]; r.Args["self_us"] > r.Dur-l.Dur+1e-9 {
		t.Errorf("root self %g us exceeds its duration %g us minus its child's %g us", r.Args["self_us"], r.Dur, l.Dur)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.call("x", tr.begin("op", -1, 0, 1), 0, func() error { called = true; return nil }); err != nil || !called {
		t.Fatalf("nil tracer: call ran %t, err %v", called, err)
	}
	tr.end(-1)
}
