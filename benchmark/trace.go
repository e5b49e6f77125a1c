package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval: a layer call, an operation, or a client
// request phase. Times are nanoseconds since the tracer's epoch; parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	name   string
	start  int64
	end    int64
	parent int
	op     int
	tid    int
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent, op, tid int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds(),
		parent: parent, op: op, tid: tid,
	})
	return len(t.spans) - 1
}

// begin opens a span that end closes; children may name it as parent
// before it ends.
func (t *tracer) begin(name string, parent, op, tid int) int {
	now := time.Now()
	return t.add(name, now, now, parent, op, tid)
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// call runs fn inside a span named name.
func (t *tracer) call(name string, parent, op int, fn func() error) error {
	if t == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	t.add(name, t0, time.Now(), parent, op, 1)
	return err
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover (children are clipped to the parent and their
// overlaps merged, so concurrent children are not counted twice).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, curLo, curHi := int64(0), int64(0), int64(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// traceEvent is one Chrome trace-event "complete" event; ts and dur are
// microseconds. Perfetto and chrome://tracing open the file directly.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as Chrome trace-event JSON.
func writeChrome(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: make([]traceEvent, len(spans)), DisplayTimeUnit: "ms"}
	for i, s := range spans {
		doc.TraceEvents[i] = traceEvent{
			Name: s.name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"op": s.op, "self_us": float64(self[i]) / 1e3},
		}
	}
	return json.NewEncoder(w).Encode(doc)
}
