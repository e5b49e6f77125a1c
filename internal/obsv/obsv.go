// Package obsv is the dependency-free metrics layer of the FTBAR
// service stack (DESIGN.md Section 14): a registry of named instruments
// — atomic counters, gauges and log-bucketed latency histograms — with
// pluggable reporters (Prometheus text exposition, periodic console,
// JSON file) layered on top of one snapshot type.
//
// Two properties shape the design:
//
//   - Zero cost when disabled. Every instrument method is nil-safe: a
//     nil *Counter, *Gauge or *Histogram no-ops, and a nil *Registry
//     hands out nil instruments. Code instruments unconditionally and
//     the caller decides at construction whether the metrics exist at
//     all — the disabled hot path pays one nil check, no atomics, no
//     allocations, which is what keeps the planner's 0-alloc preview
//     gate and its speedup floor intact.
//   - No dependencies. The Prometheus surface is the text exposition
//     format written by hand (prom.go); nothing outside the standard
//     library is imported anywhere in the package.
//
// Metric names follow the Prometheus conventions: a `ftbar_` namespace,
// `_total` suffix on counters, unit-suffixed histogram names
// (`_seconds`), and optional const labels spelled into the name
// (`ftbar_http_request_duration_seconds{path="/v1/schedule"}`, see
// Label).
package obsv

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies an instrument for reporters.
type Kind string

// Instrument kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter no-ops.
type Counter struct {
	v    atomic.Uint64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 value. The zero value is ready to use; a
// nil Gauge no-ops.
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d (CAS loop; gauges are written rarely).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// gaugeFunc samples a live value at gather time (queue depths, cache
// occupancy, derived rates).
type gaugeFunc struct {
	name string
	help string
	fn   func() float64
}

// HistogramOpts sizes a histogram's log bucket ladder.
type HistogramOpts struct {
	// Lowest is the upper bound of the first bucket; observations at or
	// below it land there. 0 picks 1e-6 (1µs when observing seconds).
	Lowest float64
	// Buckets is the number of power-of-two buckets; bucket i covers
	// (Lowest·2^(i-1), Lowest·2^i]. 0 picks 40 (~550ks of range above a
	// 1µs floor). One extra overflow bucket catches everything larger.
	Buckets int
}

func (o HistogramOpts) withDefaults() HistogramOpts {
	if o.Lowest <= 0 {
		o.Lowest = 1e-6
	}
	if o.Buckets <= 0 {
		o.Buckets = 40
	}
	return o
}

// Histogram is a streaming log-bucketed histogram: fixed power-of-two
// buckets, atomic counts, no allocation and no lock on Observe. Unlike
// a sampling ring it covers the whole run, so tail quantiles keep their
// meaning at any request count. A nil Histogram no-ops.
type Histogram struct {
	name   string
	help   string
	lowest float64
	counts []atomic.Uint64 // len Buckets+1; last is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(name, help string, opts HistogramOpts) *Histogram {
	opts = opts.withDefaults()
	return &Histogram{
		name:   name,
		help:   help,
		lowest: opts.Lowest,
		counts: make([]atomic.Uint64, opts.Buckets+1),
	}
}

// bucketIndex maps an observation to its bucket: the smallest i with
// v <= lowest·2^i, clamped into [0, overflow].
func (h *Histogram) bucketIndex(v float64) int {
	if v <= h.lowest {
		return 0
	}
	frac, exp := math.Frexp(v / h.lowest)
	// v/lowest = frac·2^exp with frac in [0.5, 1): the bound index is
	// exp unless v sits exactly on the 2^(exp-1) boundary.
	i := exp
	if frac == 0.5 {
		i = exp - 1
	}
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// Observe records one value. NaN and -Inf are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, -1) {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; 0 on a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// upperBound returns bucket i's inclusive upper bound.
func (h *Histogram) upperBound(i int) float64 {
	if i >= len(h.counts)-1 {
		return math.Inf(1)
	}
	return h.lowest * math.Pow(2, float64(i))
}

// Quantile estimates the q-quantile (0 <= q <= 1) over every
// observation so far, interpolating linearly inside the covering
// bucket. It returns 0 with no observations; overflow-bucket quantiles
// clamp to the last finite bound. The estimate's relative error is
// bounded by the bucket width (a factor of 2), in exchange for a fixed
// footprint and lock-free observation.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			hi := h.upperBound(i)
			if math.IsInf(hi, 1) {
				return h.lowest * math.Pow(2, float64(len(h.counts)-2))
			}
			lo := 0.0
			if i > 0 {
				lo = h.upperBound(i - 1)
			}
			return lo + (hi-lo)*((rank-cum)/n)
		}
		cum += n
	}
	return h.upperBound(len(h.counts) - 2)
}

// BucketCount is one cumulative histogram bucket for reporters: the
// count of observations at or below Le.
type BucketCount struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// MarshalJSON encodes the +Inf bucket bound as the string "+Inf"
// (encoding/json rejects non-finite floats, and the last cumulative
// bucket is always +Inf).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	type bucket struct {
		Le    any    `json:"le"`
		Count uint64 `json:"count"`
	}
	if math.IsInf(b.Le, 0) {
		return json.Marshal(bucket{Le: promFloat(b.Le), Count: b.Count})
	}
	return json.Marshal(bucket{Le: b.Le, Count: b.Count})
}

// UnmarshalJSON accepts both numeric and "+Inf"/"-Inf" string bounds.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		Le    json.RawMessage `json:"le"`
		Count uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if err := json.Unmarshal(raw.Le, &b.Le); err == nil {
		return nil
	}
	var s string
	if err := json.Unmarshal(raw.Le, &s); err != nil {
		return err
	}
	switch s {
	case "+Inf":
		b.Le = math.Inf(1)
	case "-Inf":
		b.Le = math.Inf(-1)
	default:
		return fmt.Errorf("obsv: bucket bound %q is neither a number nor ±Inf", s)
	}
	return nil
}

// Sample is one instrument's state in a Snapshot.
type Sample struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind Kind   `json:"kind"`
	// Value is the counter or gauge reading.
	Value float64 `json:"value,omitempty"`
	// Count, Sum and Buckets are the histogram reading; Buckets are
	// cumulative, Prometheus-style, ending with the +Inf bucket.
	Count   uint64        `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time reading of every registered instrument,
// the unit reporters consume.
type Snapshot struct {
	At      time.Time `json:"at"`
	Samples []Sample  `json:"samples"`
}

// Registry is a named set of instruments. Instruments register on
// creation and are gathered into Snapshots; names are unique, and
// re-registering a name returns the existing instrument (so package
// wiring stays idempotent). A nil *Registry hands out nil instruments,
// which makes it the no-op implementation: construct instruments off a
// nil registry and every Observe/Add/Inc disappears behind a nil check.
type Registry struct {
	mu    sync.RWMutex
	named map[string]any
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{named: make(map[string]any)}
}

// register stores the instrument under name, returning the existing one
// (and false) when the name is taken.
func (r *Registry) register(name string, inst any) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.named[name]; ok {
		return got, false
	}
	r.named[name] = inst
	r.order = append(r.order, name)
	return inst, true
}

// NewCounter registers (or returns) the named counter. Nil registry,
// nil counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	got, _ := r.register(name, &Counter{name: name, help: help})
	c, ok := got.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obsv: %q registered as %T, not a counter", name, got))
	}
	return c
}

// NewGauge registers (or returns) the named gauge. Nil registry, nil
// gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	got, _ := r.register(name, &Gauge{name: name, help: help})
	g, ok := got.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obsv: %q registered as %T, not a gauge", name, got))
	}
	return g
}

// NewGaugeFunc registers a gauge sampled from fn at gather time. A nil
// registry drops fn.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	if _, fresh := r.register(name, &gaugeFunc{name: name, help: help, fn: fn}); !fresh {
		panic(fmt.Sprintf("obsv: gauge func %q registered twice", name))
	}
}

// NewHistogram registers (or returns) the named histogram with default
// buckets. Nil registry, nil histogram.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.NewHistogramOpts(name, help, HistogramOpts{})
}

// NewHistogramOpts is NewHistogram with an explicit bucket ladder.
func (r *Registry) NewHistogramOpts(name, help string, opts HistogramOpts) *Histogram {
	if r == nil {
		return nil
	}
	got, _ := r.register(name, newHistogram(name, help, opts))
	h, ok := got.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obsv: %q registered as %T, not a histogram", name, got))
	}
	return h
}

// Gather snapshots every instrument. Samples come out sorted by name so
// reporter output is deterministic. Nil registry, empty snapshot.
func (r *Registry) Gather() Snapshot {
	snap := Snapshot{At: time.Now()}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	insts := make([]any, len(names))
	for i, n := range names {
		insts[i] = r.named[n]
	}
	r.mu.RUnlock()
	for _, inst := range insts {
		switch m := inst.(type) {
		case *Counter:
			snap.Samples = append(snap.Samples, Sample{
				Name: m.name, Help: m.help, Kind: KindCounter, Value: float64(m.Value()),
			})
		case *Gauge:
			snap.Samples = append(snap.Samples, Sample{
				Name: m.name, Help: m.help, Kind: KindGauge, Value: m.Value(),
			})
		case *gaugeFunc:
			snap.Samples = append(snap.Samples, Sample{
				Name: m.name, Help: m.help, Kind: KindGauge, Value: m.fn(),
			})
		case *Histogram:
			s := Sample{Name: m.name, Help: m.help, Kind: KindHistogram,
				Count: m.Count(), Sum: m.Sum()}
			cum := uint64(0)
			for i := range m.counts {
				cum += m.counts[i].Load()
				s.Buckets = append(s.Buckets, BucketCount{Le: m.upperBound(i), Count: cum})
			}
			snap.Samples = append(snap.Samples, s)
		}
	}
	sort.Slice(snap.Samples, func(i, j int) bool {
		return snap.Samples[i].Name < snap.Samples[j].Name
	})
	return snap
}

// Label appends a const label to a metric name, producing the canonical
// `name{k1="v1",k2="v2"}` spelling the exposition writer understands.
// Label values are escaped per the Prometheus text format.
func Label(name, key, value string) string {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(value)
	if i := strings.LastIndexByte(name, '}'); i >= 0 {
		return fmt.Sprintf(`%s,%s="%s"}`, name[:i], key, esc)
	}
	return fmt.Sprintf(`%s{%s="%s"}`, name, key, esc)
}

// splitName separates a metric name into its family (base) name and the
// label body, empty when unlabelled.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}
