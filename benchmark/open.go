package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftbar"
	"ftbar/internal/core"
	"ftbar/internal/obsv"
	"ftbar/internal/sched"
	"ftbar/internal/wire"
)

// Request classes of the open-loop mix.
const (
	classHit     = iota // a hot-set problem the service has answered before
	classVariant        // a hot-set problem under a fresh deadline: new content key, warm start
	classCold           // a problem the service has never seen
)

var classNames = [...]string{"hit", "variant", "cold"}

// openLoad holds an open-loop workload's constants, calibrated once at
// the default seed on the reference machine (see README.md): the rates
// are about 35% and 70% of the mix's measured capacity (--capacity).
type openLoad struct {
	// rates are the nominal and peak arrival rates, requests per second;
	// each phase lasts half the run.
	rates [2]float64
	// slo is the latency limit peak goodput counts against.
	slo time.Duration
	// lagLimit bounds the generator's p99 lateness; a phase beyond it
	// is invalid and the run reports no metrics.
	lagLimit time.Duration
	// gogc is the collector target ftserved deploys with.
	gogc int
	// mix is the share of hit, variant and cold arrivals.
	mix [3]float64
}

var serveLoad = openLoad{
	rates:    [2]float64{65, 130},
	slo:      500 * time.Millisecond,
	lagLimit: time.Second,
	gogc:     400,
	mix:      [3]float64{0.55, 0.25, 0.20},
}

var clusterLoad = openLoad{
	rates:    [2]float64{45, 90},
	slo:      250 * time.Millisecond,
	lagLimit: time.Second,
	gogc:     400,
	mix:      [3]float64{0.95, 0, 0.05},
}

// saturateRate sizes a --capacity run's request list: more requests per
// second than either mix can be served at, all due at once.
const saturateRate = 400

// requestTimeout fails any request slower than this.
const requestTimeout = 10 * time.Second

// request is one planned arrival.
type request struct {
	class    int
	problem  int     // index into openSetup.problems
	deadline float64 // the variant's deadline; 0 for the others
	body     []byte
	due      time.Duration // from the phase start
}

// outcome is what the client saw for one request.
type outcome struct {
	status          int
	err             error
	length          float64
	meetsRtc        bool
	bytes           int
	due, sent, done time.Time
}

// target is a system under test behind a loopback HTTP edge.
type target struct {
	url    string
	client *http.Client
	// edge and workers are the Metrics() registries whose deltas over the
	// measured phases give the service and cluster layer metrics: the
	// HTTP edge's (the service's or the master's) and the cluster
	// workers' services'.
	edge    *obsv.Registry
	workers []*obsv.Registry
	close   func()
}

// openSetup is everything an open-loop run prepares before measuring.
type openSetup struct {
	// problems are the hot set (or working set) first, then every cold
	// problem; hot holds the hot set's encoded requests.
	problems []*ftbar.Problem
	hot      [][]byte
	// warm is sent before the measured phases at the nominal rate, so
	// they start on a warmed process; phases are nominal, then peak.
	warm   []request
	phases [2][]request
	tgt    *target
}

func (s *openSetup) teardown() {
	if s != nil && s.tgt != nil {
		s.tgt.close()
	}
}

func runServeMixed(cfg runConfig) (*result, error) {
	return runOpen(cfg, serveLoad, setupServe)
}

func runClusterHits(cfg runConfig) (*result, error) {
	return runOpen(cfg, clusterLoad, setupCluster)
}

// serveShape returns serve-mixed's problem shapes. Hot problems each get
// their own shape (30 to 52 tasks, plus one 100-task 16-processor
// problem) and cold problems reuse seven shapes of 54 to 60 tasks and the
// large one, so hot plus cold shapes fit the service's 32-shape arena
// pool and a variant finds its parent's decision record.
func serveShape(class, i, hot int) shape {
	large := shape{topo: ftbar.TopoFull, family: ftbar.FamLayered, procs: 16, n: 100, npf: 1}
	procs := []int{4, 6, 8}
	topo := func(k int) ftbar.Topology {
		if k%2 == 0 {
			return ftbar.TopoFull
		}
		return ftbar.TopoMesh
	}
	if class == classHit {
		if i == hot-1 {
			return large
		}
		return shape{topo: topo(i), family: ftbar.FamLayered, procs: procs[i%3], n: 30 + i, npf: 1}
	}
	if i%20 == 19 {
		return large
	}
	k := i % 7
	return shape{topo: topo(k), family: ftbar.FamLayered, procs: procs[k%3], n: 54 + k, npf: 1}
}

// clusterShape is cluster-hits' single shape: a 16-processor ring at
// Npf 2 and CCR 4, where a scheduler run costs far more than a cache hit.
var clusterShape = shape{topo: ftbar.TopoRing, family: ftbar.FamLayered, procs: 16, n: 40, npf: 2, ccr: 4}

// plan draws the arrivals of the unmeasured warm-up phase and of both
// measured phases: constant-rate due times, classes by the load's mix,
// and one fresh problem per cold arrival. hot problems come first in
// problems; cold ones are generated by coldShape.
func (l openLoad) plan(cfg runConfig, problems []*ftbar.Problem, coldShape func(i int) shape) (*openSetup, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	hot := len(problems)
	st := &openSetup{problems: problems, hot: make([][]byte, hot)}
	for j, p := range problems {
		b, err := json.Marshal(&ftbar.ScheduleRequest{Problem: p})
		if err != nil {
			return nil, err
		}
		st.hot[j] = b
	}
	draw := func(rate float64, d time.Duration) ([]request, error) {
		rate *= cfg.scale.rateScale
		if cfg.saturate {
			rate = saturateRate
		}
		reqs := make([]request, int(rate*d.Seconds()))
		for k := range reqs {
			r := &reqs[k]
			if !cfg.saturate {
				r.due = time.Duration(float64(k) / rate * float64(time.Second))
			}
			u := rng.Float64()
			switch {
			case u < l.mix[classHit]:
				r.class, r.problem = classHit, rng.Intn(hot)
				r.body = st.hot[r.problem]
			case u < l.mix[classHit]+l.mix[classVariant]:
				r.class, r.problem = classVariant, rng.Intn(hot)
				r.deadline = 5 + 45*rng.Float64()
				r.body = withDeadline(st.hot[r.problem], r.deadline)
				if r.body == nil {
					return nil, fmt.Errorf("hot problem %d: no empty rtc object to set a deadline in", r.problem)
				}
			default:
				i := len(st.problems) - hot
				p, err := coldShape(i).generate(cfg.scale, instanceSeed(cfg.seed, 4, i))
				if err != nil {
					return nil, err
				}
				b, err := json.Marshal(&ftbar.ScheduleRequest{Problem: p})
				if err != nil {
					return nil, err
				}
				st.problems = append(st.problems, p)
				r.class, r.problem, r.body = classCold, len(st.problems)-1, b
			}
		}
		return reqs, nil
	}
	var err error
	if st.warm, err = draw(l.rates[0], cfg.scale.warmup); err != nil {
		return nil, err
	}
	for ph := range st.phases {
		if st.phases[ph], err = draw(l.rates[ph], cfg.duration/2); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// withDeadline returns a copy of an encoded request whose problem has no
// real-time constraint, with the deadline set: the edit a designer makes
// to an existing problem file. It returns nil when body has no empty
// "rtc" object.
func withDeadline(body []byte, deadline float64) []byte {
	const empty = `"rtc":{}`
	i := bytes.Index(body, []byte(empty))
	if i < 0 {
		return nil
	}
	set := fmt.Sprintf(`"rtc":{"deadline":%s}`, strconv.FormatFloat(deadline, 'g', -1, 64))
	return append(append(append([]byte(nil), body[:i]...), set...), body[i+len(empty):]...)
}

func generateSet(cfg runConfig, n, salt int, shapeOf func(i int) shape) ([]*ftbar.Problem, error) {
	out := make([]*ftbar.Problem, n)
	for i := range out {
		p, err := shapeOf(i).generate(cfg.scale, instanceSeed(cfg.seed, salt, i))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// setupServe prepares serve-mixed: a standalone service with Workers =
// nproc behind its HTTP edge, the hot set answered once so its repeats
// are cache hits.
func setupServe(cfg runConfig) (*openSetup, error) {
	hot := cfg.scale.hotSet
	problems, err := generateSet(cfg, hot, 3, func(i int) shape { return serveShape(classHit, i, hot) })
	if err != nil {
		return nil, err
	}
	st, err := serveLoad.plan(cfg, problems, func(i int) shape { return serveShape(classCold, i, hot) })
	if err != nil {
		return nil, err
	}
	svc := ftbar.NewService(ftbar.ServiceConfig{Workers: runtime.NumCPU()})
	st.tgt, err = serveHTTP(ftbar.NewServiceHandler(svc), svc.Metrics(), nil, svc.Close)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return prime(st)
}

// setupCluster prepares cluster-hits: a master routing over two
// in-process workers on loopback framed RPC, each with one scheduler
// goroutine and a cache smaller than the working set (the two together
// hold it), with every working-set problem answered once.
func setupCluster(cfg runConfig) (*openSetup, error) {
	set := cfg.scale.workingSet
	problems, err := generateSet(cfg, set, 5, func(int) shape { return clusterShape })
	if err != nil {
		return nil, err
	}
	st, err := clusterLoad.plan(cfg, problems, func(int) shape { return clusterShape })
	if err != nil {
		return nil, err
	}
	master := ftbar.NewClusterMaster(ftbar.ClusterMasterConfig{})
	var (
		workers  []*ftbar.ClusterWorker
		services []*ftbar.Service
		regs     []*obsv.Registry
	)
	stop := func() {
		master.Close()
		for i, w := range workers {
			w.Close()
			services[i].Close()
		}
	}
	for i := 0; i < 2; i++ {
		svc := ftbar.NewService(ftbar.ServiceConfig{Workers: 1, CacheSize: cfg.scale.cachePer})
		w := ftbar.NewClusterWorker(fmt.Sprintf("worker-%d", i), svc)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			stop()
			return nil, err
		}
		w.Serve(ln)
		master.AddWorker(w.ID(), w.Addr())
		workers, services, regs = append(workers, w), append(services, svc), append(regs, svc.Metrics())
	}
	master.Start()
	st.tgt, err = serveHTTP(ftbar.NewServiceHandler(master), master.Metrics(), regs, stop)
	if err != nil {
		stop()
		return nil, err
	}
	return prime(st)
}

// serveHTTP serves h on a loopback listener and returns the target; the
// client keeps at most nproc connections.
func serveHTTP(h http.Handler, edge *obsv.Registry, workers []*obsv.Registry, stop func()) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	transport := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	}
	return &target{
		url:     "http://" + ln.Addr().String() + "/v1/schedule",
		client:  &http.Client{Transport: transport, Timeout: requestTimeout},
		edge:    edge,
		workers: workers,
		close: func() {
			transport.CloseIdleConnections()
			_ = srv.Close()
			<-served
			stop()
		},
	}, nil
}

// prime answers each hot problem once, so its repeats are cache hits
// from the first measured request. On failure it tears the target down.
func prime(st *openSetup) (*openSetup, error) {
	reqs := make([]request, len(st.hot))
	for i, b := range st.hot {
		reqs[i] = request{problem: i, body: b}
	}
	outs := drive(st.tgt, reqs, time.Now())
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			st.teardown()
			return nil, fmt.Errorf("warm-up request %d: status %d, %v", i, o.status, o.err)
		}
	}
	return st, nil
}

// drive sends reqs from nproc goroutines, each taking the next arrival
// and sending it at its due time (or at once when late), and returns
// each request's outcome.
func drive(tgt *target, reqs []request, start time.Time) []outcome {
	outs := make([]outcome, len(reqs))
	var (
		next    atomic.Int64
		senders sync.WaitGroup
	)
	for s := 0; s < runtime.NumCPU(); s++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				outs[i] = send(tgt, reqs[i].body, due)
			}
		}()
	}
	senders.Wait()
	return outs
}

// send posts one request and reads the response's length and meets_rtc,
// the first two fields of a reply, then drains the body so the
// connection is reused.
func send(tgt *target, body []byte, due time.Time) (o outcome) {
	o.due = due
	o.sent = time.Now()
	defer func() { o.done = time.Now() }()
	resp, err := tgt.client.Post(tgt.url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	o.status = resp.StatusCode
	cr := &countingReader{r: resp.Body}
	if o.status == http.StatusOK {
		var head struct {
			Length   float64 `json:"length"`
			MeetsRtc bool    `json:"meets_rtc"`
		}
		o.err = decodeHead(cr, &head.Length, &head.MeetsRtc)
		o.length, o.meetsRtc = head.Length, head.MeetsRtc
	}
	if _, err := io.Copy(io.Discard, cr); err != nil && o.err == nil {
		o.err = err
	}
	o.bytes = cr.n
	return o
}

// decodeHead reads a reply object's leading "length" and "meets_rtc"
// members without decoding the schedule document behind them.
func decodeHead(r io.Reader, length *float64, meetsRtc *bool) error {
	dec := json.NewDecoder(r)
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return fmt.Errorf("reply is not an object: %v", err)
	}
	for _, want := range []string{"length", "meets_rtc"} {
		t, err := dec.Token()
		if err != nil || t != want {
			return fmt.Errorf("reply field %v, want %q: %v", t, want, err)
		}
		var dst any = length
		if want == "meets_rtc" {
			dst = meetsRtc
		}
		if err := dec.Decode(dst); err != nil {
			return fmt.Errorf("reply %s: %w", want, err)
		}
	}
	// The decoder buffers ahead; the caller drains r, not the buffer.
	return nil
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// phaseStats summarises one phase from the client's side.
type phaseStats struct {
	sent, ok  int
	lat       []float64 // due to done, successful requests, ms
	rtt       []float64 // sent to done, successful requests, ms
	lag       []float64 // due to sent, ms
	withinSLO int
	elapsed   time.Duration // phase start to last completion
	bytes     int
}

func summarise(outs []outcome, start time.Time, slo time.Duration) phaseStats {
	ps := phaseStats{sent: len(outs)}
	last := start
	for _, o := range outs {
		ps.lag = append(ps.lag, ms(o.sent.Sub(o.due)))
		if o.done.After(last) {
			last = o.done
		}
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		ps.ok++
		l := o.done.Sub(o.due)
		ps.lat = append(ps.lat, ms(l))
		ps.rtt = append(ps.rtt, ms(o.done.Sub(o.sent)))
		ps.bytes += o.bytes
		if l <= slo {
			ps.withinSLO++
		}
	}
	ps.elapsed = last.Sub(start)
	return ps
}

// runOpen runs an open-loop workload: set up (several times, timing the
// median), then the nominal and peak phases, then the untimed checks of
// every response against a library solve of the same problem.
func runOpen(cfg runConfig, load openLoad, setup func(runConfig) (*openSetup, error)) (*result, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(load.gogc))
	fmt.Fprintf(cfg.log, "GOGC %d, rates %g/%g req/s, SLO %v, lag limit %v\n",
		load.gogc, load.rates[0]*cfg.scale.rateScale, load.rates[1]*cfg.scale.rateScale, load.slo, load.lagLimit)
	st, setupS, err := timeSetup(cfg.scale.setupReps, func() (*openSetup, error) { return setup(cfg) }, (*openSetup).teardown)
	defer st.teardown()
	if err != nil {
		return nil, err
	}
	res := newResult()
	tr := cfg.tracer
	warmOuts := drive(st.tgt, st.warm, time.Now())
	before := gatherAll(st.tgt)
	var stats [2]phaseStats
	var outs [2][]outcome
	win := openWindow()
	for ph := range st.phases {
		start := time.Now()
		outs[ph] = drive(st.tgt, st.phases[ph], start)
		stats[ph] = summarise(outs[ph], start, load.slo)
	}
	total := len(st.phases[0]) + len(st.phases[1])
	wr := win.close(total)
	after := gatherAll(st.tgt)

	for ph, ps := range stats {
		if cfg.saturate {
			fmt.Fprintf(cfg.log, "capacity, phase %d: %.1f req/s\n", ph, float64(ps.ok)/ps.elapsed.Seconds())
			continue
		}
		if lag := quantile(ps.lag, 0.99); lag > ms(load.lagLimit) {
			return nil, fmt.Errorf("%w: %s phase generator lag p99 %.1f ms exceeds %v",
				errInvalidPhase, []string{"nominal", "peak"}[ph], lag, load.lagLimit)
		}
	}
	lib := newLibrary(st.problems)
	checkPhase(res, lib, st.warm, warmOuts)
	for ph := range st.phases {
		checkPhase(res, lib, st.phases[ph], outs[ph])
		if tr != nil {
			traceRequests(tr, st.phases[ph], outs[ph], ph)
			replayClasses(tr, st, st.phases[ph], ph)
		}
	}
	nominal, peak := stats[0], stats[1]
	res.attempted = total + len(st.warm)
	res.e2e["setup_s"] = setupS
	res.e2e["throughput_ops_s"] = float64(peak.withinSLO) / peak.elapsed.Seconds()
	res.e2e["latency_p50_ms"] = quantile(nominal.lat, 0.5)
	res.e2e["cpu_ms_per_op"] = wr.cpuMsPerOp

	L := res.layer
	fillRuntime(L, wr)
	L["client.latency_p90_ms"] = quantile(nominal.lat, 0.9)
	L["loadgen.nominal_p50_ms"] = quantile(nominal.lat, 0.5)
	L["loadgen.nominal_p99_ms"] = quantile(nominal.lat, 0.99)
	L["loadgen.peak_p50_ms"] = quantile(peak.lat, 0.5)
	L["loadgen.peak_p99_ms"] = quantile(peak.lat, 0.99)
	L["loadgen.peak_goodput_rps"] = res.e2e["throughput_ops_s"]
	L["loadgen.lag_p99_ms"] = max(quantile(nominal.lag, 0.99), quantile(peak.lag, 0.99))
	okCount := nominal.ok + peak.ok
	L["wire.response_bytes"] = float64(nominal.bytes+peak.bytes) / float64(max(okCount, 1))
	L["quality.failed_share"] = share(res.failed, res.attempted)
	L["quality.validated_share"] = share(okCount, total)
	rtt := mean(append(append([]float64(nil), nominal.rtt...), peak.rtt...))
	fillRegistryLayers(L, before, after, rtt)
	if tr != nil {
		fillSpanLayers(res, tr.spans)
	}
	fmt.Fprintf(cfg.log, "nominal: %d sent, %d ok, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms; peak: %d sent, %d ok, p50 %.2f ms, p90 %.2f ms, p99 %.2f ms, goodput %.1f req/s\n",
		nominal.sent, nominal.ok, L["loadgen.nominal_p50_ms"], quantile(nominal.lat, 0.9), L["loadgen.nominal_p99_ms"],
		peak.sent, peak.ok, L["loadgen.peak_p50_ms"], quantile(peak.lat, 0.9), L["loadgen.peak_p99_ms"], L["loadgen.peak_goodput_rps"])
	return res, nil
}

// library holds the library's own answer for each problem, solved on
// demand by ftbar.Run: the oracle every served response must match.
type library struct {
	problems []*ftbar.Problem
	length   map[int]float64
	err      map[int]error
}

func newLibrary(problems []*ftbar.Problem) *library {
	return &library{problems: problems, length: map[int]float64{}, err: map[int]error{}}
}

// solve solves the given problems not solved yet, on nproc goroutines.
func (l *library) solve(ids []int) {
	var todo []int
	for _, id := range ids {
		if _, ok := l.length[id]; !ok {
			todo = append(todo, id)
		}
	}
	lengths := make([]float64, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(todo) {
					return
				}
				r, err := ftbar.Run(l.problems[todo[k]].Clone(), ftbar.Options{})
				if err != nil {
					errs[k] = err
					continue
				}
				lengths[k] = r.Schedule.Length()
			}
		}()
	}
	wg.Wait()
	for k, id := range todo {
		l.length[id] = lengths[k]
		if errs[k] != nil {
			l.err[id] = errs[k]
		}
	}
}

// checkPhase counts failed requests and compares every served length
// with the library's, and every variant's meets_rtc with its deadline.
func checkPhase(res *result, lib *library, reqs []request, outs []outcome) {
	seen := map[int]bool{}
	var ids []int
	for _, r := range reqs {
		if !seen[r.problem] {
			seen[r.problem] = true
			ids = append(ids, r.problem)
		}
	}
	lib.solve(ids)
	for i, o := range outs {
		r := reqs[i]
		switch {
		case o.err != nil || o.status != http.StatusOK:
			res.failed++
			res.mismatch("%s request %d: status %d, %v", classNames[r.class], i, o.status, o.err)
		case lib.err[r.problem] != nil:
			res.mismatch("%s request %d: served, but the library refuses: %v", classNames[r.class], i, lib.err[r.problem])
		case o.length != lib.length[r.problem]:
			res.mismatch("%s request %d: served length %g, library %g", classNames[r.class], i, o.length, lib.length[r.problem])
		case r.class == classVariant && o.meetsRtc != (o.length <= r.deadline):
			res.mismatch("variant request %d: meets_rtc %t for length %g against deadline %g", i, o.meetsRtc, o.length, r.deadline)
		}
	}
}

// traceRequests records the client-side spans of a phase: each request
// from due to done, with its generator lag and its HTTP round trip.
func traceRequests(tr *tracer, reqs []request, outs []outcome, phase int) {
	for i, o := range outs {
		op := phase*1_000_000 + i
		root := tr.add("request."+classNames[reqs[i].class], o.due, o.done, -1, op, 2+phase)
		tr.add("loadgen.lag", o.due, o.sent, root, op, 2+phase)
		tr.add("http.roundtrip", o.sent, o.done, root, op, 2+phase)
	}
}

// replayPerClass bounds the offline replay: this many requests of each
// class per phase.
const replayPerClass = 8

// replayClasses replays a few requests of each class through the layer
// functions a server calls for it, untimed by the phase, recording a
// span per layer call: the per-class split the registries cannot give.
func replayClasses(tr *tracer, st *openSetup, reqs []request, phase int) {
	count := [3]int{}
	for i, r := range reqs {
		if count[r.class] >= replayPerClass {
			continue
		}
		count[r.class]++
		op := 10_000_000 + phase*1_000_000 + i
		replayRequest(tr, op, r, st.problems[r.problem])
	}
}

// replayRequest runs one request's server-side layer calls: decode and
// content key always; validation, planning and schedule marshalling
// unless it is a hit; the reply encode always. A variant is planned
// through an arena that has solved its hot parent, as the service's
// per-shape arena has.
func replayRequest(tr *tracer, op int, r request, parent *ftbar.Problem) {
	// What the server already holds is built outside the spans: a hit's
	// cached response, a variant's arena record of its parent.
	resp := &wire.ScheduleResponse{}
	var arena *core.RunArena
	switch r.class {
	case classHit:
		res, err := ftbar.Run(parent.Clone(), ftbar.Options{})
		if err != nil {
			return
		}
		if resp.Schedule, err = res.Schedule.MarshalJSON(); err != nil {
			return
		}
		resp.Length, resp.MeetsRtc, resp.Steps = res.Schedule.Length(), res.MeetsRtc, len(res.Steps)
	case classVariant:
		arena = core.NewRunArena(4)
		if _, err := arena.Run(parent.Clone(), ftbar.Options{}); err != nil {
			return
		}
	}
	root := tr.begin("replay."+classNames[r.class], -1, op, 1)
	defer tr.end(root)
	var req ftbar.ScheduleRequest
	if tr.call("spec.decode", root, op, func() error { return json.Unmarshal(r.body, &req) }) != nil {
		return
	}
	_ = tr.call("wire.cache_key", root, op, func() error { _, err := req.CacheKey(); return err })
	if r.class != classHit {
		if tr.call("spec.validate", root, op, req.Problem.Validate) != nil {
			return
		}
		var res *ftbar.Result
		plan := func() (err error) { res, err = ftbar.Run(req.Problem, ftbar.Options{}); return err }
		layer := "core.plan"
		if r.class == classVariant {
			plan = func() (err error) { res, err = arena.Run(req.Problem, ftbar.Options{}); return err }
			layer = "core.replan"
		} else if tr.call("sched.prepare", root, op, func() error { _, err := sched.NewSchedule(req.Problem); return err }) != nil {
			return
		}
		if tr.call(layer, root, op, plan) != nil {
			return
		}
		if tr.call("sched.marshal", root, op, func() (err error) { resp.Schedule, err = res.Schedule.MarshalJSON(); return err }) != nil {
			return
		}
		resp.Length, resp.MeetsRtc, resp.Steps = res.Schedule.Length(), res.MeetsRtc, len(res.Steps)
	}
	_ = tr.call("wire.response_encode", root, op, func() error {
		_, err := json.MarshalIndent(&ftbar.ScheduleReply{ScheduleResponse: resp, Cached: r.class == classHit}, "", "  ")
		return err
	})
}

// snapshot maps metric names to samples across the edge registry and
// summed over the worker registries.
type snapshot struct {
	edge    map[string]obsv.Sample
	workers []map[string]obsv.Sample
}

func gatherAll(t *target) snapshot {
	index := func(r *obsv.Registry) map[string]obsv.Sample {
		m := map[string]obsv.Sample{}
		for _, s := range r.Gather().Samples {
			m[s.Name] = s
		}
		return m
	}
	s := snapshot{edge: index(t.edge)}
	for _, w := range t.workers {
		s.workers = append(s.workers, index(w))
	}
	return s
}

// counterDelta is a counter's increase between snapshots.
func counterDelta(a, b map[string]obsv.Sample, name string) float64 {
	return b[name].Value - a[name].Value
}

// histDelta is a histogram's observations between snapshots: count,
// sum and cumulative bucket counts.
func histDelta(a, b map[string]obsv.Sample, name string) obsv.Sample {
	before, after := a[name], b[name]
	d := obsv.Sample{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i, bk := range after.Buckets {
		c := bk.Count
		if i < len(before.Buckets) {
			c -= before.Buckets[i].Count
		}
		d.Buckets = append(d.Buckets, obsv.BucketCount{Le: bk.Le, Count: c})
	}
	return d
}

// histMeanMs is a delta histogram's mean observation, in ms.
func histMeanMs(h obsv.Sample) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count) * 1e3
}

// histQuantileMs estimates a delta histogram's q-quantile in ms,
// interpolating inside the covering power-of-two bucket as obsv does.
func histQuantileMs(h obsv.Sample, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := max(q*float64(h.Count), 1)
	prevLe, prevCum := 0.0, uint64(0)
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank && b.Count > prevCum {
			if b.Le > 1e300 { // the overflow bucket: clamp to the last bound
				return prevLe * 1e3
			}
			frac := (rank - float64(prevCum)) / float64(b.Count-prevCum)
			return (prevLe + (b.Le-prevLe)*frac) * 1e3
		}
		prevLe, prevCum = b.Le, b.Count
	}
	return prevLe * 1e3
}

const (
	httpHist    = `ftbar_http_request_duration_seconds{path="/v1/schedule"}`
	serviceHist = "ftbar_service_request_duration_seconds"
	clusterHist = "ftbar_cluster_request_duration_seconds"
)

// fillRegistryLayers sets the service and cluster layer metrics from the
// registry deltas over the measured phases. rttMs is the client's mean
// round trip, which the edge's handler time should nearly cover.
func fillRegistryLayers(L map[string]float64, a, b snapshot, rttMs float64) {
	handler := histDelta(a.edge, b.edge, httpHist)
	// The service-level counters: the standalone service's own, or summed
	// over the cluster's workers.
	services := []struct{ a, b map[string]obsv.Sample }{{a.edge, b.edge}}
	if len(b.workers) > 0 {
		services = services[:0]
		for i := range b.workers {
			services = append(services, struct{ a, b map[string]obsv.Sample }{a.workers[i], b.workers[i]})
		}
	}
	sum := func(counter string) float64 {
		total := 0.0
		for _, s := range services {
			total += counterDelta(s.a, s.b, counter)
		}
		return total
	}
	var svcHist obsv.Sample
	for _, s := range services {
		svcHist = mergeHist(svcHist, histDelta(s.a, s.b, serviceHist))
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	requests, runs := sum("ftbar_service_requests_total"), sum("ftbar_service_scheduler_runs_total")
	L["service.hit_share"] = ratio(sum("ftbar_service_cache_hits_total"), requests)
	L["service.rejected_share"] = ratio(sum("ftbar_service_rejected_total"), requests)
	L["service.scheduler_runs"] = runs
	L["service.warm_start_share"] = ratio(sum("ftbar_planner_warm_starts_total"), runs)
	// The planner's work per scheduler run, from the counters the service
	// folds each Result.Planner into.
	for metric, counter := range map[string]string{
		"core.previews_computed": "ftbar_planner_previews_computed_total",
		"core.previews_screened": "ftbar_planner_previews_screened_total",
		"core.sigma_reuses":      "ftbar_planner_sigma_reuses_total",
		"core.batched_commits":   "ftbar_planner_batched_commits_total",
		"core.batch_fallbacks":   "ftbar_planner_batch_fallbacks_total",
	} {
		L[metric] = ratio(sum(counter), runs)
	}
	L["core.replay_fallbacks"] = sum("ftbar_planner_replay_fallbacks_total")
	L["service.request_ms_p50"] = histQuantileMs(svcHist, 0.5)
	L["service.request_ms_p99"] = histQuantileMs(svcHist, 0.99)
	L["service.handler_share"] = ratio(histMeanMs(handler), rttMs)
	edgeReq := svcHist
	if len(b.workers) > 0 {
		master := histDelta(a.edge, b.edge, clusterHist)
		edgeReq = master
		L["cluster.master_ms"] = histMeanMs(master)
		L["cluster.worker_ms"] = histMeanMs(svcHist)
		L["cluster.rpc_ms"] = histMeanMs(master) - histMeanMs(svcHist)
		L["cluster.coalesced_share"] = ratio(counterDelta(a.edge, b.edge, "ftbar_cluster_coalesced_total"),
			counterDelta(a.edge, b.edge, "ftbar_cluster_requests_total"))
		L["cluster.route_errors"] = counterDelta(a.edge, b.edge, "ftbar_cluster_route_errors_total")
	}
	L["service.edge_ms"] = histMeanMs(handler) - histMeanMs(edgeReq)
}

// mergeHist adds two delta histograms with the same bucket ladder.
func mergeHist(x, y obsv.Sample) obsv.Sample {
	if len(x.Buckets) == 0 {
		return y
	}
	out := obsv.Sample{Count: x.Count + y.Count, Sum: x.Sum + y.Sum}
	for i, b := range x.Buckets {
		out.Buckets = append(out.Buckets, obsv.BucketCount{Le: b.Le, Count: b.Count + y.Buckets[i].Count})
	}
	return out
}
