package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"ftbar"
	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/sched"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
)

// refusal reports whether err is a typed planner refusal: the problem
// cannot be given the fault tolerance it asks for. Refusals lower
// validated_share; any other error is a failed operation. The planner's
// media-diversity gate usually surfaces as core.ErrNoProcessorChoice,
// but on some medium-failure reschedules of {1,1} ring problems it
// surfaces as the bare sched.ErrNoDisjointDelivery, cold and warm alike.
func refusal(err error) bool {
	return errors.Is(err, spec.ErrMediaDiversity) || errors.Is(err, spec.ErrTooFewprocs) ||
		errors.Is(err, core.ErrNoProcessorChoice) || errors.Is(err, sched.ErrNoDisjointDelivery)
}

// encoded is one pre-encoded problem of a closed-loop list.
type encoded struct {
	class string
	body  []byte
}

func encodeList(sc scale, seed int64, salt, n int, shapeOf func(i int) shape) ([]encoded, error) {
	out := make([]encoded, n)
	for i := range out {
		sh := shapeOf(i)
		p, err := sh.generate(sc, instanceSeed(seed, salt, i))
		if err != nil {
			return nil, fmt.Errorf("generate instance %d: %w", i, err)
		}
		body, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("encode instance %d: %w", i, err)
		}
		out[i] = encoded{class: sh.class, body: body}
	}
	return out, nil
}

// loop is what a closed loop measured.
type loop struct {
	lat []float64 // each measured op's latency, ms
	win windowResult
}

// closedLoop runs op back to back on one caller, cycling i over the
// input list: unmeasured for the scale's warm-up (a process's first
// operations run up to 1.7 times slower while its heap grows), then
// measured for d.
func closedLoop(sc scale, d time.Duration, op func(i int, measured bool)) loop {
	i := 0
	for end := time.Now().Add(sc.warmup); time.Now().Before(end); i++ {
		op(i, false)
	}
	var l loop
	win := openWindow()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); i++ {
		t0 := time.Now()
		op(i, true)
		l.lat = append(l.lat, ms(time.Since(t0)))
	}
	l.win = win.close(len(l.lat))
	return l
}

// fillClosedE2E sets the metrics every closed-loop run shares.
func fillClosedE2E(res *result, setupS float64, l loop) {
	res.e2e["setup_s"] = setupS
	res.e2e["throughput_ops_s"] = float64(len(l.lat)) / l.win.elapsed.Seconds()
	res.e2e["latency_p50_ms"] = quantile(l.lat, 0.5)
	res.e2e["cpu_ms_per_op"] = l.win.cpuMsPerOp
	res.layer["client.latency_p90_ms"] = quantile(l.lat, 0.9)
	fillRuntime(res.layer, l.win)
}

// fillRuntime sets the Go runtime's per-layer metrics.
func fillRuntime(layer map[string]float64, w windowResult) {
	layer["runtime.heap_peak_mb"] = w.heapPeakMB
	layer["runtime.alloc_bytes_per_op"] = w.allocBytesPerOp
	layer["runtime.gc_cycles_per_op"] = w.gcCyclesPerOp
}

// plannerSums accumulates Result.Planner counters over runs.
type plannerSums struct {
	runs, decisions                                int
	computed, screened, reuses, batched, fallbacks int
}

func (p *plannerSums) add(r *ftbar.Result) {
	p.runs++
	p.decisions += len(r.Steps)
	p.computed += r.Planner.PreviewsComputed
	p.screened += r.Planner.PreviewsScreened
	p.reuses += r.Planner.SigmaReuses
	p.batched += r.Planner.BatchedCommits
	p.fallbacks += r.Planner.BatchFallbacks
}

func (p *plannerSums) fill(layer map[string]float64) {
	n := float64(max(p.runs, 1))
	layer["core.previews_computed"] = float64(p.computed) / n
	layer["core.previews_screened"] = float64(p.screened) / n
	layer["core.sigma_reuses"] = float64(p.reuses) / n
	layer["core.batched_commits"] = float64(p.batched) / n
	layer["core.batch_fallbacks"] = float64(p.fallbacks) / n
}

// quality tallies the deterministic outcome of a closed-loop run.
type quality struct {
	ops, failed, validated int
	masked, scenarios      int
	lengths                []float64
}

func (q *quality) fill(res *result) {
	res.attempted, res.failed = q.ops, q.failed
	res.layer["quality.failed_share"] = share(q.failed, q.ops)
	res.layer["quality.validated_share"] = share(q.validated, q.ops)
	res.layer["quality.masked_share"] = share(q.masked, q.scenarios)
	res.layer["quality.makespan_geomean"] = geomean(q.lengths)
}

// runPlanCold measures the `ftbar -spec` path: JSON decode, validation,
// planning, schedule validation and marshalling of distinct problems,
// one caller in a closed loop. It never touches the cache, the arena or
// the simulator.
func runPlanCold(cfg runConfig) (*result, error) {
	sc := cfg.scale
	list, setupS, err := timeSetup(sc.setupReps, func() ([]encoded, error) {
		return encodeList(sc, cfg.seed, 1, sc.planList, func(i int) shape { return planShapes[i%len(planShapes)] })
	}, func([]encoded) {})
	if err != nil {
		return nil, err
	}
	tr := cfg.tracer
	res := newResult()
	var (
		q       quality
		planner plannerSums
		// docs keeps the first cycle's marshalled schedules, checked
		// against their schedules after the window closes.
		docs []docCheck
	)
	l := closedLoop(sc, cfg.duration, func(i int, measured bool) {
		inst := list[i%len(list)]
		if !measured {
			planOp(nil, 0, inst)
			return
		}
		q.ops++
		r, doc, err := planOp(tr, q.ops-1, inst)
		switch {
		case err != nil && refusal(err):
		case err != nil:
			q.failed++
			res.mismatch("plan-cold op %d (%s): %v", i, inst.class, err)
		default:
			q.validated++
			q.lengths = append(q.lengths, r.Schedule.Length())
			planner.add(r)
			if len(docs) < len(planShapes) {
				docs = append(docs, docCheck{i, r.Schedule.Length(), r.Schedule.TotalReplicas(), doc})
			}
		}
	})
	for _, d := range docs {
		d.check(res)
	}
	fillClosedE2E(res, setupS, l)
	q.fill(res)
	planner.fill(res.layer)
	if tr != nil {
		fillSpanLayers(res, tr.spans)
		byClass := map[string][]float64{}
		for _, s := range tr.spans {
			if s.name == "core.plan" {
				class := strings.TrimPrefix(tr.spans[s.parent].name, "op.plan-cold.")
				byClass[class] = append(byClass[class], float64(s.end-s.start)/1e6)
			}
		}
		for _, class := range []string{"dense", "grid", "relay"} {
			res.layer["core.plan_ms."+class] = mean(byClass[class])
		}
		if planner.decisions > 0 {
			res.layer["core.plan_ns_per_decision"] = res.layer["core.plan_ms"] * 1e6 * float64(planner.runs) / float64(planner.decisions)
		}
	}
	return res, nil
}

// planOp is one plan-cold operation. Traced, it builds the schedule with
// sched.NewSchedule before planning, so preparation shows as its own span.
func planOp(tr *tracer, op int, inst encoded) (*ftbar.Result, []byte, error) {
	root := tr.begin("op.plan-cold."+inst.class, -1, op, 1)
	defer tr.end(root)
	p := new(ftbar.Problem)
	if err := tr.call("spec.decode", root, op, func() error { return json.Unmarshal(inst.body, p) }); err != nil {
		return nil, nil, err
	}
	if err := tr.call("spec.validate", root, op, p.Validate); err != nil {
		return nil, nil, err
	}
	if tr != nil {
		if err := tr.call("sched.prepare", root, op, func() error { _, err := sched.NewSchedule(p); return err }); err != nil {
			return nil, nil, err
		}
	}
	var r *ftbar.Result
	if err := tr.call("core.plan", root, op, func() (err error) { r, err = ftbar.Run(p, ftbar.Options{}); return err }); err != nil {
		return nil, nil, err
	}
	if err := tr.call("sched.validate", root, op, r.Schedule.Validate); err != nil {
		return nil, nil, fmt.Errorf("schedule failed validation: %w", err)
	}
	var doc []byte
	if err := tr.call("sched.marshal", root, op, func() (err error) { doc, err = r.Schedule.MarshalJSON(); return err }); err != nil {
		return nil, nil, err
	}
	return r, doc, nil
}

// docCheck compares a marshalled schedule document with the schedule it
// was marshalled from.
type docCheck struct {
	op       int
	length   float64
	replicas int
	doc      []byte
}

func (d docCheck) check(res *result) {
	var doc ftbar.ScheduleDoc
	if err := json.Unmarshal(d.doc, &doc); err != nil {
		res.mismatch("plan-cold op %d: schedule document does not parse: %v", d.op, err)
		return
	}
	if doc.Length != d.length || len(doc.Replicas) != d.replicas {
		res.mismatch("plan-cold op %d: document length %g with %d replicas, schedule %g with %d",
			d.op, doc.Length, len(doc.Replicas), d.length, d.replicas)
	}
}

// runVerifySweep measures the designer's verification loop on {1,1}
// problems: plan through a run arena, Validate and ValidateJoint, the
// processor, link and combined crash sweeps, then every surviving
// single-processor and single-medium reschedule plus four deadline
// revisions, solved warm through the same arena.
func runVerifySweep(cfg runConfig) (*result, error) {
	sc := cfg.scale
	list, setupS, err := timeSetup(sc.setupReps, func() ([]encoded, error) {
		return encodeList(sc, cfg.seed, 2, sc.verifyList, verifyShape)
	}, func([]encoded) {})
	if err != nil {
		return nil, err
	}
	tr := cfg.tracer
	res := newResult()
	var (
		q          quality
		planner    plannerSums
		certified  int
		spots      []replan
		sweepNanos int64
		// The reschedule family's decisions, and how many were replayed.
		replanSteps, replayed, replayFallbacks int
	)
	l := closedLoop(sc, cfg.duration, func(i int, measured bool) {
		if !measured {
			verifyOp(nil, i, list[i%len(list)])
			return
		}
		q.ops++
		o := verifyOp(tr, q.ops-1, list[i%len(list)])
		switch {
		case o.err != nil && refusal(o.err):
		case o.err != nil:
			q.failed++
			res.mismatch("verify-sweep op %d: %v", i, o.err)
		default:
			q.validated++
			q.lengths = append(q.lengths, o.base.Schedule.Length())
			q.masked += o.masked
			q.scenarios += o.scenarios
			sweepNanos += o.sweepNanos
			planner.add(o.base)
			for _, r := range o.replans {
				replanSteps += r.steps
				replayed += r.replayed
				replayFallbacks += r.fallbacks
			}
			if o.joint {
				certified++
			}
			if q.ops <= sc.spotChecks {
				spots = append(spots, o.replans...)
			}
			q.failed += len(o.replanErrs)
			for _, e := range o.replanErrs {
				res.mismatch("verify-sweep op %d: %v", i, e)
			}
		}
	})
	for _, s := range spots {
		s.check(res)
	}
	fillClosedE2E(res, setupS, l)
	q.fill(res)
	planner.fill(res.layer)
	res.layer["sched.joint_certified_share"] = share(certified, q.validated)
	res.layer["core.replayed_share"] = share(replayed, replanSteps)
	res.layer["core.replay_fallbacks"] = float64(replayFallbacks)
	if sweepNanos > 0 {
		res.layer["sim.scenarios_per_s"] = float64(q.scenarios) / (float64(sweepNanos) / 1e9)
	}
	if tr != nil {
		fillSpanLayers(res, tr.spans)
		if planner.decisions > 0 {
			res.layer["core.plan_ns_per_decision"] = res.layer["core.plan_ms"] * 1e6 * float64(planner.runs) / float64(planner.decisions)
		}
	}
	return res, nil
}

// replan is one reschedule solved through the arena: its problem and
// length for the cold spot check, its decision log's size and reuse.
type replan struct {
	problem             *ftbar.Problem
	length              float64
	steps               int
	replayed, fallbacks int
}

// check re-solves the reschedule cold; the arena's answer must match.
func (r replan) check(res *result) {
	cold, err := ftbar.Run(r.problem, ftbar.Options{})
	if err != nil {
		res.mismatch("verify-sweep spot check: cold solve failed where the arena succeeded: %v", err)
		return
	}
	if cold.Schedule.Length() != r.length || len(cold.Steps) != r.steps {
		res.mismatch("verify-sweep spot check: arena length %g in %d steps, cold %g in %d",
			r.length, r.steps, cold.Schedule.Length(), len(cold.Steps))
	}
}

type verifyOutcome struct {
	err               error
	base              *ftbar.Result
	joint             bool
	masked, scenarios int
	sweepNanos        int64
	replans           []replan
	replanErrs        []error // reschedules that failed other than by refusal
}

// verifyOp is one verify-sweep operation on one problem.
func verifyOp(tr *tracer, op int, inst encoded) (o verifyOutcome) {
	root := tr.begin("op.verify-sweep."+inst.class, -1, op, 1)
	defer tr.end(root)
	p := new(ftbar.Problem)
	if o.err = tr.call("spec.decode", root, op, func() error { return json.Unmarshal(inst.body, p) }); o.err != nil {
		return o
	}
	if o.err = tr.call("spec.validate", root, op, p.Validate); o.err != nil {
		return o
	}
	opts := ftbar.Options{}
	arena := core.NewRunArena(p.Arc.NumProcs() + p.Arc.NumMedia() + 8)
	if o.err = tr.call("core.plan", root, op, func() (err error) { o.base, err = arena.Run(p, opts); return err }); o.err != nil {
		return o
	}
	s := o.base.Schedule
	if err := tr.call("sched.validate", root, op, s.Validate); err != nil {
		o.err = fmt.Errorf("schedule failed validation: %w", err)
		return o
	}
	o.joint = tr.call("sched.validate_joint", root, op, s.ValidateJoint) == nil
	t0 := time.Now()
	o.err = tr.call("sim.proc_sweep", root, op, func() error {
		reps, err := ftbar.SingleFailureSweep(s)
		for _, r := range reps {
			o.tally(r.Masked)
		}
		return err
	})
	if o.err == nil {
		o.err = tr.call("sim.link_sweep", root, op, func() error {
			reps, err := ftbar.SingleLinkFailureSweep(s)
			for _, r := range reps {
				o.tally(r.Masked)
			}
			return err
		})
	}
	if o.err == nil {
		o.err = tr.call("sim.combined_sweep", root, op, func() error {
			reps, err := ftbar.CombinedFailureSweep(s)
			for _, r := range reps {
				o.tally(r.Masked)
			}
			return err
		})
	}
	o.sweepNanos = time.Since(t0).Nanoseconds()
	if o.err != nil {
		return o
	}
	// The reschedule family: every single-component failure the problem
	// survives, then four deadline revisions of the original.
	var children []func() (*ftbar.Problem, spec.Delta, bool, error)
	for q := 0; q < p.Arc.NumProcs(); q++ {
		sc := ftbar.Scenario{Failures: []ftbar.Failure{ftbar.PermanentFailure(arch.ProcID(q), 0)}}
		children = append(children, func() (*ftbar.Problem, spec.Delta, bool, error) { return sim.ScenarioProblem(p, sc) })
	}
	for m := 0; m < p.Arc.NumMedia(); m++ {
		sc := ftbar.Scenario{MediumFailures: []ftbar.MediumFailure{ftbar.PermanentLinkFailure(arch.MediumID(m), 0)}}
		children = append(children, func() (*ftbar.Problem, spec.Delta, bool, error) { return sim.ScenarioProblem(p, sc) })
	}
	base := s.Length()
	for k := 0; k < 4; k++ {
		rtc := ftbar.Rtc{Deadline: base * (0.85 + 0.1*float64(k))}
		children = append(children, func() (*ftbar.Problem, spec.Delta, bool, error) {
			c, d, err := p.Derive(spec.Mutation{Kind: spec.MutRtc, Rtc: rtc})
			return c, d, err == nil, err
		})
	}
	for _, derive := range children {
		var (
			child *ftbar.Problem
			delta spec.Delta
			ok    bool
		)
		_ = tr.call("spec.derive", root, op, func() (err error) { child, delta, ok, err = derive(); return err })
		if !ok {
			// The architecture cannot survive this failure (too few
			// processors or media left): there is nothing to reschedule.
			continue
		}
		var r *ftbar.Result
		err := tr.call("core.replan", root, op, func() (err error) { r, err = arena.RunDerived(child, delta, opts); return err })
		switch {
		case err != nil && refusal(err):
		case err != nil:
			o.replanErrs = append(o.replanErrs, err)
		default:
			o.replans = append(o.replans, replan{child, r.Schedule.Length(), len(r.Steps),
				r.Planner.ReplayedDecisions, r.Planner.ReplayFallbacks})
			arena.Recycle(r.Schedule)
		}
	}
	return o
}

func (o *verifyOutcome) tally(masked bool) {
	o.scenarios++
	if masked {
		o.masked++
	}
}

// fillSpanLayers sets the per-layer times the closed-loop spans give.
func fillSpanLayers(res *result, spans []span) {
	means := layerMeans(spans)
	for span, metric := range map[string]string{
		"spec.decode":          "spec.decode_ms",
		"spec.validate":        "spec.validate_ms",
		"spec.derive":          "spec.derive_ms",
		"wire.cache_key":       "wire.cache_key_ms",
		"wire.response_encode": "wire.response_encode_ms",
		"sched.prepare":        "sched.prepare_ms",
		"sched.validate":       "sched.validate_ms",
		"sched.validate_joint": "sched.validate_joint_ms",
		"sched.marshal":        "sched.marshal_ms",
		"core.plan":            "core.plan_ms",
		"core.replan":          "core.replan_ms",
		"sim.proc_sweep":       "sim.proc_sweep_ms",
		"sim.link_sweep":       "sim.link_sweep_ms",
		"sim.combined_sweep":   "sim.combined_sweep_ms",
	} {
		res.layer[metric] = means[span]
	}
	res.layer["trace.child_coverage"] = childCoverage(spans)
}
