package sim

import (
	"ftbar/internal/arch"
	"ftbar/internal/sched"
)

// This file is the crash-sweep engine behind SingleFailureSweep,
// SingleLinkFailureSweep and CombinedFailureSweep. A sweep is a list of
// crash cells; each public sweep only builds its cells and maps the
// outcomes onto its report type.

// crashCell is one crash set of a sweep: processors and media that fail
// permanently together, at each of the probe instants in turn.
type crashCell struct {
	procs  []arch.ProcID
	media  []arch.MediumID
	probes []float64
}

// cellOutcome reduces one cell over its probes in probe order: the first
// probe that reaches the worst makespan sets worstAt (-1 when no probe
// ran), and masked holds when every probe still produced all outputs.
type cellOutcome struct {
	worstAt, worstMakespan, atZeroMakespan float64
	masked                                 bool
}

// sweep simulates every (cell, probe instant) scenario on one plan of the
// schedule and a bounded pool of per-worker states — 0 workers picks
// GOMAXPROCS, 1 runs serially — and reduces each cell in probe order, so
// the outcomes are bit-identical for every worker count. A probe records
// only its makespan and whether the outputs survived. The first
// simulation error stops the sweep.
func sweep(s *sched.Schedule, cells []crashCell, workers int) ([]cellOutcome, error) {
	type job struct {
		cell int
		at   float64
	}
	n := 0
	for _, c := range cells {
		n += len(c.probes)
	}
	jobs := make([]job, 0, n)
	for ci, c := range cells {
		for _, at := range c.probes {
			jobs = append(jobs, job{ci, at})
		}
	}
	type result struct {
		makespan float64
		masked   bool
	}
	results := make([]result, len(jobs))
	pl := newPlan(s)
	unitsOK := make([]bool, len(cells))
	for ci, c := range cells {
		unitsOK[ci] = pl.unitsValid(c.procs, c.media)
	}
	err := pl.forEach(len(jobs), workers, func(st *state, i int) error {
		ci := jobs[i].cell
		makespan, masked, err := st.crash(cells[ci].procs, cells[ci].media, jobs[i].at, unitsOK[ci])
		results[i] = result{makespan, masked}
		return err
	})
	if err != nil {
		return nil, err
	}

	outcomes := make([]cellOutcome, len(cells))
	i := 0
	for ci, c := range cells {
		o := cellOutcome{worstAt: -1, masked: true}
		for _, at := range c.probes {
			r := results[i]
			i++
			if r.makespan > o.worstMakespan {
				o.worstMakespan, o.worstAt = r.makespan, at
			}
			if at == 0 {
				o.atZeroMakespan = r.makespan
			}
			o.masked = o.masked && r.masked
		}
		outcomes[ci] = o
	}
	return outcomes, nil
}

// crashScenario fails the processors and media permanently from at.
func crashScenario(procs []arch.ProcID, media []arch.MediumID, at float64) Scenario {
	var sc Scenario
	for _, p := range procs {
		sc.Failures = append(sc.Failures, Permanent(p, at))
	}
	for _, m := range media {
		sc.MediumFailures = append(sc.MediumFailures, PermanentLink(m, at))
	}
	return sc
}

// CrashSetsMasked reports, for each of n crash sets, whether every output
// of s is still produced when the set's processors and media all fail
// permanently at time 0. units(i, procs, media) appends set i's units to
// the two empty buffers and returns them; it runs on the pool's
// goroutines, each with its own buffers. The schedule is indexed once and
// every worker of a GOMAXPROCS pool simulates on its own state, so the
// result does not depend on the worker count. An unknown unit id fails
// the evaluation with Scenario.Validate's error.
func CrashSetsMasked(s *sched.Schedule, n int,
	units func(i int, procs []arch.ProcID, media []arch.MediumID) ([]arch.ProcID, []arch.MediumID)) ([]bool, error) {

	pl := newPlan(s)
	masked := make([]bool, n)
	err := pl.forEach(n, 0, func(st *state, i int) error {
		st.procBuf, st.mediaBuf = units(i, st.procBuf[:0], st.mediaBuf[:0])
		_, ok, err := st.crash(st.procBuf, st.mediaBuf, 0, pl.unitsValid(st.procBuf, st.mediaBuf))
		masked[i] = ok
		return err
	})
	if err != nil {
		return nil, err
	}
	return masked, nil
}
