package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

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

// sweep simulates every (cell, probe instant) scenario on a bounded worker
// pool — 0 picks GOMAXPROCS, 1 runs serially — and reduces each cell in
// probe order, so the outcomes are bit-identical for every worker count.
// The first simulation error stops the sweep.
func sweep(s *sched.Schedule, cells []crashCell, workers int) ([]cellOutcome, error) {
	type job struct {
		cell int
		at   float64
	}
	var jobs []job
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				c, at := cells[jobs[i].cell], jobs[i].at
				var sc Scenario
				for _, p := range c.procs {
					sc.Failures = append(sc.Failures, Permanent(p, at))
				}
				for _, m := range c.media {
					sc.MediumFailures = append(sc.MediumFailures, PermanentLink(m, at))
				}
				res, err := Run(s, sc)
				if err != nil {
					errOnce.Do(func() { firstErr = err; failed.Store(true) })
					return
				}
				results[i] = result{res.Iterations[0].Makespan, res.Iterations[0].OutputsOK}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
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
