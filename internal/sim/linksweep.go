package sim

import (
	"sort"

	"ftbar/internal/arch"
	"ftbar/internal/sched"
)

// This file implements the medium-failure sweeps of the unified fault
// model (DESIGN.md Section 10): the per-link analogue of the processor
// crash sweep, and the combined (processor, link) sweep that probes the
// budget's cross products. A schedule accepted by sched.Validate under a
// FaultModel with Nmf >= 1 must mask every single-link scenario; the
// sweeps verify that empirically.

// LinkReport is the outcome of a worst-case single-link-failure sweep for
// one medium.
type LinkReport struct {
	// Medium is the crashed medium.
	Medium arch.MediumID `json:"medium"`
	// WorstAt is the crash instant that maximises the makespan.
	WorstAt float64 `json:"worst_at"`
	// WorstMakespan is the resulting makespan.
	WorstMakespan float64 `json:"worst_makespan"`
	// AtZeroMakespan is the makespan when the medium fails at time 0.
	AtZeroMakespan float64 `json:"at_zero_makespan"`
	// Masked reports whether every probed crash instant still produced
	// all outputs (failure masking held).
	Masked bool `json:"masked"`
}

// SingleLinkFailureSweep probes, for every medium, the crash instants
// that can change the outcome: time zero and just before/after each comm
// completion on the medium in the fault-free timing. It returns one
// report per medium. The schedule must have been built for Nmf >= 1 (and
// pass sched.Validate) for Masked to be guaranteed. Masked judges one
// iteration, as in SingleFailureSweep. Scenarios run concurrently on a
// worker pool sized to GOMAXPROCS; the reports do not depend on the
// worker count.
func SingleLinkFailureSweep(s *sched.Schedule) ([]LinkReport, error) {
	outcomes, err := sweep(s, linkCells(s), 0)
	if err != nil {
		return nil, err
	}
	reports := make([]LinkReport, len(outcomes))
	for m, o := range outcomes {
		reports[m] = LinkReport{Medium: arch.MediumID(m), WorstAt: o.worstAt,
			WorstMakespan: o.worstMakespan, AtZeroMakespan: o.atZeroMakespan, Masked: o.masked}
	}
	return reports, nil
}

// linkCells is the medium sweep: one cell per medium.
func linkCells(s *sched.Schedule) []crashCell {
	cells := make([]crashCell, s.Problem().Arc.NumMedia())
	for m := range cells {
		cells[m] = crashCell{media: []arch.MediumID{arch.MediumID(m)}, probes: linkCrashProbes(s, arch.MediumID(m))}
	}
	return cells
}

// linkCrashProbes returns the candidate crash instants for a medium.
func linkCrashProbes(s *sched.Schedule, m arch.MediumID) []float64 {
	probes := []float64{0}
	for _, c := range s.MediumSeq(m) {
		if t := c.End - crashEps; t > 0 {
			probes = append(probes, t)
		}
		probes = append(probes, c.End+crashEps)
	}
	return probes
}

// CombinedReport is the outcome of one (processor subset, medium) cell of
// the combined sweep: every probed crash instant with the whole subset
// and the medium failed from that instant.
type CombinedReport struct {
	// Procs is the crashed processor subset (ascending ids).
	Procs []arch.ProcID `json:"procs"`
	// Medium is the crashed medium.
	Medium arch.MediumID `json:"medium"`
	// WorstAt is the crash instant that maximises the makespan.
	WorstAt float64 `json:"worst_at"`
	// WorstMakespan is the resulting makespan.
	WorstMakespan float64 `json:"worst_makespan"`
	// AtZeroMakespan is the makespan when everything fails at time 0.
	AtZeroMakespan float64 `json:"at_zero_makespan"`
	// Masked reports whether every probed crash instant still produced
	// all outputs (joint failure masking held).
	Masked bool `json:"masked"`
}

// CombinedFailureSweep simulates the joint half of the unified fault
// budget: every processor subset of size up to the schedule's Npf crossed
// with every single medium, each crashed together at every instant that
// can change the outcome (time zero plus the event boundaries of the
// crashed units in the fault-free timing). PR 3's sweep probed single
// (processor, medium) pairs at time 0 only; the full grid is what the
// joint planner of DESIGN.md Section 12 is measured against. The
// validated guarantee still covers only the two pure sweeps — a mixed
// scenario is masked only where some copy's sender, relays and media all
// survive the crash, which the crash-separated placement arranges on
// rings and point-to-point layouts. ValidateJoint checks the relays and
// media but not the senders, and 37 of 40 dualbus4 {1,1} schedules that
// pass it lose some (processor, medium) crash set (DESIGN.md Section 12)
// — so the sweep reports how far a schedule's masking actually extends. Scenarios run concurrently on a
// GOMAXPROCS pool; reports are ordered (subset size, then ids, then
// medium) and do not depend on the worker count. Masked judges one
// iteration, as in SingleFailureSweep.
func CombinedFailureSweep(s *sched.Schedule) ([]CombinedReport, error) {
	cells := combinedCells(s)
	outcomes, err := sweep(s, cells, 0)
	if err != nil {
		return nil, err
	}
	reports := make([]CombinedReport, len(outcomes))
	for i, o := range outcomes {
		reports[i] = CombinedReport{Procs: cells[i].procs, Medium: cells[i].media[0], WorstAt: o.worstAt,
			WorstMakespan: o.worstMakespan, AtZeroMakespan: o.atZeroMakespan, Masked: o.masked}
	}
	return reports, nil
}

// combinedCells is the combined sweep: every processor subset crossed with
// every medium, probed at the merged instants of the crashed units. Each
// unit's instants are computed once and shared by its cells.
func combinedCells(s *sched.Schedule) []crashCell {
	procs, links := procCells(s), linkCells(s)
	subsets := procSubsets(len(procs), s.Npf())
	cells := make([]crashCell, 0, len(subsets)*len(links))
	for _, sub := range subsets {
		for _, l := range links {
			cells = append(cells, crashCell{procs: sub, media: l.media, probes: mergeProbes(procs, sub, l.probes)})
		}
	}
	return cells
}

// procSubsets enumerates the non-empty processor subsets of size at most
// max(1, npf), smaller sizes first, ids ascending within and across
// subsets — a deterministic order shared by every worker count.
func procSubsets(nP, npf int) [][]arch.ProcID {
	if npf < 1 {
		npf = 1
	}
	if npf > nP {
		npf = nP
	}
	var out [][]arch.ProcID
	var build func(size, start int, cur []arch.ProcID)
	build = func(size, start int, cur []arch.ProcID) {
		if len(cur) == size {
			out = append(out, append([]arch.ProcID(nil), cur...))
			return
		}
		for p := start; p < nP; p++ {
			build(size, p+1, append(cur, arch.ProcID(p)))
		}
	}
	for size := 1; size <= npf; size++ {
		build(size, 0, nil)
	}
	return out
}

// mergeProbes merges the decisive crash instants of every crashed
// processor (procs holds each processor's cell) and of the crashed medium:
// time zero plus just before/after each of their fault-free event
// completions, ascending and deduplicated.
func mergeProbes(procs []crashCell, sub []arch.ProcID, link []float64) []float64 {
	n := len(link)
	for _, p := range sub {
		n += len(procs[p].probes)
	}
	all := make([]float64, 0, n)
	for _, p := range sub {
		all = append(all, procs[p].probes...)
	}
	all = append(all, link...)
	sort.Float64s(all)
	dedup := all[:0]
	for i, t := range all {
		if i == 0 || t != dedup[len(dedup)-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup
}
