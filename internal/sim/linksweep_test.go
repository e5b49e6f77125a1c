package sim

import (
	"reflect"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/paperex"
	"ftbar/internal/sched"
	"ftbar/internal/spec"
)

// linkBudgetSchedule schedules the paper example under Npf = 1, Nmf = 1
// and validates the media-diversity guarantee.
func linkBudgetSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	p := paperex.Problem()
	p.SetFaults(spec.FaultModel{Npf: 1, Nmf: 1})
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	return res.Schedule
}

// TestSingleLinkFailureSweepMasksPaperExample is the core acceptance
// property: a schedule the diversity validator accepts masks every
// single-link failure at every probed instant.
func TestSingleLinkFailureSweepMasksPaperExample(t *testing.T) {
	s := linkBudgetSchedule(t)
	reports, err := SingleLinkFailureSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != s.Problem().Arc.NumMedia() {
		t.Fatalf("got %d reports, want %d", len(reports), s.Problem().Arc.NumMedia())
	}
	for _, r := range reports {
		if !r.Masked {
			t.Errorf("link %d not masked (worst at %g)", r.Medium, r.WorstAt)
		}
		if r.WorstMakespan < s.Length()-1e9 {
			t.Errorf("link %d worst makespan %g below fault-free length", r.Medium, r.WorstMakespan)
		}
	}
}

// TestSingleLinkSweepWorkerInvariance pins determinism: the worker count
// must not change a single report.
func TestSingleLinkSweepWorkerInvariance(t *testing.T) {
	s := linkBudgetSchedule(t)
	base, err := sweep(s, linkCells(s), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7} {
		got, err := sweep(s, linkCells(s), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("workers=%d cell %d: %+v != %+v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestCombinedFailureSweepFullTopology pins the point-to-point combined
// guarantee: on a fully connected layout every copy travels its own
// link, so one processor plus one link crash (npf + nmf = 2 <= Npf) is
// masked under Npf = 2, Nmf = 1.
func TestCombinedFailureSweepFullTopology(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 15, CCR: 1, Procs: 4, Npf: 2, Nmf: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	reports, err := CombinedFailureSweep(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	nP, nM := p.Arc.NumProcs(), p.Arc.NumMedia()
	subsets := nP + nP*(nP-1)/2 // sizes 1 and 2 at Npf = 2
	if len(reports) != subsets*nM {
		t.Fatalf("got %d reports, want %d", len(reports), subsets*nM)
	}
	for _, r := range reports {
		if len(r.Procs) == 1 && !r.Masked {
			t.Errorf("(proc %v, medium %d) not masked", r.Procs, r.Medium)
		}
	}
}

// TestLinkSweepCatchesUndiverseSchedule is the negative control: the
// same problem scheduled WITHOUT the medium budget can rely on a single
// bus, and the sweep then reports unmasked link failures — the
// observation-to-guarantee gap the unified fault model closes.
func TestLinkSweepCatchesUndiverseSchedule(t *testing.T) {
	// A dual bus with BUSB forbidden for every dependency degenerates to
	// one bus; with Nmf = 0 the scheduler happily uses it.
	p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 3, Topology: gen.TopoBus, Npf: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := SingleLinkFailureSweep(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	masked := true
	for _, r := range reports {
		masked = masked && r.Masked
	}
	if masked {
		t.Skip("bus schedule happened to be fully local; no link exposure to demonstrate")
	}
}

// TestCombinedSweepWorkerInvariance mirrors the single-link invariance
// pin for the joint grid: the worker count must not change a single
// (subset, medium) outcome — same subsets, same probes, same reduction.
func TestCombinedSweepWorkerInvariance(t *testing.T) {
	s := linkBudgetSchedule(t)
	base, err := sweep(s, combinedCells(s), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 7} {
		got, err := sweep(s, combinedCells(s), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d reports, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("workers=%d cell %d: %+v != %+v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestCombinedSweepProbesNonZeroInstants pins the instant dimension PR 3's
// crash-at-zero sweep lacked: the grid probes event boundaries after time
// zero, the worst instant is reported, and crashing later can only leave
// more values delivered (the worst makespan is never below the at-zero
// makespan of the same cell, and both floor at the fault-free length for
// masked cells).
func TestCombinedSweepProbesNonZeroInstants(t *testing.T) {
	s := linkBudgetSchedule(t)
	reports, err := CombinedFailureSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	nonZero := false
	for _, r := range reports {
		if r.WorstAt > 0 {
			nonZero = true
		}
		if r.WorstMakespan < r.AtZeroMakespan {
			t.Errorf("(%v, %d): worst %g below at-zero %g despite the grid containing 0",
				r.Procs, r.Medium, r.WorstMakespan, r.AtZeroMakespan)
		}
	}
	if !nonZero {
		t.Error("no report elected a non-zero worst instant; the instant grid is not being probed")
	}
}

// TestProcSubsetsEnumeration pins the deterministic subset order the
// worker-invariance guarantee builds on: smaller sizes first, ascending
// ids, capped at max(1, npf).
func TestProcSubsetsEnumeration(t *testing.T) {
	got := procSubsets(3, 2)
	want := [][]arch.ProcID{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("procSubsets(3, 2) = %v, want %v", got, want)
	}
	if g := procSubsets(3, 0); len(g) != 3 {
		t.Errorf("procSubsets(3, 0) has %d subsets, want the 3 singletons", len(g))
	}
	if g := procSubsets(2, 5); len(g) != 3 {
		t.Errorf("procSubsets(2, 5) has %d subsets, want 3 (cap at nP)", len(g))
	}
}
