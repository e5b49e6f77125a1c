package sim

import (
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/sched"
)

// CrashAtZero simulates one iteration with processor p failed from the
// start, the configuration of the paper's Figure 8.
func CrashAtZero(s *sched.Schedule, p arch.ProcID) (*Result, error) {
	return Run(s, Scenario{Failures: []Failure{Permanent(p, 0)}})
}

// CrashReport is the outcome of a worst-case single-failure sweep.
type CrashReport struct {
	// Proc is the crashed processor.
	Proc arch.ProcID
	// WorstAt is the crash instant that maximises the makespan.
	WorstAt float64
	// WorstMakespan is the resulting makespan.
	WorstMakespan float64
	// AtZeroMakespan is the makespan when the processor fails at time 0
	// (the figure the paper reports).
	AtZeroMakespan float64
	// Masked reports whether every probed crash instant still produced all
	// outputs (failure masking held).
	Masked bool
}

// crashEps separates a probe instant from the event boundary it targets.
const crashEps = 1e-6

// SingleFailureSweep probes, for every processor, the crash instants that
// can change the outcome: time zero and just before/after each completion
// of the processor's replicas and outgoing comms in the fault-free timing.
// It returns one report per processor. The schedule must tolerate one
// failure (Npf >= 1) for Masked to hold. Masked judges one iteration: a
// crash that leaves a processor stuck on a branch feeding no output is
// masked there, yet the stuck processor runs nothing in later iterations,
// so Run over two iterations can lose outputs the sweep reports masked.
// Scenarios run concurrently on a worker pool sized to GOMAXPROCS; the
// reports do not depend on the worker count.
func SingleFailureSweep(s *sched.Schedule) ([]CrashReport, error) {
	outcomes, err := sweep(s, procCells(s), 0)
	if err != nil {
		return nil, err
	}
	reports := make([]CrashReport, len(outcomes))
	for p, o := range outcomes {
		reports[p] = CrashReport{Proc: arch.ProcID(p), WorstAt: o.worstAt,
			WorstMakespan: o.worstMakespan, AtZeroMakespan: o.atZeroMakespan, Masked: o.masked}
	}
	return reports, nil
}

// procCells is the processor sweep: one cell per processor.
func procCells(s *sched.Schedule) []crashCell {
	cells := make([]crashCell, s.Problem().Arc.NumProcs())
	for p := range cells {
		cells[p] = crashCell{procs: []arch.ProcID{arch.ProcID(p)}, probes: crashProbes(s, arch.ProcID(p))}
	}
	return cells
}

// crashProbes returns the candidate crash instants for a processor.
func crashProbes(s *sched.Schedule, p arch.ProcID) []float64 {
	probes := []float64{0}
	add := func(t float64) {
		if t > 0 {
			probes = append(probes, t)
		}
	}
	for _, r := range s.ProcSeq(p) {
		add(r.End - crashEps)
		add(r.End + crashEps)
	}
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		for _, c := range s.MediumSeq(arch.MediumID(m)) {
			if c.From == p {
				add(c.End - crashEps)
				add(c.End + crashEps)
			}
		}
	}
	return probes
}

// WorstSingleFailureMakespan returns the largest makespan over every
// processor and probed crash instant, with the fault-free makespan as the
// floor. This is the bound to compare against Rtc when one failure must be
// tolerated (the paper checks Rtc "both in the presence and in the absence
// of failures").
func WorstSingleFailureMakespan(s *sched.Schedule) (float64, error) {
	worst := s.Length()
	reports, err := SingleFailureSweep(s)
	if err != nil {
		return 0, err
	}
	for _, r := range reports {
		worst = math.Max(worst, r.WorstMakespan)
	}
	return worst, nil
}
