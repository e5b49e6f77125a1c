package exec

import (
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
)

// TestExecAgreesWithSimOnMasking cross-checks the two execution engines:
// for random problems and every dead-from-start processor, the goroutine
// executive produces all outputs if and only if the discrete-event
// simulator reports the failure masked.
func TestExecAgreesWithSimOnMasking(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 3, Npf: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Schedule
		for proc := arch.ProcID(0); proc < 3; proc++ {
			simRes, err := sim.CrashAtZero(s, proc)
			if err != nil {
				t.Fatalf("seed %d: sim: %v", seed, err)
			}
			execRes, err := Run(s, RunConfig{KillAtStart: []arch.ProcID{proc}})
			if err != nil {
				t.Fatalf("seed %d: exec: %v", seed, err)
			}
			simOK := simRes.Iterations[0].OutputsOK
			execOK := execRes.Complete(s.Tasks().Outputs()) && !execRes.Stalled
			if simOK != execOK {
				t.Errorf("seed %d, crash P%d: sim masked=%v, exec masked=%v",
					seed, proc+1, simOK, execOK)
			}
			if execOK && !execRes.Match() {
				t.Errorf("seed %d, crash P%d: outputs wrong despite masking", seed, proc+1)
			}
		}
	}
}

// TestLaterIterationKill checks the executive across iteration boundaries:
// a processor killed in iteration 1 must leave iteration 0 untouched and
// iterations 1..2 masked.
func TestLaterIterationKill(t *testing.T) {
	res, err := core.Run(genProblem(t, 21), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	seq := s.ProcSeq(0)
	if len(seq) == 0 {
		t.Skip("P1 hosts nothing on this seed")
	}
	victim := seq[0]
	r, err := Run(s, RunConfig{
		Iterations: 3,
		Kills:      []Kill{{Proc: 0, Task: victim.Task, Index: victim.Index, Iteration: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stalled || !r.Match() || !r.Complete(s.Tasks().Outputs()) {
		t.Errorf("later-iteration kill not masked (stalled=%v)", r.Stalled)
	}
}

func genProblem(t *testing.T, seed int64) *spec.Problem {
	t.Helper()
	p, err := gen.Generate(gen.Params{N: 14, CCR: 2, Procs: 3, Npf: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
