package exec

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/sched"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
)

// agreementSchedules plans the schedules that TestExecAgreesWithSimOnMasking
// and TestRelayKilledMidRunIsMasked run: 12-task problems on three fully connected processors at {1,0}, and
// 16-task layered problems on sparse layouts of 4 to 9 processors at {1,0}
// and {1,1}, whose deliveries relay through third processors. The planner
// refuses every star layout at {1,1} (ErrNoProcessorChoice), and those
// shapes are left out; any other failure to generate or plan is fatal.
func agreementSchedules(t *testing.T) (names []string, out []*sched.Schedule) {
	t.Helper()
	add := func(name string, p gen.Params) {
		t.Helper()
		prob, err := gen.Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := core.Run(prob, core.Options{})
		if p.Topology == gen.TopoStar && p.Nmf == 1 && errors.Is(err, core.ErrNoProcessorChoice) {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, out = append(names, name), append(out, res.Schedule)
	}
	for seed := int64(1); seed <= 6; seed++ {
		add(fmt.Sprintf("full3 seed %d", seed), gen.Params{N: 12, CCR: 1, Procs: 3, Npf: 1, Seed: seed})
	}
	topos := []gen.Topology{gen.TopoRing, gen.TopoMesh, gen.TopoTorus, gen.TopoHypercube, gen.TopoStar, gen.TopoGeom}
	for _, topo := range topos {
		for _, procs := range []int{4, 6, 8, 9} {
			for nmf := 0; nmf <= 1; nmf++ {
				for seed := int64(1); seed <= 2; seed++ {
					add(fmt.Sprintf("%s%d {1,%d} seed %d", topo, procs, nmf, seed), gen.Params{
						N: 16, CCR: 1, Procs: procs, Topology: topo, Npf: 1, Nmf: nmf, Seed: seed})
				}
			}
		}
	}
	return names, out
}

// relays reports whether a delivery of s passes through a third processor.
func relays(s *sched.Schedule) bool {
	for _, c := range s.Deliveries().Comms {
		if c.Hop > 0 {
			return true
		}
	}
	return false
}

// TestExecAgreesWithSimOnMasking cross-checks the two execution engines:
// for every schedule of agreementSchedules and every dead-from-start
// processor, the goroutine executive produces every output exactly when
// the simulator reports the crash masked, and every value it produces
// equals the sequential reference. A hop whose sender is dead passes
// nothing on in both, at a relay as at the producer. A run that masks the
// crash may still stall, because a replica on a branch that feeds no
// output can block forever, so Stalled and Match are not compared. A
// finished run takes a few milliseconds even under the race detector; the
// short timeout bounds the stalled ones, which wait sixteen at a time, and
// a disagreement is confirmed with the default timeout, so a run cut short
// on a loaded machine cannot fail the test.
func TestExecAgreesWithSimOnMasking(t *testing.T) {
	names, schedules := agreementSchedules(t)
	type run struct {
		name string
		s    *sched.Schedule
		proc arch.ProcID
	}
	var runs []run
	relayed := 0
	for i, s := range schedules {
		for p := 0; p < s.Problem().Arc.NumProcs(); p++ {
			runs = append(runs, run{names[i], s, arch.ProcID(p)})
		}
		if relays(s) {
			relayed++
		}
	}
	if len(schedules) != 94 || relayed != 78 {
		t.Fatalf("%d schedules, %d of them relay a delivery; want 94 and 78", len(schedules), relayed)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for _, r := range runs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			simRes, err := sim.CrashAtZero(r.s, r.proc)
			if err != nil {
				t.Errorf("%s: sim: %v", r.name, err)
				return
			}
			simOK := simRes.Iterations[0].OutputsOK
			execRes, err := Run(r.s, RunConfig{KillAtStart: []arch.ProcID{r.proc}, Timeout: 250 * time.Millisecond})
			if err == nil && execRes.Complete(r.s.Tasks().Outputs()) != simOK {
				execRes, err = Run(r.s, RunConfig{KillAtStart: []arch.ProcID{r.proc}})
			}
			if err != nil {
				t.Errorf("%s: exec: %v", r.name, err)
				return
			}
			execOK := execRes.Complete(r.s.Tasks().Outputs())
			if simOK != execOK {
				t.Errorf("%s, crash P%d: sim masked=%v, exec masked=%v (stalled=%v)",
					r.name, r.proc+1, simOK, execOK, execRes.Stalled)
			}
			if !execOK {
				return
			}
			for task, got := range execRes.Outputs[0] {
				if want := execRes.Reference[0][task]; got != want {
					t.Errorf("%s, crash P%d: output %d is %q, reference %q", r.name, r.proc+1, task, got, want)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d schedules (%d relay a delivery), %d runs", len(schedules), relayed, len(runs))
}

// TestRelayKilledMidRunIsMasked kills relays mid-run on the schedules of
// agreementSchedules: every processor that forwards a hop, hosts a
// replica, and whose death from the start the simulator masks in both of
// two iterations dies before the middle replica of its program in
// iteration 1. Which of its forwards of iteration 0 still pass depends on
// goroutine timing (a medium checks the relay when the previous hop's
// message arrives), but every copy it can drop is one its death from the
// start drops too, so each run must produce every output of both
// iterations with the reference values.
func TestRelayKilledMidRunIsMasked(t *testing.T) {
	names, schedules := agreementSchedules(t)
	type run struct {
		name string
		s    *sched.Schedule
		kill Kill
	}
	var runs []run
	for i, s := range schedules {
		relay := make([]bool, s.Problem().Arc.NumProcs())
		for _, c := range s.Deliveries().Comms {
			if c.Hop > 0 {
				relay[c.From] = true
			}
		}
		for p, forwards := range relay {
			seq := s.ProcSeq(arch.ProcID(p))
			if !forwards || len(seq) == 0 {
				continue
			}
			simRes, err := sim.Run(s, sim.Scenario{Failures: []sim.Failure{sim.Permanent(arch.ProcID(p), 0)}, Iterations: 2})
			if err != nil {
				t.Fatalf("%s: sim: %v", names[i], err)
			}
			if !simRes.AllOutputsOK() {
				continue
			}
			victim := seq[len(seq)/2]
			runs = append(runs, run{names[i], s, Kill{Proc: arch.ProcID(p), Task: victim.Task, Index: victim.Index, Iteration: 1}})
		}
	}
	if len(runs) != 247 {
		t.Fatalf("%d relay kills, want 247", len(runs))
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	for _, r := range runs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			outputs := r.s.Tasks().Outputs()
			cfg := RunConfig{Iterations: 2, Kills: []Kill{r.kill}, Timeout: 250 * time.Millisecond}
			res, err := Run(r.s, cfg)
			if err == nil && !res.Complete(outputs) {
				cfg.Timeout = 0
				res, err = Run(r.s, cfg)
			}
			if err != nil {
				t.Errorf("%s: exec: %v", r.name, err)
				return
			}
			if !res.Complete(outputs) {
				t.Errorf("%s, P%d killed in iteration 1: outputs missing (stalled=%v)", r.name, r.kill.Proc+1, res.Stalled)
			}
			for iter := range res.Outputs {
				for task, got := range res.Outputs[iter] {
					if want := res.Reference[iter][task]; got != want {
						t.Errorf("%s, P%d killed in iteration 1: iteration %d output %d is %q, reference %q",
							r.name, r.kill.Proc+1, iter, task, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d relay kills", len(runs))
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
