package exec

import (
	"errors"
	"fmt"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/model"
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

// disagreements runs the executive and the simulator over iters
// iterations with the dead processors failed from the start, and lists
// every way they differ: an iteration's set of produced output tasks
// (equal sets give equal Complete and OutputsOK), Stalled against "a
// replica on a live processor never ran", and any output value that
// differs from the sequential reference.
func disagreements(s *sched.Schedule, dead []arch.ProcID, iters int) ([]string, error) {
	failures := make([]sim.Failure, len(dead))
	isDead := make([]bool, s.Problem().Arc.NumProcs())
	for i, p := range dead {
		failures[i], isDead[p] = sim.Permanent(p, 0), true
	}
	simRes, err := sim.Run(s, sim.Scenario{Failures: failures, Iterations: iters})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	res, err := Run(s, RunConfig{Iterations: iters, KillAtStart: dead})
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	var out []string
	tg := s.Tasks()
	stuck := false
	for k := range simRes.Iterations {
		ir := &simRes.Iterations[k]
		produced := make(map[model.TaskID]bool)
		for t := 0; t < tg.NumTasks(); t++ {
			for _, r := range s.Replicas(model.TaskID(t)) {
				if _, _, ok := ir.ReplicaWindow(r.Task, r.Index); ok {
					produced[r.Task] = true
				} else if !isDead[r.Proc] {
					stuck = true
				}
			}
		}
		for _, t := range tg.Outputs() {
			if _, got := res.Outputs[k][t]; got != produced[t] {
				out = append(out, fmt.Sprintf("iteration %d: output %s produced by sim %v, by exec %v",
					k, tg.Task(t).Name, produced[t], got))
			}
		}
		for t, got := range res.Outputs[k] {
			if want := res.Reference[k][t]; got != want {
				out = append(out, fmt.Sprintf("iteration %d: output %s is %q, reference %q", k, tg.Task(t).Name, got, want))
			}
		}
	}
	if res.Stalled != stuck {
		out = append(out, fmt.Sprintf("exec stalled %v, sim left a replica of a live processor unrun %v", res.Stalled, stuck))
	}
	return out, nil
}

// TestExecAgreesWithSimOnMasking cross-checks the two execution engines:
// for every schedule of agreementSchedules and every dead-from-start
// processor, over one and over two iterations, the goroutine executive
// produces the same output tasks as the simulator in every iteration,
// stalls exactly when the simulator leaves a replica of a live processor
// unrun, and every value it produces equals the sequential reference. A
// hop whose sender is dead passes nothing on in both, at a relay as at
// the producer, and a processor whose input lost every copy runs nothing
// more, in that iteration or any later one.
func TestExecAgreesWithSimOnMasking(t *testing.T) {
	names, schedules := agreementSchedules(t)
	relayed, runs := 0, 0
	for i, s := range schedules {
		if relays(s) {
			relayed++
		}
		for p := 0; p < s.Problem().Arc.NumProcs(); p++ {
			runs++
			for iters := 1; iters <= 2; iters++ {
				diffs, err := disagreements(s, []arch.ProcID{arch.ProcID(p)}, iters)
				if err != nil {
					t.Fatalf("%s, P%d dead: %v", names[i], p+1, err)
				}
				for _, d := range diffs {
					t.Errorf("%s, P%d dead, %d iterations: %s", names[i], p+1, iters, d)
				}
			}
		}
	}
	if len(schedules) != 94 || relayed != 78 || runs != 612 {
		t.Fatalf("%d schedules, %d of them relay a delivery, %d runs; want 94, 78 and 612",
			len(schedules), relayed, runs)
	}
	t.Logf("%d schedules (%d relay a delivery), %d runs", len(schedules), relayed, runs)
}

// TestExecAgreesWithSimOnLargerLayouts makes the comparison of
// TestExecAgreesWithSimOnMasking over two iterations on larger relayed
// layouts, 228 dead-from-start runs: 60-, 100- and 200-task problems on
// mesh9 and 70-task ones on ring8 at {1,0}; 100-task problems on mesh16
// and hypercube16 and 60-task ones on torus9 at {1,1}; layered, CCR 1,
// seeds 1 to 3. Here a crash leaves processors stuck ahead of many later
// comms, so a medium that waited on a stuck producer's hop-0 comm would
// lose every later comm of its sequence.
func TestExecAgreesWithSimOnLargerLayouts(t *testing.T) {
	shapes := []gen.Params{
		{Topology: gen.TopoMesh, Procs: 9, N: 60}, {Topology: gen.TopoMesh, Procs: 9, N: 100},
		{Topology: gen.TopoMesh, Procs: 9, N: 200}, {Topology: gen.TopoRing, Procs: 8, N: 70},
		{Topology: gen.TopoMesh, Procs: 16, N: 100, Nmf: 1}, {Topology: gen.TopoHypercube, Procs: 16, N: 100, Nmf: 1},
		{Topology: gen.TopoTorus, Procs: 9, N: 60, Nmf: 1},
	}
	runs := 0
	for _, p := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			p.CCR, p.Npf, p.Seed = 1, 1, seed
			name := fmt.Sprintf("%s%d %d tasks {1,%d} seed %d", p.Topology, p.Procs, p.N, p.Nmf, seed)
			prob, err := gen.Generate(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := core.Run(prob, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for proc := 0; proc < p.Procs; proc++ {
				runs++
				diffs, err := disagreements(res.Schedule, []arch.ProcID{arch.ProcID(proc)}, 2)
				if err != nil {
					t.Fatalf("%s, P%d dead: %v", name, proc+1, err)
				}
				for _, d := range diffs {
					t.Errorf("%s, P%d dead: %s", name, proc+1, d)
				}
			}
		}
	}
	if runs != 228 {
		t.Fatalf("%d runs, want 228", runs)
	}
}

// FuzzExecAgainstSim makes the comparison of TestExecAgreesWithSimOnMasking
// on a generated layered problem of 8 to 16 tasks (CCR 1) on any
// topology with 3 to 9 processors at {1,0} or {1,1}, with any set of
// processors dead from the start (bit i of dead kills processor i), over
// one or two iterations. Problems the generator or the planner refuses
// are skipped.
func FuzzExecAgainstSim(f *testing.F) {
	f.Add(uint8(gen.TopoRing), uint8(8), uint8(5), false, int64(2), uint16(1<<3), uint8(1))
	f.Add(uint8(gen.TopoMesh), uint8(16), uint8(6), true, int64(1), uint16(1), uint8(1))
	f.Add(uint8(gen.TopoTorus), uint8(4), uint8(6), true, int64(3), uint16(0b110), uint8(0))
	f.Add(uint8(gen.TopoFull), uint8(0), uint8(0), false, int64(5), uint16(0), uint8(1))
	f.Fuzz(func(t *testing.T, topo, n, procs uint8, nmf bool, seed int64, dead uint16, iters uint8) {
		p := gen.Params{N: 8 + int(n%9), CCR: 1, Procs: 3 + int(procs%7), Npf: 1, Seed: seed,
			Topology: gen.Topologies()[int(topo)%len(gen.Topologies())]}
		if nmf {
			p.Nmf = 1
		}
		prob, err := gen.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		res, err := core.Run(prob, core.Options{})
		if err != nil {
			t.Skip(err)
		}
		var killed []arch.ProcID
		for proc := 0; proc < p.Procs; proc++ {
			if dead&(1<<proc) != 0 {
				killed = append(killed, arch.ProcID(proc))
			}
		}
		diffs, err := disagreements(res.Schedule, killed, 1+int(iters%2))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diffs {
			t.Errorf("%+v, dead %v: %s", p, killed, d)
		}
	})
}

// TestRunRefusesUnorderedWiring corrupts a hop-0 comm through the
// schedule's view so that its SrcIndex names no replica: the wiring then
// has no dependency order, and Run refuses it before starting any unit.
func TestRunRefusesUnorderedWiring(t *testing.T) {
	s := paperSchedule(t)
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		for _, c := range s.MediumSeq(arch.MediumID(m)) {
			if c.Hop == 0 {
				c.SrcIndex = 9
				if _, err := Run(s, RunConfig{Iterations: 2}); !errors.Is(err, ErrNoOrder) {
					t.Fatalf("Run = %v, want ErrNoOrder", err)
				}
				return
			}
		}
	}
	t.Fatal("no hop-0 comm to corrupt")
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
	for _, r := range runs {
		outputs := r.s.Tasks().Outputs()
		res, err := Run(r.s, RunConfig{Iterations: 2, Kills: []Kill{r.kill}})
		if err != nil {
			t.Fatalf("%s: exec: %v", r.name, err)
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
	}
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
