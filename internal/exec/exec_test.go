package exec

import (
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/model"
	"ftbar/internal/paperex"
	"ftbar/internal/sched"
	"ftbar/internal/spec"
)

func paperSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	res, err := core.Run(paperex.Problem(), core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return res.Schedule
}

func TestFaultFreeMatchesReference(t *testing.T) {
	s := paperSchedule(t)
	res, err := Run(s, RunConfig{Iterations: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stalled {
		t.Fatal("fault-free run stalled")
	}
	if !res.Match() {
		t.Errorf("outputs diverge from reference: %+v vs %+v", res.Outputs, res.Reference)
	}
	if !res.Complete(s.Tasks().Outputs()) {
		t.Error("missing outputs in fault-free run")
	}
}

func TestKillAtStartIsMasked(t *testing.T) {
	s := paperSchedule(t)
	for p := arch.ProcID(0); p < 3; p++ {
		res, err := Run(s, RunConfig{Iterations: 2, KillAtStart: []arch.ProcID{p}})
		if err != nil {
			t.Fatalf("Run kill P%d: %v", p+1, err)
		}
		if res.Stalled {
			t.Errorf("P%d dead from start: run stalled, want masking", p+1)
		}
		if !res.Match() {
			t.Errorf("P%d dead from start: wrong outputs", p+1)
		}
		if !res.Complete(s.Tasks().Outputs()) {
			t.Errorf("P%d dead from start: outputs missing", p+1)
		}
	}
}

func TestMidIterationKillIsMasked(t *testing.T) {
	s := paperSchedule(t)
	// Kill each processor right before its own third replica in
	// iteration 0; with Npf=1 every output must still appear with the
	// correct value.
	for p := arch.ProcID(0); p < 3; p++ {
		seq := s.ProcSeq(p)
		if len(seq) < 3 {
			continue
		}
		victim := seq[2]
		res, err := Run(s, RunConfig{
			Iterations: 2,
			Kills:      []Kill{{Proc: p, Task: victim.Task, Index: victim.Index, Iteration: 0}},
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Stalled || !res.Match() || !res.Complete(s.Tasks().Outputs()) {
			t.Errorf("mid-iteration kill of P%d not masked (stalled=%v)", p+1, res.Stalled)
		}
	}
}

func TestTwoKillsExceedNpfAndFail(t *testing.T) {
	s := paperSchedule(t)
	res, err := Run(s, RunConfig{
		Iterations:  1,
		KillAtStart: []arch.ProcID{0, 1},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// I cannot run on P3, so killing P1 and P2 must lose outputs, and P3
	// stops on a receive whose every copy died.
	if res.Complete(s.Tasks().Outputs()) || !res.Stalled {
		t.Errorf("two failures with Npf=1: complete=%v, stalled=%v; want outputs lost and a stall",
			res.Complete(s.Tasks().Outputs()), res.Stalled)
	}
}

func TestMemStateFlowsAcrossIterations(t *testing.T) {
	g := model.NewGraph()
	in := g.MustAddOp("in", model.ExtIO)
	ctl := g.MustAddOp("ctl", model.Comp)
	st := g.MustAddOp("st", model.Mem)
	out := g.MustAddOp("out", model.ExtIO)
	g.MustAddEdge(in, ctl)
	g.MustAddEdge(st, ctl)
	g.MustAddEdge(ctl, st)
	g.MustAddEdge(ctl, out)
	ar := arch.FullyConnected(3)
	exec, _ := spec.NewUniformExecTable(g, ar, 1)
	comm, _ := spec.NewUniformCommTable(g, ar, 0.5)
	p := &spec.Problem{Alg: g, Arc: ar, Exec: exec, Comm: comm, Npf: 1}
	schedRes, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	res, err := Run(schedRes.Schedule, RunConfig{Iterations: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Stalled || !res.Match() {
		t.Fatalf("mem run diverged (stalled=%v)", res.Stalled)
	}
	// The output value must change between iterations (the register state
	// evolves), and the reference agrees.
	tg := schedRes.Schedule.Tasks()
	var outTask model.TaskID = -1
	for id := 0; id < tg.NumTasks(); id++ {
		if tg.Task(model.TaskID(id)).Name == "out" {
			outTask = model.TaskID(id)
		}
	}
	v0 := res.Outputs[0][outTask]
	v1 := res.Outputs[1][outTask]
	v2 := res.Outputs[2][outTask]
	if v0 == v1 || v1 == v2 {
		t.Errorf("register state frozen: %q, %q, %q", v0, v1, v2)
	}
}

func TestMemSurvivesCrash(t *testing.T) {
	g := model.NewGraph()
	in := g.MustAddOp("in", model.ExtIO)
	ctl := g.MustAddOp("ctl", model.Comp)
	st := g.MustAddOp("st", model.Mem)
	out := g.MustAddOp("out", model.ExtIO)
	g.MustAddEdge(in, ctl)
	g.MustAddEdge(st, ctl)
	g.MustAddEdge(ctl, st)
	g.MustAddEdge(ctl, out)
	ar := arch.FullyConnected(3)
	exec, _ := spec.NewUniformExecTable(g, ar, 1)
	comm, _ := spec.NewUniformCommTable(g, ar, 0.5)
	p := &spec.Problem{Alg: g, Arc: ar, Exec: exec, Comm: comm, Npf: 1}
	schedRes, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	for proc := arch.ProcID(0); proc < 3; proc++ {
		res, err := Run(schedRes.Schedule, RunConfig{Iterations: 3, KillAtStart: []arch.ProcID{proc}})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Stalled || !res.Match() || !res.Complete(schedRes.Schedule.Tasks().Outputs()) {
			t.Errorf("mem crash of P%d not masked (stalled=%v)", proc+1, res.Stalled)
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	s := paperSchedule(t)
	if _, err := Run(s, RunConfig{Iterations: -1}); err == nil {
		t.Error("negative iterations accepted")
	}
	if _, err := Run(s, RunConfig{KillAtStart: []arch.ProcID{9}}); err == nil {
		t.Error("unknown processor accepted")
	}
	if _, err := Run(s, RunConfig{Kills: []Kill{{Proc: 0, Iteration: 5}}}); err == nil {
		t.Error("kill beyond iterations accepted")
	}
}

func TestReferenceDeterministic(t *testing.T) {
	s := paperSchedule(t)
	a := Reference(s, 2)
	b := Reference(s, 2)
	for iter := range a {
		for task, v := range a[iter] {
			if b[iter][task] != v {
				t.Fatalf("reference not deterministic at iter %d task %d", iter, task)
			}
		}
	}
	// Iterations differ (source values embed the iteration).
	tg := s.Tasks()
	var o model.TaskID = -1
	for id := 0; id < tg.NumTasks(); id++ {
		if tg.Task(model.TaskID(id)).Name == "O" {
			o = model.TaskID(id)
		}
	}
	if a[0][o] == a[1][o] {
		t.Error("output value identical across iterations")
	}
}

func TestValueHelpers(t *testing.T) {
	if sourceValue("I", 3) != "I@3" {
		t.Errorf("sourceValue = %q", sourceValue("I", 3))
	}
	if initValue("st") != "init:st" {
		t.Errorf("initValue = %q", initValue("st"))
	}
	a := compValue("F", 1, []edgeValue{{2, "x"}, {1, "y"}})
	b := compValue("F", 1, []edgeValue{{1, "y"}, {2, "x"}})
	if a != b {
		t.Error("compValue order-sensitive")
	}
	c := compValue("F", 2, []edgeValue{{1, "y"}, {2, "x"}})
	if a == c {
		t.Error("compValue ignores iteration")
	}
}
