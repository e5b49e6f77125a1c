package sim

import (
	"errors"
	"math"
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

func TestFaultFreeMatchesRecordedTimes(t *testing.T) {
	s := paperSchedule(t)
	res, err := Run(s, Scenario{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ir := res.Iterations[0]
	if !ir.OutputsOK {
		t.Error("fault-free run lost outputs")
	}
	if ir.Dead != 0 {
		t.Errorf("fault-free run marked %d replicas dead", ir.Dead)
	}
	if math.Abs(ir.Makespan-s.Length()) > 1e-9 {
		t.Errorf("fault-free makespan %g != schedule length %g", ir.Makespan, s.Length())
	}
	// Every replica must execute exactly at its recorded window.
	tg := s.Tasks()
	for task := 0; task < tg.NumTasks(); task++ {
		for _, r := range s.Replicas(model.TaskID(task)) {
			start, end, ok := ir.ReplicaWindow(r.Task, r.Index)
			if !ok {
				t.Fatalf("replica %q#%d did not execute", tg.Task(r.Task).Name, r.Index)
			}
			if math.Abs(start-r.Start) > 1e-9 || math.Abs(end-r.End) > 1e-9 {
				t.Errorf("replica %q#%d executed [%g,%g], recorded [%g,%g]",
					tg.Task(r.Task).Name, r.Index, start, end, r.Start, r.End)
			}
		}
	}
}

// TestPaperCrashRetimings is the Figure 8 experiment: fail each processor
// at time 0 and check the re-timed makespans. The paper reports
// 15.35 / 15.05 / 12.6 for its 15.05-long schedule; this implementation's
// schedule is shorter (13.05), so the pinned values differ, but the shape
// holds: the makespan stays bounded, outputs survive, and losing the most
// loaded processor can even shorten the horizon.
func TestPaperCrashRetimings(t *testing.T) {
	s := paperSchedule(t)
	want := map[arch.ProcID]struct {
		paper float64
	}{
		0: {paperex.CrashLengthP1},
		1: {paperex.CrashLengthP2},
		2: {paperex.CrashLengthP3},
	}
	for p := arch.ProcID(0); p < 3; p++ {
		res, err := CrashAtZero(s, p)
		if err != nil {
			t.Fatalf("CrashAtZero(P%d): %v", p+1, err)
		}
		ir := res.Iterations[0]
		if !ir.OutputsOK {
			t.Errorf("P%d crash: outputs lost (Npf=1 must mask one failure)", p+1)
		}
		t.Logf("P%d crash makespan = %g (paper: %g)", p+1, ir.Makespan, want[p].paper)
		// Within Rtc in every crash case, like the paper's example.
		if ir.Makespan > paperex.Rtc {
			t.Errorf("P%d crash makespan %g exceeds Rtc %g", p+1, ir.Makespan, paperex.Rtc)
		}
	}
}

func TestCrashMasksAllSingleFailures(t *testing.T) {
	s := paperSchedule(t)
	reports, err := SingleFailureSweep(s)
	if err != nil {
		t.Fatalf("SingleFailureSweep: %v", err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports, want 3", len(reports))
	}
	for _, r := range reports {
		if !r.Masked {
			t.Errorf("P%d: some crash instant lost outputs", r.Proc+1)
		}
		if r.WorstMakespan < s.Length()-3 {
			t.Errorf("P%d: worst makespan %g implausibly small", r.Proc+1, r.WorstMakespan)
		}
	}
	worst, err := WorstSingleFailureMakespan(s)
	if err != nil {
		t.Fatal(err)
	}
	if worst > paperex.Rtc {
		t.Errorf("worst single-failure makespan %g exceeds Rtc %g", worst, paperex.Rtc)
	}
	if worst < s.Length() {
		t.Errorf("worst %g below fault-free length %g", worst, s.Length())
	}
}

func TestDoubleFailureBreaksNpf1(t *testing.T) {
	// Npf=1 cannot mask two failures: with two processors dead at time 0
	// on a 3-processor architecture, some outputs must be lost or only the
	// surviving processor's replicas run.
	s := paperSchedule(t)
	res, err := Run(s, Scenario{Failures: []Failure{Permanent(0, 0), Permanent(1, 0)}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ir := res.Iterations[0]
	// O runs on P1/P3 or P3 only; I is forbidden on P3, so with P1 and P2
	// dead the input can never be produced: masking must fail.
	if ir.OutputsOK {
		t.Error("two failures masked with Npf=1; expected loss")
	}
}

func TestNonFTScheduleLosesOutputsOnCrash(t *testing.T) {
	res, err := core.NonFT(paperex.Problem())
	if err != nil {
		t.Fatal(err)
	}
	lost := false
	for p := arch.ProcID(0); p < 3; p++ {
		sim, err := CrashAtZero(res.Schedule, p)
		if err != nil {
			t.Fatalf("CrashAtZero: %v", err)
		}
		if !sim.Iterations[0].OutputsOK {
			lost = true
		}
	}
	if !lost {
		t.Error("non-fault-tolerant schedule survived every crash; replication must matter")
	}
}

func TestIntermittentFailureDelaysButRecovers(t *testing.T) {
	// A short hiccup on P1 must not lose outputs and can only delay.
	s := paperSchedule(t)
	res, err := Run(s, Scenario{Failures: []Failure{Intermittent(0, 0.5, 2.0)}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ir := res.Iterations[0]
	if !ir.OutputsOK {
		t.Error("intermittent failure lost outputs")
	}
	if ir.Makespan < s.Length()-1e-9 {
		t.Errorf("makespan %g shorter than fault-free %g", ir.Makespan, s.Length())
	}
	// P1's first replica starts only after recovery.
	first := s.ProcSeq(0)[0]
	start, _, ok := ir.ReplicaWindow(first.Task, first.Index)
	if !ok {
		t.Fatal("P1's first replica never ran")
	}
	if start < 2.0 {
		t.Errorf("P1's first replica started at %g, want >= 2 (after recovery)", start)
	}
}

func TestMultiIterationPipelines(t *testing.T) {
	s := paperSchedule(t)
	res, err := Run(s, Scenario{Iterations: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Iterations) != 3 {
		t.Fatalf("got %d iterations", len(res.Iterations))
	}
	prev := 0.0
	for _, ir := range res.Iterations {
		if !ir.OutputsOK {
			t.Errorf("iteration %d lost outputs", ir.Index)
		}
		if ir.Makespan <= prev {
			t.Errorf("iteration %d makespan %g not after previous %g", ir.Index, ir.Makespan, prev)
		}
		prev = ir.Makespan
	}
	if res.Makespan() != prev {
		t.Errorf("Makespan() = %g, want %g", res.Makespan(), prev)
	}
}

func TestCrashInLaterIterationOnlyAffectsLaterWork(t *testing.T) {
	s := paperSchedule(t)
	free, err := Run(s, Scenario{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Crash P2 after the first iteration completes.
	at := free.Iterations[0].Makespan + 0.01
	res, err := Run(s, Scenario{Iterations: 2, Failures: []Failure{Permanent(1, at)}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Iterations[0].Makespan, free.Iterations[0].Makespan; math.Abs(got-want) > 1e-9 {
		t.Errorf("iteration 0 makespan changed: %g vs %g", got, want)
	}
	if !res.AllOutputsOK() {
		t.Error("late crash lost outputs despite Npf=1")
	}
}

func TestDetectionDropsCommsInLaterIterations(t *testing.T) {
	s := paperSchedule(t)
	kill := Permanent(0, 0)
	none, err := Run(s, Scenario{Iterations: 3, Failures: []Failure{kill}, Detection: DetectionNone})
	if err != nil {
		t.Fatal(err)
	}
	det, err := Run(s, Scenario{Iterations: 3, Failures: []Failure{kill}, Detection: DetectionExpected})
	if err != nil {
		t.Fatal(err)
	}
	if !none.AllOutputsOK() || !det.AllOutputsOK() {
		t.Fatal("single failure not masked")
	}
	lastNone := none.Iterations[2]
	lastDet := det.Iterations[2]
	if lastDet.Delivered >= lastNone.Delivered {
		t.Errorf("detection delivered %d comms, no-detection %d; dropping should reduce traffic",
			lastDet.Delivered, lastNone.Delivered)
	}
	if lastDet.Makespan > lastNone.Makespan+1e-9 {
		t.Errorf("detection makespan %g worse than no-detection %g", lastDet.Makespan, lastNone.Makespan)
	}
}

func TestScenarioValidate(t *testing.T) {
	a := arch.FullyConnected(2)
	cases := []struct {
		name string
		sc   Scenario
		want error
	}{
		{"ok", Scenario{Failures: []Failure{Permanent(0, 1)}}, nil},
		{"unknown proc", Scenario{Failures: []Failure{Permanent(9, 1)}}, ErrUnknownProc},
		{"negative at", Scenario{Failures: []Failure{Permanent(0, -1)}}, ErrBadFailure},
		{"empty window", Scenario{Failures: []Failure{Intermittent(0, 2, 2)}}, ErrBadFailure},
		{"NaN at", Scenario{Failures: []Failure{Permanent(0, math.NaN())}}, ErrBadFailure},
		{"NaN until", Scenario{Failures: []Failure{Intermittent(0, 0, math.NaN())}}, ErrBadFailure},
		{"bad iterations", Scenario{Iterations: -1}, ErrBadIteration},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate(a)
			if tc.want == nil && err != nil {
				t.Errorf("Validate = %v, want nil", err)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("Validate = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDownIntervalsWindow(t *testing.T) {
	iv := downIntervals{{2, 4}, {6, math.Inf(1)}}
	cases := []struct {
		t0, d  float64
		want   float64
		wantOK bool
	}{
		{0, 1, 0, true},    // fits before first outage
		{0, 2, 0, true},    // exactly touches the outage start
		{1, 2, 4, true},    // pushed past the first outage
		{2.5, 1, 4, true},  // starts inside the outage
		{4, 2, 4, true},    // fits between outages
		{4, 3, 0, false},   // cannot finish before the permanent outage
		{7, 0.1, 0, false}, // starts after the permanent outage
	}
	for i, tc := range cases {
		got, ok := iv.window(tc.t0, tc.d)
		if ok != tc.wantOK || (ok && math.Abs(got-tc.want) > 1e-12) {
			t.Errorf("case %d: window(%g,%g) = (%g,%v), want (%g,%v)",
				i, tc.t0, tc.d, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestDownIntervalsMerge(t *testing.T) {
	iv := buildDownIntervals(1, []Failure{
		Intermittent(0, 1, 3),
		Intermittent(0, 2, 5),
		Intermittent(0, 7, 8),
	})[0]
	if len(iv) != 2 {
		t.Fatalf("merged intervals = %v, want 2", iv)
	}
	if iv[0] != [2]float64{1, 5} || iv[1] != [2]float64{7, 8} {
		t.Errorf("merged = %v, want [[1,5],[7,8]]", iv)
	}
}

func TestOpCompletionUnderCrash(t *testing.T) {
	s := paperSchedule(t)
	res, err := CrashAtZero(s, 2) // P3 dies; O still produced on P1
	if err != nil {
		t.Fatal(err)
	}
	opO, _ := s.Problem().Alg.OpByName("O")
	if c := res.Iterations[0].OpCompletion(opO.ID); math.IsInf(c, 1) {
		t.Error("O not produced under single failure")
	}
	opI, _ := s.Problem().Alg.OpByName("I")
	if c := res.Iterations[0].OpCompletion(opI.ID); math.IsInf(c, 1) {
		t.Error("I not produced under single failure")
	}
}

// memProblem builds a feedback loop through a register and returns its
// FTBAR schedule.
func memSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
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
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return res.Schedule
}

func TestMemScheduleSimulatesOverIterations(t *testing.T) {
	s := memSchedule(t)
	res, err := Run(s, Scenario{Iterations: 3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllOutputsOK() {
		t.Error("mem schedule lost outputs")
	}
}

func TestMemScheduleSurvivesCrash(t *testing.T) {
	s := memSchedule(t)
	for p := arch.ProcID(0); p < 3; p++ {
		res, err := Run(s, Scenario{Iterations: 2, Failures: []Failure{Permanent(p, 0)}})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !res.AllOutputsOK() {
			t.Errorf("crash of P%d lost outputs on mem schedule", p+1)
		}
	}
}
