package core

import (
	"errors"
	"testing"
	"time"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/paperex"
	"ftbar/internal/sched"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
)

// TestDifferentialFaultModel extends the engine-differential property to
// the unified fault budget: with Nmf >= 1 the planner's replica-aware
// media selection is active, and both engines must still produce
// bit-identical decision logs.
func TestDifferentialFaultModel(t *testing.T) {
	for _, topo := range []gen.Topology{gen.TopoFull, gen.TopoDualBus, gen.TopoRing} {
		for npf := 1; npf <= 2; npf++ {
			for seed := int64(1); seed <= 3; seed++ {
				p, err := gen.Generate(gen.Params{
					N: 12 + int(seed)*5, CCR: 1.5, Procs: 4, Topology: topo,
					Npf: npf, Nmf: 1, Seed: 4200*int64(topo) + 70*int64(npf) + seed,
				})
				if err != nil {
					t.Fatalf("generate %s npf=%d seed=%d: %v", topo, npf, seed, err)
				}
				t.Run(topo.String(), func(t *testing.T) {
					assertEnginesAgree(t, p, Options{})
				})
			}
		}
	}
}

// TestPaperExampleWithLinkBudget pins the flagship configuration of the
// faults-smoke CI job: the paper's worked example under Nmf = 1
// schedules, validates (media diversity included) and masks every
// single-link failure.
func TestPaperExampleWithLinkBudget(t *testing.T) {
	p := paperex.Problem()
	fm := p.FaultModel()
	fm.Nmf = 1
	p.SetFaults(fm)
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	reports, err := sim.SingleLinkFailureSweep(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Masked {
			t.Errorf("link %d not masked", r.Medium)
		}
	}
}

// TestPaperExampleOnRingWithLinkBudget pins the flagship configuration of
// the ring-smoke CI job: the paper's worked example re-hosted on a 4-ring
// under Npf = 1, Nmf = 1 schedules on both engines with bit-identical
// decision logs, validates, and masks every single-link crash. Under the
// joint planner (PR 5) the crash-separated placement puts replica pairs
// on non-adjacent processors, every delivery chain is relay-free, and the
// schedule carries the joint-survivability certificate.
func TestPaperExampleOnRingWithLinkBudget(t *testing.T) {
	p := paperex.ProblemOn(arch.Ring(4))
	p.SetFaults(spec.FaultModel{Npf: 1, Nmf: 1})
	assertEnginesAgree(t, p, Options{})
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.ValidateJoint(); err != nil {
		t.Fatalf("ring schedule missing the joint certificate: %v", err)
	}
	reports, err := sim.SingleLinkFailureSweep(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Masked {
			t.Errorf("ring link %d not masked", r.Medium)
		}
	}
}

// TestCacheAwareSelectionSkips proves the cache-aware screen actually
// fires on a non-trivial problem — candidates with still-valid cached
// pressures below the running winner are skipped without previews — while
// the decision log stays bit-identical to the reference engine's (the
// skip-safety argument of selectCandidate). Every decision takes its own
// prepare/select round, and the retired batch counters stay 0.
func TestCacheAwareSelectionSkips(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 60, CCR: 2, Procs: 5, Npf: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracleRun(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameSteps(t, ref.Steps, inc.Steps)
	if ref.Planner.PreviewsScreened != 0 {
		t.Errorf("reference engine reports %d skips", ref.Planner.PreviewsScreened)
	}
	if inc.Planner.PreviewsScreened == 0 {
		t.Errorf("cache-aware selection never skipped a candidate")
	}
	for _, res := range []*Result{ref, inc} {
		if res.Planner.Rounds != len(res.Steps) {
			t.Errorf("%d rounds for %d decisions", res.Planner.Rounds, len(res.Steps))
		}
		if res.Planner.BatchedCommits != 0 || res.Planner.BatchFallbacks != 0 {
			t.Errorf("retired batch counters read %d and %d",
				res.Planner.BatchedCommits, res.Planner.BatchFallbacks)
		}
	}
}

// TestSigmaCacheMediumBoundInvalidation pins the medium-bound
// invalidation path: a cached pressure whose preview planned a comm on a
// medium goes stale the moment a commit grows that medium's busy-end past
// the comm's recorded start (sched.MediumBound), while entries that never
// touched it survive. A shared bus makes the dependency set obvious:
// every remote preview plans a comm on BUS, local ones touch nothing.
func TestSigmaCacheMediumBoundInvalidation(t *testing.T) {
	g := model.NewGraph()
	src := g.MustAddOp("src", model.Comp)
	a := g.MustAddOp("a", model.Comp)
	b := g.MustAddOp("b", model.Comp)
	g.MustAddEdge(src, a)
	g.MustAddEdge(src, b)
	ar := arch.Bus(3)
	exec, err := spec.NewUniformExecTable(g, ar, 1)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := spec.NewUniformCommTable(g, ar, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p := &spec.Problem{Alg: g, Arc: ar, Exec: exec, Comm: comm}
	s, err := sched.NewSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	tg := s.Tasks()
	sch := &scheduler{
		s: s, tg: tg, p: p, fm: p.FaultModel(),
		tails: Tails(p, tg, false),
		done:  make([]bool, tg.NumTasks()),
	}
	c := newSigmaCache(sch)
	srcT, aT, bT := tg.TaskOf(src), tg.TaskOf(a), tg.TaskOf(b)
	if _, err := s.PlaceReplica(srcT, 0); err != nil {
		t.Fatal(err)
	}
	sch.done[srcT] = true

	cands := []model.TaskID{aT, bT}
	c.prepare(cands)
	c.ensure(aT)
	c.ensure(bT)
	for _, tid := range cands {
		for proc := 0; proc < 3; proc++ {
			if !c.revalidate(tid, arch.ProcID(proc)) {
				t.Fatalf("entry (%d, %d) not valid after ensure", tid, proc)
			}
		}
	}
	// Committing a on P2 sends src->a over the bus, past the start of
	// every comm b's remote previews planned there: those entries must
	// invalidate. b's local placement on P1 (next to src, no media
	// touched) must survive, as the invalidation is keyed on exactly the
	// planned media, not on any commit.
	if _, err := s.PlaceReplica(aT, 1); err != nil {
		t.Fatal(err)
	}
	if c.revalidate(bT, 1) || c.revalidate(bT, 2) {
		t.Errorf("remote entries of b survived a bus commit")
	}
	if !c.revalidate(bT, 0) {
		t.Errorf("local entry of b invalidated without cause")
	}
}

// TestCrashSeparatedPlacementOnRing pins the placement half of the joint
// planner: under {Npf=1, Nmf=1} on a 4-ring every task's replica pair
// lands on non-adjacent processors (no PairCutVulnerable pair), which is
// what lifts the combined-masked fraction to 1.0 in BENCH_combined.json.
func TestCrashSeparatedPlacementOnRing(t *testing.T) {
	ring := arch.Ring(4)
	vuln := ring.PairCutMatrix()
	p, err := gen.Generate(gen.Params{
		N: 20, CCR: 1, Procs: 4, Topology: gen.TopoRing, Npf: 1, Nmf: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tg := res.Schedule.Tasks()
	for ti := 0; ti < tg.NumTasks(); ti++ {
		reps := res.Schedule.Replicas(model.TaskID(ti))
		// Minimize-start-time may add extra replicas beyond the
		// crash-separated mandatory set; extra copies only widen the
		// masking, so the invariant is that SOME non-vulnerable pair
		// exists, not that every pair is separated.
		separated := false
		for i := 0; i < len(reps) && !separated; i++ {
			for j := i + 1; j < len(reps); j++ {
				if !vuln[reps[i].Proc][reps[j].Proc] {
					separated = true
					break
				}
			}
		}
		if !separated {
			t.Errorf("task %q has no crash-separated replica pair (procs %v)",
				tg.Task(model.TaskID(ti)).Name, reps)
		}
	}
	if err := res.Schedule.ValidateJoint(); err != nil {
		t.Errorf("ring schedule missing the joint certificate: %v", err)
	}
}

// TestCrashSeparatedPickOnWideRing bounds the crash-separated pick's
// search: a 12-task layered problem on a 28-ring at {11,1} picks 12 of up
// to 28 processors per task. Enumerating every 12-subset in order took
// about 11 s on a 2-vCPU VM; the pruned walk takes well under a second,
// under the race detector too.
func TestCrashSeparatedPickOnWideRing(t *testing.T) {
	p, err := gen.Generate(gen.Params{
		N: 12, CCR: 1, Procs: 28, Topology: gen.TopoRing, Npf: 11, Nmf: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := Run(p, Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("planned in %v", elapsed)
	if elapsed > 5*time.Second {
		t.Errorf("planning took %v, want under 5s", elapsed)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

// TestDiversityRefusalIsTyped pins the refusal a medium-failure
// reschedule on a sparse ring runs into: with medium 0 forbidden, a
// chain delivery to P4 can no longer reach two media-disjoint routes, and
// the diversity gate fires inside Minimize-start-time's placement of the
// round winner. On both engines the refusal must match both
// ErrNoProcessorChoice (the planner's typed refusal) and the underlying
// sched.ErrNoDisjointDelivery, while the duplication-free heuristic still
// schedules the same problem.
func TestDiversityRefusalIsTyped(t *testing.T) {
	p, err := gen.Generate(gen.Params{
		N: 18, CCR: 1, Procs: 8, Topology: gen.TopoRing, Family: gen.FamChain,
		Npf: 1, Nmf: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	child, _, ok, err := sim.ScenarioProblem(p, sim.Scenario{
		MediumFailures: []sim.MediumFailure{sim.PermanentLink(0, 0)},
	})
	if err != nil || !ok {
		t.Fatalf("forbid medium 0: ok=%t err=%v", ok, err)
	}
	for name, run := range map[string]func(*spec.Problem, Options) (*Result, error){
		"planner": Run, "oracle": oracleRun,
	} {
		_, err := run(child, Options{})
		if !errors.Is(err, ErrNoProcessorChoice) || !errors.Is(err, sched.ErrNoDisjointDelivery) {
			t.Errorf("%s: err = %v, want ErrNoProcessorChoice wrapping sched.ErrNoDisjointDelivery", name, err)
		}
	}
	if _, err := Run(child, Options{NoDuplication: true}); err != nil {
		t.Errorf("no-duplication run failed: %v", err)
	}
}
