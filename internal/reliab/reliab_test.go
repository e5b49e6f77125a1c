package reliab

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/paperex"
	"ftbar/internal/sched"
	"ftbar/internal/sim"
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

func TestPaperExampleReliability(t *testing.T) {
	s := paperSchedule(t)
	const q = 0.01
	rep, err := Evaluate(s, Uniform(3, q))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// Exactly the empty set and the three singletons are masked: the input
	// I exists only on P1/P2 and the distribution constraints pin O away
	// from P2, so every processor pair is a weak point.
	if rep.MaskedSubsets != 4 {
		t.Errorf("MaskedSubsets = %d, want 4", rep.MaskedSubsets)
	}
	if rep.GuaranteedNpf != 1 {
		t.Errorf("GuaranteedNpf = %d, want 1", rep.GuaranteedNpf)
	}
	want := math.Pow(1-q, 3) + 3*q*math.Pow(1-q, 2)
	if math.Abs(rep.Reliability-want) > 1e-12 {
		t.Errorf("Reliability = %.12f, want %.12f", rep.Reliability, want)
	}
	if len(rep.UnmaskedMinimal) != 3 {
		t.Errorf("UnmaskedMinimal = %v, want the three pairs", rep.UnmaskedMinimal)
	}
	for _, set := range rep.UnmaskedMinimal {
		if len(set) != 2 {
			t.Errorf("minimal unmasked subset %v is not a pair", set)
		}
	}
}

func TestHeterogeneousProbabilities(t *testing.T) {
	s := paperSchedule(t)
	m := Model{PFail: []float64{0.1, 0.02, 0.005}}
	rep, err := Evaluate(s, m)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	// masked = {} ∪ {P1} ∪ {P2} ∪ {P3}.
	want := (1-0.1)*(1-0.02)*(1-0.005) +
		0.1*(1-0.02)*(1-0.005) +
		(1-0.1)*0.02*(1-0.005) +
		(1-0.1)*(1-0.02)*0.005
	if math.Abs(rep.Reliability-want) > 1e-12 {
		t.Errorf("Reliability = %.12f, want %.12f", rep.Reliability, want)
	}
}

func TestZeroFailureProbabilityGivesCertainty(t *testing.T) {
	s := paperSchedule(t)
	rep, err := Evaluate(s, Uniform(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reliability != 1 {
		t.Errorf("Reliability = %g, want 1", rep.Reliability)
	}
}

func TestNpf2ScheduleGuaranteesMore(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 4, Npf: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(res.Schedule, Uniform(4, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GuaranteedNpf < 2 {
		t.Errorf("GuaranteedNpf = %d, want >= 2 for an Npf=2 schedule", rep.GuaranteedNpf)
	}
}

func TestReliabilityGrowsWithNpf(t *testing.T) {
	const q = 0.05
	var prev float64
	for _, npf := range []int{0, 1, 2} {
		p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 4, Npf: npf, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(p, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Evaluate(res.Schedule, Uniform(4, q))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Reliability < prev-1e-9 {
			t.Errorf("reliability decreased at Npf=%d: %g -> %g", npf, prev, rep.Reliability)
		}
		prev = rep.Reliability
	}
	if prev < 0.99 {
		t.Errorf("Npf=2 reliability = %g, expected near 1", prev)
	}
}

func TestEvaluateValidation(t *testing.T) {
	s := paperSchedule(t)
	if _, err := Evaluate(s, Model{PFail: []float64{0.1}}); !errors.Is(err, ErrBadModel) {
		t.Errorf("short model error = %v", err)
	}
	if _, err := Evaluate(s, Model{PFail: []float64{0.1, -1, 0}}); !errors.Is(err, ErrBadModel) {
		t.Errorf("negative probability error = %v", err)
	}
	if _, err := Evaluate(s, Model{PFail: []float64{0.1, 2, 0}}); !errors.Is(err, ErrBadModel) {
		t.Errorf("probability > 1 error = %v", err)
	}
}

func TestUniformModel(t *testing.T) {
	m := Uniform(5, 0.25)
	if len(m.PFail) != 5 {
		t.Fatalf("len = %d", len(m.PFail))
	}
	for _, q := range m.PFail {
		if q != 0.25 {
			t.Errorf("q = %g", q)
		}
	}
}

// jointModel builds the paper example's joint model: 3 processors and 3
// links, each with its own failure probability.
func jointSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	p := paperex.Problem()
	p.SetFaults(spec.FaultModel{Npf: 1, Nmf: 1})
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	return res.Schedule
}

// TestJointEvaluationLattice pins the joint enumeration: media enter the
// subset space, the lattice has both axes, and the pure-processor column
// of the joint run matches the processor-only evaluation exactly (media
// failing with probability 0 cannot change anything).
func TestJointEvaluationLattice(t *testing.T) {
	s := jointSchedule(t)
	const q = 0.01
	procOnly, err := Evaluate(s, Uniform(3, q))
	if err != nil {
		t.Fatal(err)
	}
	joint, err := Evaluate(s, UniformJoint(3, 3, q, 0))
	if err != nil {
		t.Fatal(err)
	}
	if joint.TotalSubsets != 1<<6 {
		t.Errorf("TotalSubsets = %d, want 64", joint.TotalSubsets)
	}
	if math.Abs(joint.Reliability-procOnly.Reliability) > 1e-12 {
		t.Errorf("joint reliability at qm=0 = %.12f, want proc-only %.12f",
			joint.Reliability, procOnly.Reliability)
	}
	if joint.GuaranteedNpf != procOnly.GuaranteedNpf {
		t.Errorf("GuaranteedNpf = %d, want %d", joint.GuaranteedNpf, procOnly.GuaranteedNpf)
	}
	if rows := len(joint.MaskedLattice); rows != 4 {
		t.Fatalf("lattice rows = %d, want 4", rows)
	}
	if cols := len(joint.MaskedLattice[0]); cols != 4 {
		t.Fatalf("lattice cols = %d, want 4", cols)
	}
	for i, row := range joint.MaskedLattice {
		if got, want := row[0], procOnly.MaskedLattice[i][0]; got != want {
			t.Errorf("lattice[%d][0] = %g, want proc-only %g", i, got, want)
		}
	}
	if joint.MaskedLattice[0][0] != 1 {
		t.Errorf("fault-free cell = %g, want 1", joint.MaskedLattice[0][0])
	}
}

// TestJointGuaranteedNmf pins the media axis: the paper example under
// Npf = 1, Nmf = 1 masks every single-link crash (the faults-smoke
// property), so the exact joint evaluation must certify GuaranteedNmf
// >= 1 and report no singleton minimal media subset.
func TestJointGuaranteedNmf(t *testing.T) {
	s := jointSchedule(t)
	rep, err := Evaluate(s, UniformJoint(3, 3, 0.01, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GuaranteedNmf < 1 {
		t.Errorf("GuaranteedNmf = %d, want >= 1 for a validated Nmf=1 schedule", rep.GuaranteedNmf)
	}
	for _, set := range rep.UnmaskedMinimalMedia {
		if len(set) < 2 {
			t.Errorf("minimal unmasked media subset %v smaller than 2", set)
		}
	}
	if rep.Reliability <= 0 || rep.Reliability >= 1 {
		t.Errorf("joint reliability = %g, want in (0, 1)", rep.Reliability)
	}
	if rep.CILow != rep.Reliability || rep.CIHigh != rep.Reliability {
		t.Errorf("exact CI [%g, %g] not degenerate at %g", rep.CILow, rep.CIHigh, rep.Reliability)
	}
}

// TestMonteCarloMatchesExact pins the estimator against the exact joint
// enumeration on the paper example: the exact reliability must fall
// inside the Monte-Carlo 95% confidence interval (the CI-agreement
// property the combined-smoke CI job asserts), and the estimator must be
// deterministic for a fixed seed.
func TestMonteCarloMatchesExact(t *testing.T) {
	s := jointSchedule(t)
	m := UniformJoint(3, 3, 0.05, 0.05)
	exact, err := Evaluate(s, m)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarlo(s, m, Options{Samples: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Method != MethodMonteCarlo || mc.Samples != 20000 {
		t.Errorf("method/samples = %s/%d", mc.Method, mc.Samples)
	}
	if exact.Reliability < mc.CILow || exact.Reliability > mc.CIHigh {
		t.Errorf("exact %.6f outside Monte-Carlo 95%% CI [%.6f, %.6f]",
			exact.Reliability, mc.CILow, mc.CIHigh)
	}
	if mc.CIHigh-mc.CILow > 0.02 {
		t.Errorf("CI width %.4f implausibly wide at 20k samples", mc.CIHigh-mc.CILow)
	}
	again, err := MonteCarlo(s, m, Options{Samples: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if again.Reliability != mc.Reliability {
		t.Errorf("same seed gave %.9f then %.9f", mc.Reliability, again.Reliability)
	}
}

// TestEvaluateAutoDispatch pins the exact/Monte-Carlo switch: the paper
// example (6 units) evaluates exactly; a model pretending to be huge is
// rejected by Evaluate but accepted by EvaluateAuto via sampling.
func TestEvaluateAutoDispatch(t *testing.T) {
	s := jointSchedule(t)
	rep, err := EvaluateAuto(s, UniformJoint(3, 3, 0.01, 0.01), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != MethodExact {
		t.Errorf("small architecture dispatched to %s", rep.Method)
	}
}

// TestUniformJointModel pins the media arm of the uniform constructor.
func TestUniformJointModel(t *testing.T) {
	m := UniformJoint(3, 4, 0.25, 0.125)
	if len(m.PFail) != 3 || len(m.MFail) != 4 {
		t.Fatalf("lens = %d/%d", len(m.PFail), len(m.MFail))
	}
	for _, q := range m.MFail {
		if q != 0.125 {
			t.Errorf("qm = %g", q)
		}
	}
}

// runMasked is the evaluation path the reports are pinned to: one sim.Run
// of the crash set at time 0, with the all-processors crash trivially
// unmasked.
func runMasked(t *testing.T, s *sched.Schedule, procs []arch.ProcID, media []arch.MediumID) bool {
	t.Helper()
	if len(procs) == s.Problem().Arc.NumProcs() {
		return false
	}
	var sc sim.Scenario
	for _, p := range procs {
		sc.Failures = append(sc.Failures, sim.Permanent(p, 0))
	}
	for _, m := range media {
		sc.MediumFailures = append(sc.MediumFailures, sim.PermanentLink(m, 0))
	}
	res, err := sim.Run(s, sc)
	if err != nil {
		t.Fatal(err)
	}
	return res.Iterations[0].OutputsOK
}

// TestReportsMatchPerSubsetRuns pins Evaluate and MonteCarlo, which run
// every crash set on one indexed copy of the schedule and one state per
// worker, to reports built from one sim.Run per crash set (sim's oracle
// test pins Run to the executor it replaced): the exact reports of the
// test schedules, and a Monte-Carlo report redrawn from the same seed.
func TestReportsMatchPerSubsetRuns(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 4, Npf: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	npf2, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s *sched.Schedule
		m Model
	}{
		{paperSchedule(t), Uniform(3, 0.01)},
		{paperSchedule(t), Model{PFail: []float64{0.1, 0.02, 0.005}}},
		{jointSchedule(t), UniformJoint(3, 3, 0.05, 0.05)},
		{npf2.Schedule, Uniform(4, 0.05)},
	} {
		got, err := Evaluate(tc.s, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		nP, nM := len(tc.m.PFail), len(tc.m.MFail)
		masked := make([]bool, 1<<(nP+nM))
		for mask := range masked {
			var procs []arch.ProcID
			var media []arch.MediumID
			for u := 0; u < nP+nM; u++ {
				switch {
				case mask&(1<<u) == 0:
				case u < nP:
					procs = append(procs, arch.ProcID(u))
				default:
					media = append(media, arch.MediumID(u-nP))
				}
			}
			masked[mask] = runMasked(t, tc.s, procs, media)
		}
		if want := exactReport(tc.m, nP, nM, masked); !reflect.DeepEqual(got, want) {
			t.Errorf("model %+v: report\n %+v\nwant\n %+v", tc.m, got, want)
		}
	}

	s, m := jointSchedule(t), UniformJoint(3, 3, 0.05, 0.05)
	const samples = 2000
	got, err := MonteCarlo(s, m, Options{Samples: samples, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	maskedN := 0
	for i := 0; i < samples; i++ {
		var procs []arch.ProcID
		var media []arch.MediumID
		for p, q := range m.PFail {
			if rng.Float64() < q {
				procs = append(procs, arch.ProcID(p))
			}
		}
		for mi, q := range m.MFail {
			if rng.Float64() < q {
				media = append(media, arch.MediumID(mi))
			}
		}
		if runMasked(t, s, procs, media) {
			maskedN++
		}
	}
	r := float64(maskedN) / samples
	half := 1.96 * math.Sqrt(r*(1-r)/samples)
	want := &Report{Method: MethodMonteCarlo, Reliability: r, CILow: math.Max(0, r-half),
		CIHigh: math.Min(1, r+half), Samples: samples}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Monte-Carlo report %+v, want %+v", got, want)
	}
}
