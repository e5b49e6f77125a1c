package core

// Differential harness for the planner: the incremental engine (ready
// queue + revision-epoch σ cache + cache-aware screen + pruned
// crash-separated pick) must reproduce the reference oracle's decision
// log (oracle_test.go) bit for bit, and both schedules must pass full
// structural validation. The property is exercised on the paper's worked
// example, a register (mem) feedback loop, seeded random problems across
// every topology and Npf 0..2, the retired scaling grid, wide combined
// budgets on rings, and fuzzed generator parameters (DESIGN.md Section 8).

import (
	"fmt"
	"math"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/paperex"
	"ftbar/internal/spec"
)

// assertEnginesAgree runs the planner and the reference oracle
// (oracle_test.go) on the problem and fails unless the decision logs are
// identical and both schedules validate.
func assertEnginesAgree(t *testing.T, p *spec.Problem, opts Options) {
	t.Helper()
	ref, refErr := oracleRun(p, opts)
	inc, incErr := Run(p, opts)
	if (refErr == nil) != (incErr == nil) {
		t.Fatalf("engines disagree on outcome: reference err=%v, incremental err=%v", refErr, incErr)
	}
	if refErr != nil {
		return // both failed identically (e.g. not enough processors)
	}
	assertSameSteps(t, ref.Steps, inc.Steps)
	if ref.ExtraReplicas != inc.ExtraReplicas {
		t.Errorf("extra replicas: reference %d, incremental %d", ref.ExtraReplicas, inc.ExtraReplicas)
	}
	if rl, il := ref.Schedule.Length(), inc.Schedule.Length(); rl != il {
		t.Errorf("schedule length: reference %g, incremental %g", rl, il)
	}
	if err := ref.Schedule.Validate(); err != nil {
		t.Errorf("reference schedule invalid: %v", err)
	}
	if err := inc.Schedule.Validate(); err != nil {
		t.Errorf("incremental schedule invalid: %v", err)
	}
}

// assertSameSteps compares decision logs exactly: same tasks in the same
// order, the same processors, and bit-identical pressures.
func assertSameSteps(t *testing.T, ref, inc []Step) {
	t.Helper()
	if len(ref) != len(inc) {
		t.Fatalf("step counts differ: reference %d, incremental %d", len(ref), len(inc))
	}
	for i := range ref {
		r, c := ref[i], inc[i]
		if r.Task != c.Task || r.Urgency != c.Urgency {
			t.Fatalf("step %d: reference (task %d, urgency %v), incremental (task %d, urgency %v)",
				i, r.Task, r.Urgency, c.Task, c.Urgency)
		}
		if len(r.Procs) != len(c.Procs) {
			t.Fatalf("step %d: proc counts differ: %v vs %v", i, r.Procs, c.Procs)
		}
		for j := range r.Procs {
			if r.Procs[j] != c.Procs[j] || r.Sigmas[j] != c.Sigmas[j] {
				t.Fatalf("step %d choice %d: reference (%d, %v), incremental (%d, %v)",
					i, j, r.Procs[j], r.Sigmas[j], c.Procs[j], c.Sigmas[j])
			}
		}
	}
}

func TestDifferentialPaperExample(t *testing.T) {
	for _, opts := range []Options{
		{},
		{NoDuplication: true},
		{TailsWithComms: true},
	} {
		assertEnginesAgree(t, paperex.Problem(), opts)
	}
}

func TestDifferentialMemFeedbackLoop(t *testing.T) {
	// Register loop: in -> ctl -> st(mem) -> ctl, so the ready queue must
	// gate the mem's write half on its read half and the write placements
	// stay pinned outside the σ cache.
	g := model.NewGraph()
	in := g.MustAddOp("in", model.ExtIO)
	ctl := g.MustAddOp("ctl", model.Comp)
	st := g.MustAddOp("st", model.Mem)
	out := g.MustAddOp("out", model.ExtIO)
	g.MustAddEdge(in, ctl)
	g.MustAddEdge(st, ctl)
	g.MustAddEdge(ctl, st)
	g.MustAddEdge(ctl, out)
	for npf := 0; npf <= 2; npf++ {
		ar := arch.FullyConnected(4)
		exec, _ := spec.NewUniformExecTable(g, ar, 1)
		comm, _ := spec.NewUniformCommTable(g, ar, 0.5)
		assertEnginesAgree(t, &spec.Problem{Alg: g, Arc: ar, Exec: exec, Comm: comm, Npf: npf}, Options{})
	}
}

// TestDifferentialRandomProblems is the seeded property sweep: 4
// topologies × Npf 0..2 × 5 seeds = 60 generated problems, with varying
// size, CCR and heterogeneity, all run through the planner and the
// oracle. Two more groups ride along:
//   - the 36 problems of the retired scaling grid (ftbench -experiment
//     scaling, BENCH_scaling.json): 25/50/100 tasks × 4/6 processors ×
//     Npf 0/1 × graphs 0–2 on a fully connected architecture, CCR 1;
//   - 12-task layered problems on 20- and 24-rings at {7,1} and {9,1},
//     which pick 8 of 20 and 10 of 24 processors per task, so the pruned
//     crash-separated pick meets a long exhaustive enumeration.
func TestDifferentialRandomProblems(t *testing.T) {
	topos := []gen.Topology{gen.TopoFull, gen.TopoBus, gen.TopoRing, gen.TopoStar}
	ccrs := []float64{0.3, 1, 3}
	problems := 0
	run := func(name string, params gen.Params) {
		p, err := gen.Generate(params)
		if err != nil {
			t.Fatalf("generate %+v: %v", params, err)
		}
		t.Run(name, func(t *testing.T) {
			assertEnginesAgree(t, p, Options{})
		})
	}
	for _, topo := range topos {
		for npf := 0; npf <= 2; npf++ {
			for seed := int64(1); seed <= 5; seed++ {
				params := gen.Params{
					N:        10 + int(seed)*7,
					CCR:      ccrs[int(seed)%len(ccrs)],
					Procs:    4 + int(seed)%3,
					Topology: topo,
					Npf:      npf,
					Seed:     900*int64(topo) + 30*int64(npf) + seed,
				}
				if seed%2 == 0 {
					params.Heterogeneity = 0.4
				}
				problems++
				run(topo.String(), params)
			}
		}
	}
	if problems < 50 {
		t.Fatalf("property sweep covers %d problems, want at least 50", problems)
	}
	for _, n := range []int{25, 50, 100} {
		for _, procs := range []int{4, 6} {
			for npf := 0; npf <= 1; npf++ {
				for g := 0; g < 3; g++ {
					run(fmt.Sprintf("scaling/n%d-p%d-npf%d-g%d", n, procs, npf, g), gen.Params{
						N: n, CCR: 1, Procs: procs, Npf: npf, Seed: scalingGridSeed(n, procs, npf, g),
					})
				}
			}
		}
	}
	for _, sh := range []struct{ procs, npf int }{{20, 7}, {24, 9}} {
		run(fmt.Sprintf("ring%d-%d-1", sh.procs, sh.npf), gen.Params{
			N: 12, CCR: 1, Procs: sh.procs, Topology: gen.TopoRing, Npf: sh.npf, Nmf: 1, Seed: 1,
		})
	}
}

// TestDifferentialStructuredFamilies extends the sweep to the corpus's
// structured families on its sparse topologies: chain, fork-join and
// blocked-matmul graphs on mesh, torus, hypercube and random-geometric
// architectures, under Npf 1..2 and the combined budget {1,1}, where
// relay-aware routing and crash-separated placement are active.
func TestDifferentialStructuredFamilies(t *testing.T) {
	families := []struct {
		fam   gen.Family
		n     int
		width int
	}{{gen.FamChain, 16, 4}, {gen.FamForkJoin, 18, 3}, {gen.FamMatmul, 30, 3}}
	topos := []struct {
		topo  gen.Topology
		procs int
	}{{gen.TopoMesh, 6}, {gen.TopoTorus, 9}, {gen.TopoHypercube, 8}, {gen.TopoGeom, 8}}
	budgets := []spec.FaultModel{{Npf: 1}, {Npf: 2}, {Npf: 1, Nmf: 1}}
	scheduled := 0
	for _, f := range families {
		for _, tp := range topos {
			for bi, b := range budgets {
				p, err := gen.Generate(gen.Params{
					N: f.n, CCR: 1, Procs: tp.procs, Topology: tp.topo,
					Family: f.fam, Width: f.width, Npf: b.Npf, Nmf: b.Nmf,
					Seed: 3100 + 100*int64(f.fam) + 10*int64(tp.topo) + int64(bi),
				})
				if err != nil {
					t.Fatalf("generate %s/%s %s: %v", f.fam, tp.topo, b, err)
				}
				t.Run(f.fam.String()+"/"+tp.topo.String()+"/"+b.String(), func(t *testing.T) {
					assertEnginesAgree(t, p, Options{})
				})
				if _, err := Run(p, Options{}); err == nil {
					scheduled++
				}
			}
		}
	}
	if total := len(families) * len(topos) * len(budgets); scheduled < total*3/4 {
		t.Errorf("only %d of %d structured problems scheduled; the sweep would mostly compare refusals", scheduled, total)
	}
}

// FuzzEnginesAgree holds the two engines to each other on generated
// problems: 4–30 tasks on 2–9 processors, every topology and family,
// Npf 0–2 and Nmf up to Npf, with the CCR, heterogeneity and seed drawn
// from the input too. A committed crasher under testdata/fuzz becomes a
// regression seed.
//
//	go test ./internal/core -run '^$' -fuzz FuzzEnginesAgree -fuzztime 10s -fuzzminimizetime 50x
func FuzzEnginesAgree(f *testing.F) {
	for _, seed := range [][]byte{
		{6, 2, 0, 0, 1, 0, 128, 0, 1},
		{16, 4, 2, 1, 1, 1, 200, 3, 7},
		{26, 7, 6, 2, 2, 1, 90, 5, 42},
		{20, 6, 7, 3, 2, 2, 255, 2, 3},
		{12, 5, 8, 0, 1, 1, 30, 7, 99, 1},
		{9, 3, 4, 1, 2, 0, 0, 0, 5},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := gen.Generate(fuzzParams(data))
		if err != nil {
			return
		}
		assertEnginesAgree(t, p, Options{})
	})
}

// fuzzParams is FuzzEnginesAgree's byte format, one field per byte (a
// missing byte reads 0): tasks, processors, topology, family, Npf, Nmf,
// CCR (0.1 to 10, log scale), heterogeneity (0 to 0.7), then up to eight
// little-endian seed bytes.
func fuzzParams(data []byte) gen.Params {
	b := make([]byte, 16)
	copy(b, data)
	procs := 2 + int(b[1])%8
	npf := min(int(b[4])%3, procs-1)
	var seed int64
	for i := 15; i >= 8; i-- {
		seed = seed<<8 | int64(b[i])
	}
	return gen.Params{
		N:             4 + int(b[0])%27,
		Procs:         procs,
		Topology:      gen.Topologies()[int(b[2])%len(gen.Topologies())],
		Family:        gen.Families()[int(b[3])%len(gen.Families())],
		Npf:           npf,
		Nmf:           int(b[5]) % (npf + 1),
		CCR:           0.1 * math.Pow(100, float64(b[6])/255),
		Heterogeneity: float64(b[7]%8) / 10,
		Seed:          seed,
	}
}

// TestSigmaMatchesCachedSigma spot-checks that cached pressures are the
// exact Sigma values, not approximations: a schedule length or pressure
// drift would show up here as a non-finite or mismatched urgency.
func TestDifferentialUrgenciesFinite(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 25, CCR: 1, Procs: 4, Npf: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Steps {
		if math.IsInf(st.Urgency, 0) || math.IsNaN(st.Urgency) {
			t.Fatalf("step %d has non-finite urgency %v", i, st.Urgency)
		}
	}
}
