package core

// Planner-vs-oracle microbenchmarks on the tracked cell of the retired
// scaling grid (100 tasks, 6 processors, Npf = 1, graphs 0 and 1). One
// op schedules both problems; CI holds the ratio of the two medians to
// the cell's frozen speedup in BENCH_scaling.json. BenchmarkEngineRelay
// times the planner on the relay shapes of the benchmark's plan-cold
// workload, where the disjoint fans and the crash-separated pick run; no
// CI gate reads it.

import (
	"testing"

	"ftbar/internal/gen"
	"ftbar/internal/spec"
)

// scalingGridSeed is the seed the retired scaling grid gave graph g of
// its (n, procs, npf) cell at base seed 2003.
func scalingGridSeed(n, procs, npf, g int) int64 {
	return 2003*1_000_183 + int64(n)*4001 + int64(procs)*211 + int64(npf)*47 + int64(g+1)
}

func benchmarkEngine(b *testing.B, run func(*spec.Problem, Options) (*Result, error)) {
	var problems []*spec.Problem
	for g := 0; g < 2; g++ {
		p, err := gen.Generate(gen.Params{N: 100, CCR: 1, Procs: 6, Npf: 1, Seed: scalingGridSeed(100, 6, 1, g)})
		if err != nil {
			b.Fatal(err)
		}
		problems = append(problems, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range problems {
			if _, err := run(p, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineReference100x6(b *testing.B)   { benchmarkEngine(b, oracleRun) }
func BenchmarkEngineIncremental100x6(b *testing.B) { benchmarkEngine(b, Run) }

// BenchmarkEngineRelay plans the four relay shapes of the benchmark's
// plan-cold workload once per op: layered graphs at {1,1} on torus9
// (60 tasks), hypercube8 (80), geom8 (100) and ring8 (70), at fixed
// seeds. Each run gets a fresh clone of its architecture, as plan-cold
// decodes one per problem, so the fan skeleton and the pair-cut matrix
// are built inside the timed run rather than memoised across ops.
func BenchmarkEngineRelay(b *testing.B) {
	var problems []*spec.Problem
	for i, sh := range []struct {
		topo  gen.Topology
		procs int
		n     int
	}{
		{gen.TopoTorus, 9, 60}, {gen.TopoHypercube, 8, 80}, {gen.TopoGeom, 8, 100}, {gen.TopoRing, 8, 70},
	} {
		p, err := gen.Generate(gen.Params{
			N: sh.n, CCR: 1, Procs: sh.procs, Topology: sh.topo, Family: gen.FamLayered, Npf: 1, Nmf: 1, Seed: int64(60 + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		problems = append(problems, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range problems {
			q := *p
			q.Arc = p.Arc.Clone()
			if _, err := Run(&q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
