package main

import (
	"math"

	"ftbar"
)

// shape is a generated problem's recipe minus its seed; class names it in
// operation span names.
type shape struct {
	class    string
	topo     ftbar.Topology
	family   ftbar.Family
	procs, n int
	npf, nmf int
	ccr      float64
}

// generate builds the problem for one instance seed. Task counts scale
// with sc.sizeScale so --smoke stays fast.
func (s shape) generate(sc scale, seed int64) (*ftbar.Problem, error) {
	ccr := s.ccr
	if ccr == 0 {
		ccr = 1
	}
	n := max(8, int(math.Round(float64(s.n)*sc.sizeScale)))
	return ftbar.Generate(ftbar.GenParams{
		N: n, CCR: ccr, Procs: s.procs, Topology: s.topo, Family: s.family,
		Npf: s.npf, Nmf: s.nmf, Seed: seed,
	})
}

// instanceSeed derives the generator seed of instance i of a workload's
// input list (salt separates the workloads' streams), so the same
// --seed always yields the same inputs.
func instanceSeed(seed int64, salt, i int) int64 {
	return seed*1_000_003 + int64(salt)*100_019 + int64(i)*7_919
}

// planShapes is the plan-cold cycle. Sizes and classes are fixed, so a
// seed changes only the random draws; the three classes interleave so
// any prefix of the list has the same mix.
//
//   - dense: fully connected, no medium budget. Spec decode and schedule
//     preparation dominate: a 200-task, 16-processor problem is about
//     1 MB of JSON and 120 media.
//   - grid: a 9-processor mesh running a ~200-task fork-join pipeline.
//   - relay: sparse topologies under a {1,1} budget, where the planner
//     itself dominates (σ cache, batch commits, plan memos, disjoint fans).
var planShapes = []shape{
	{class: "dense", topo: ftbar.TopoFull, family: ftbar.FamLayered, procs: 16, n: 100, npf: 1},
	{class: "relay", topo: ftbar.TopoTorus, family: ftbar.FamLayered, procs: 9, n: 60, npf: 1, nmf: 1},
	{class: "grid", topo: ftbar.TopoMesh, family: ftbar.FamForkJoin, procs: 9, n: 200, npf: 1},
	{class: "dense", topo: ftbar.TopoFull, family: ftbar.FamMatmul, procs: 8, n: 128, npf: 2},
	{class: "relay", topo: ftbar.TopoHypercube, family: ftbar.FamLayered, procs: 8, n: 80, npf: 1, nmf: 1},
	{class: "dense", topo: ftbar.TopoFull, family: ftbar.FamLayered, procs: 16, n: 150, npf: 1},
	{class: "relay", topo: ftbar.TopoGeom, family: ftbar.FamLayered, procs: 8, n: 100, npf: 1, nmf: 1},
	{class: "grid", topo: ftbar.TopoMesh, family: ftbar.FamForkJoin, procs: 9, n: 180, npf: 1},
	{class: "dense", topo: ftbar.TopoFull, family: ftbar.FamLayered, procs: 16, n: 200, npf: 1},
	{class: "relay", topo: ftbar.TopoRing, family: ftbar.FamLayered, procs: 8, n: 70, npf: 1, nmf: 1},
}

// verifyTopos and verifyFamilies span verify-sweep's {1,1} problems: six
// sparse or redundant topologies across the four graph families, 14 to
// 18 tasks. At 20 to 30 tasks one verification takes 0.35 s on average
// (up to 1.4 s on the torus), a run covers about 45 problems, and the
// throughput spread across seeds measured 29%; at 14 to 18 a run covers
// about 100.
var (
	verifyTopos = []struct {
		topo  ftbar.Topology
		procs int
	}{
		{ftbar.TopoGeom, 8}, {ftbar.TopoRing, 8}, {ftbar.TopoTorus, 9},
		{ftbar.TopoMesh, 9}, {ftbar.TopoHypercube, 8}, {ftbar.TopoDualBus, 6},
	}
	verifyFamilies = []ftbar.Family{ftbar.FamLayered, ftbar.FamForkJoin, ftbar.FamMatmul, ftbar.FamChain}
)

// verifyShape returns instance i's shape: topologies cycle fastest, then
// families; sizes 14/16/18 rotate one step per topology cycle so every
// topology meets every size.
func verifyShape(i int) shape {
	cycle := i / len(verifyTopos)
	t := verifyTopos[i%len(verifyTopos)]
	fam := verifyFamilies[cycle%len(verifyFamilies)]
	return shape{class: t.topo.String() + "/" + fam.String(), topo: t.topo, family: fam,
		procs: t.procs, n: 14 + 2*((i+cycle)%3), npf: 1, nmf: 1}
}
