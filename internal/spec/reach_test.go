package spec_test

import (
	"math"
	"math/rand"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/spec"
)

// commPalettes rewrite a problem's comm table in the ways that stress the
// reachability check: forbidden cells cut media out of an edge's
// subgraph, zero times tie every route, and huge times make Dijkstra's
// path sums overflow to +Inf, which the overflow guard must honour.
var commPalettes = []struct {
	name string
	cell func(rng *rand.Rand, nProcs int, v float64) float64
}{
	{"forbid-sparse", func(rng *rand.Rand, _ int, v float64) float64 { return pick(rng, 4, math.Inf(1), v) }},
	{"forbid-dense", func(rng *rand.Rand, _ int, v float64) float64 { return pick(rng, 2, v, math.Inf(1)) }},
	{"zero", func(rng *rand.Rand, _ int, v float64) float64 { return pick(rng, 2, 0, pick(rng, 3, math.Inf(1), 0)) }},
	{"huge", func(rng *rand.Rand, _ int, v float64) float64 { return pick(rng, 3, math.Inf(1), 1e308) }},
	{"guard", func(rng *rand.Rand, nProcs int, v float64) float64 {
		bound := math.MaxFloat64 / float64(2*nProcs)
		switch rng.Intn(5) {
		case 0:
			return bound
		case 1:
			return math.Nextafter(bound, math.Inf(1))
		case 2:
			return 1e307
		case 3:
			return math.Inf(1)
		}
		return v
	}},
}

// pick returns a with probability 1/n, b otherwise.
func pick(rng *rand.Rand, n int, a, b float64) float64 {
	if rng.Intn(n) == 0 {
		return a
	}
	return b
}

// TestReachabilityMatchesOracle holds Validate's connected-components
// reachability to the per-edge route-table check it replaced
// (oracle_test.go): on generated problems of every topology, with
// forbidden, zero and overflowing comm times, and on every crash-proc and
// forbid-medium child, both accept or both refuse with the same text.
func TestReachabilityMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	refused, checked := 0, 0
	check := func(name string, p *spec.Problem) {
		t.Helper()
		err, want := p.Validate(), spec.OracleValidate(p)
		if !sameError(err, want) {
			t.Fatalf("%s: Validate %v, oracle %v", name, err, want)
		}
		checked++
		if err != nil {
			refused++
		}
	}
	for _, topo := range gen.Topologies() {
		for seed := int64(1); seed <= 3; seed++ {
			p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 8, Topology: topo,
				Family: gen.Families()[int(seed)%len(gen.Families())], Seed: seed})
			if err != nil {
				t.Fatalf("%v seed %d: %v", topo, seed, err)
			}
			name := topo.String()
			check(name, p)
			for _, pal := range commPalettes {
				for round := 0; round < 4; round++ {
					c := p.Clone()
					for e := 0; e < c.Alg.NumEdges(); e++ {
						for m := 0; m < c.Arc.NumMedia(); m++ {
							v := pal.cell(rng, c.Arc.NumProcs(), c.Comm.Time(model.EdgeID(e), arch.MediumID(m)))
							if err := c.Comm.Set(model.EdgeID(e), arch.MediumID(m), v); err != nil {
								t.Fatal(err)
							}
						}
					}
					check(name+"/"+pal.name, c)
				}
			}
			for proc := 0; proc < p.Arc.NumProcs(); proc++ {
				c := p.Clone()
				for op := 0; op < c.Alg.NumOps(); op++ {
					if err := c.Exec.Forbid(model.OpID(op), arch.ProcID(proc)); err != nil {
						t.Fatal(err)
					}
				}
				checkDerived(t, p, spec.Mutation{Kind: spec.MutCrashProc, Proc: arch.ProcID(proc)}, c)
				check(name+"/crash", c)
			}
			for m := 0; m < p.Arc.NumMedia(); m++ {
				c := p.Clone()
				for e := 0; e < c.Alg.NumEdges(); e++ {
					if err := c.Comm.Forbid(model.EdgeID(e), arch.MediumID(m)); err != nil {
						t.Fatal(err)
					}
				}
				checkDerived(t, p, spec.Mutation{Kind: spec.MutForbidMedium, Medium: arch.MediumID(m)}, c)
				check(name+"/forbid", c)
			}
		}
	}
	if refused == 0 || refused == checked {
		t.Errorf("%d of %d problems refused, want some of each", refused, checked)
	}
}

// checkDerived asserts Derive refuses exactly when the equivalent clone c
// fails Validate, with the same error.
func checkDerived(t *testing.T, p *spec.Problem, m spec.Mutation, c *spec.Problem) {
	t.Helper()
	_, _, err := p.Derive(m)
	if want := c.Validate(); !sameError(err, want) {
		t.Fatalf("Derive(%v): %v, clone's Validate %v", m.Kind, err, want)
	}
}

// TestReachabilityOverflowGuard pins the case the guard exists for: on a
// ring whose links all cost 1e308, two hops overflow to +Inf, so the
// route table the planner would consult has no route between processors
// two links apart although the links connect them, and Validate refuses
// the dependency as the route table does.
func TestReachabilityOverflowGuard(t *testing.T) {
	g := model.NewGraph()
	a := g.MustAddOp("a", model.Comp)
	b := g.MustAddOp("b", model.Comp)
	g.MustAddEdge(a, b)
	ring := arch.Ring(4)
	exec := spec.NewExecTable(g, ring)
	exec.MustSet(a, 0, 1)
	exec.MustSet(b, 2, 1)
	for _, huge := range []float64{1e308, 1e300} {
		comm, err := spec.NewUniformCommTable(g, ring, huge)
		if err != nil {
			t.Fatal(err)
		}
		p := &spec.Problem{Alg: g, Arc: ring, Exec: exec, Comm: comm}
		err, want := p.Validate(), spec.OracleValidate(p)
		if !sameError(err, want) {
			t.Fatalf("links of %g: Validate %v, oracle %v", huge, err, want)
		}
		if overflows := huge > math.MaxFloat64/2; overflows != (err != nil) {
			t.Errorf("links of %g: Validate %v", huge, err)
		}
	}
}
