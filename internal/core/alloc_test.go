package core

import (
	"runtime"
	"testing"

	"ftbar/internal/gen"
)

// TestRelayPlanAllocs bounds the memory one cold relay-class run
// allocates per decision. Relay planning fills a disjoint fan per
// (sender set, avoid mask, receiver) as it goes; a fill that copies the
// memo instead of inserting into it costs O(entries) each, O(entries²)
// per run, and shows here as megabytes per decision. Every fan search
// of the run shares one scratch on the architecture's flow skeleton, so
// a fill allocates only the routes it caches (7–9 KB per decision on
// both shapes); a search buffer per edge reads about 50 KB.
func TestRelayPlanAllocs(t *testing.T) {
	const maxPerDecision = 32 << 10
	for _, sh := range []struct {
		name  string
		topo  gen.Topology
		procs int
		n     int
	}{
		{"torus9-n60", gen.TopoTorus, 9, 60},
		{"geom8-n100", gen.TopoGeom, 8, 100},
	} {
		t.Run(sh.name, func(t *testing.T) {
			p, err := gen.Generate(gen.Params{
				N: sh.n, CCR: 1, Procs: sh.procs, Topology: sh.topo, Npf: 1, Nmf: 1, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(p, Options{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			perDecision := (after.TotalAlloc - before.TotalAlloc) / uint64(len(res.Steps))
			t.Logf("%d decisions, %d KB allocated per decision", len(res.Steps), perDecision>>10)
			if perDecision > maxPerDecision {
				t.Errorf("%d KB allocated per decision, want at most %d KB",
					perDecision>>10, maxPerDecision>>10)
			}
		})
	}
}
