package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"ftbar/internal/gen"
	"ftbar/internal/spec"
)

// pinnedDigest is the SHA-256 of the decision-log grid below. The
// differential suite only holds the two engines to each other, so a
// change that moved both the same way would pass it; this digest pins
// the planner's actual output. Recompute it only for a change that is
// meant to alter schedules, and say so in the change's description.
const pinnedDigest = "22662e17051dac8c6eede2b9d1118f26d3aaeea2d80b116fa30ed47cc6348635"

// pinnedGrid lists the problems behind pinnedDigest: every topology ×
// every family × six fault budgets, 40 tasks on 8 processors, seed 1.
func pinnedGrid() []gen.Params {
	budgets := []spec.FaultModel{{}, {Npf: 1}, {Npf: 2}, {Npf: 1, Nmf: 1}, {Npf: 2, Nmf: 1}, {Npf: 2, Nmf: 2}}
	var grid []gen.Params
	for _, topo := range gen.Topologies() {
		for _, fam := range gen.Families() {
			for _, b := range budgets {
				grid = append(grid, gen.Params{
					N: 40, CCR: 1, Procs: 8, Topology: topo, Family: fam,
					Npf: b.Npf, Nmf: b.Nmf, Seed: 1,
				})
			}
		}
	}
	return grid
}

// TestDecisionLogsPinned hashes, problem by problem, the schedule
// document and the JSON decision log of every scheduled problem, or the
// refusal text of every refused one, and compares the digest with the
// committed one.
func TestDecisionLogsPinned(t *testing.T) {
	grid := pinnedGrid()
	h := sha256.New()
	refused := 0
	for i, params := range grid {
		p, err := gen.Generate(params)
		if err != nil {
			t.Fatalf("generate %+v: %v", params, err)
		}
		fmt.Fprintf(h, "problem %d\n", i)
		res, err := Run(p, Options{})
		if err != nil {
			refused++
			fmt.Fprintf(h, "refused: %v\n", err)
			continue
		}
		doc, err := res.Schedule.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		steps, err := json.Marshal(res.Steps)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(doc)
		h.Write(steps)
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d problems, %d refused, digest %s", len(grid), refused, got)
	if got != pinnedDigest {
		t.Errorf("decision-log digest %s, pinned %s", got, pinnedDigest)
	}
}
