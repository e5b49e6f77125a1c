package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/reliab"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
)

// This file implements the `combined` experiment: the joint
// processor+medium fault model (DESIGN.md Section 12) measured across
// topologies. For every (topology, budget) cell it generates random
// problems, schedules them under the joint planner (relay-aware fan
// costs plus crash-separated replica placement), and reports four
// things: how many schedules carry the joint-survivability certificate
// (sched.ValidateJoint), the masked fraction of the full combined sweep
// (processor subsets up to Npf × every medium × every decisive crash
// instant), and the exact joint reliability at a uniform per-unit
// failure probability. BENCH_combined.json records the trajectory; the
// headline is the ring cell at Npf=1, Nmf=1, whose combined-masked
// fraction the relay-aware placement lifted from ~0.66 to 1.0. The
// committed file's planner_overhead and makespan_overhead columns priced
// the joint planner against a relay-blind baseline planner that no longer
// exists, so they are frozen values this experiment does not emit.

// CombinedConfig parameterises the combined experiment.
type CombinedConfig struct {
	// Topologies lists the architecture shapes to measure.
	Topologies []string `json:"topologies"`
	// Budgets lists the fault budgets to measure per topology.
	Budgets []spec.FaultModel `json:"budgets"`
	// N, CCR, Procs and Graphs shape the generated problems.
	N      int     `json:"n"`
	CCR    float64 `json:"ccr"`
	Procs  int     `json:"procs"`
	Graphs int     `json:"graphs"`
	Seed   int64   `json:"seed"`
	// Q is the per-processor and per-medium failure probability of the
	// joint reliability evaluation.
	Q float64 `json:"q"`
}

// DefaultCombined returns the standard grid: the topologies that accept a
// medium budget, under the smallest joint budget {1,1} and the slack
// budget {2,1}.
func DefaultCombined() CombinedConfig {
	return CombinedConfig{
		Topologies: []string{"full", "dualbus", "ring"},
		Budgets:    []spec.FaultModel{{Npf: 1, Nmf: 1}, {Npf: 2, Nmf: 1}},
		N:          20,
		CCR:        1,
		Procs:      4,
		Graphs:     10,
		Seed:       2003,
		Q:          0.01,
	}
}

// CombinedCell is one measured (topology, budget) point.
type CombinedCell struct {
	Topology string `json:"topology"`
	Npf      int    `json:"npf"`
	Nmf      int    `json:"nmf"`
	Graphs   int    `json:"graphs"`
	// SpecRejected and SchedRejected mirror the faults experiment;
	// Validated schedules carry the pure-processor and pure-medium
	// guarantees.
	SpecRejected  int     `json:"spec_rejected"`
	SchedRejected int     `json:"sched_rejected"`
	Validated     int     `json:"validated"`
	ValidatedRate float64 `json:"validated_rate"`
	// JointValidated counts validated schedules additionally carrying the
	// joint-survivability certificate (every delivery survives any
	// in-budget relay+medium crash, sched.ValidateJoint); JointRate is
	// the fraction over Graphs.
	JointValidated int     `json:"joint_validated"`
	JointRate      float64 `json:"joint_rate"`
	// CombinedScenarios counts the (processor subset, medium) cells the
	// full combined sweep probed over validated schedules, and
	// CombinedMasked the fraction masked at every probed crash instant.
	CombinedScenarios int     `json:"combined_scenarios"`
	CombinedMasked    float64 `json:"combined_masked"`
	// Reliability is the mean exact joint reliability over validated
	// schedules with every processor and medium failing with
	// probability Q per iteration.
	Reliability float64 `json:"reliability"`
}

// CombinedReport is the machine-readable outcome, a BENCH_*.json
// trajectory like the scaling, service and faults experiments'.
type CombinedReport struct {
	Experiment string         `json:"experiment"`
	Config     CombinedConfig `json:"config"`
	Cells      []CombinedCell `json:"cells"`
}

// Combined runs the experiment.
func Combined(cfg CombinedConfig) (*CombinedReport, error) {
	if len(cfg.Topologies) == 0 || len(cfg.Budgets) == 0 || cfg.Graphs < 1 {
		return nil, fmt.Errorf("%w: combined %+v", ErrBadConfig, cfg)
	}
	rep := &CombinedReport{Experiment: "combined", Config: cfg}
	for _, name := range cfg.Topologies {
		topo, err := gen.ParseTopology(name)
		if err != nil {
			return nil, err
		}
		for _, budget := range cfg.Budgets {
			cell, err := combinedCell(cfg, topo, budget)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, cell)
		}
	}
	return rep, nil
}

// combinedCell measures one (topology, budget) point.
func combinedCell(cfg CombinedConfig, topo gen.Topology, budget spec.FaultModel) (CombinedCell, error) {
	cell := CombinedCell{Topology: topo.String(), Npf: budget.Npf, Nmf: budget.Nmf}
	scen, masked := 0, 0
	relSum, relN := 0.0, 0
	for g := 0; g < cfg.Graphs; g++ {
		seed := cfg.Seed*1_000_099 + int64(topo)*100_003 +
			int64(budget.Npf)*10_007 + int64(budget.Nmf)*1009 + int64(g+1)
		problem, err := gen.Generate(gen.Params{
			N: cfg.N, CCR: cfg.CCR, Procs: cfg.Procs, Topology: topo,
			Npf: budget.Npf, Nmf: budget.Nmf, Seed: seed,
		})
		if err != nil {
			return cell, err
		}
		cell.Graphs++
		res, err := core.Run(problem, core.Options{})
		if err != nil {
			if errors.Is(err, spec.ErrMediaDiversity) || errors.Is(err, spec.ErrTooFewprocs) {
				cell.SpecRejected++
				continue
			}
			// The planner's diversity gate refused every feasible placement
			// (sched.ErrNoDisjointDelivery surfacing as no processor
			// choice); pre-gate these graphs produced schedules that failed
			// validation, so the refusal counts as a scheduler rejection.
			if errors.Is(err, core.ErrNoProcessorChoice) {
				cell.SchedRejected++
				continue
			}
			return cell, fmt.Errorf("combined %s %s seed %d: %w", topo, budget, seed, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			cell.SchedRejected++
			continue
		}
		cell.Validated++
		if err := res.Schedule.ValidateJoint(); err == nil {
			cell.JointValidated++
		}
		reports, err := sim.CombinedFailureSweep(res.Schedule)
		if err != nil {
			return cell, err
		}
		for _, r := range reports {
			scen++
			if r.Masked {
				masked++
			}
		}
		rel, err := reliab.EvaluateAuto(res.Schedule,
			reliab.UniformJoint(problem.Arc.NumProcs(), problem.Arc.NumMedia(), cfg.Q, cfg.Q),
			reliab.Options{Seed: seed})
		if err != nil {
			return cell, err
		}
		relSum += rel.Reliability
		relN++
	}
	if cell.Graphs > 0 {
		cell.ValidatedRate = float64(cell.Validated) / float64(cell.Graphs)
		cell.JointRate = float64(cell.JointValidated) / float64(cell.Graphs)
	}
	cell.CombinedScenarios = scen
	if scen > 0 {
		cell.CombinedMasked = float64(masked) / float64(scen)
	}
	if relN > 0 {
		cell.Reliability = relSum / float64(relN)
	}
	return cell, nil
}

// RenderCombined writes the report as a fixed-width text table.
func RenderCombined(w io.Writer, rep *CombinedReport) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s | %3s %3s | %6s %5s %5s | %6s %6s | %9s %6s | %11s\n",
		"topology", "Npf", "Nmf", "graphs", "valid", "joint", "v.rate", "j.rate",
		"scenarios", "comb", "reliab")
	b.WriteString(strings.Repeat("-", 92) + "\n")
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%8s | %3d %3d | %6d %5d %5d | %5.0f%% %5.0f%% | %9d %5.0f%% | %11.6f\n",
			c.Topology, c.Npf, c.Nmf, c.Graphs, c.Validated, c.JointValidated,
			c.ValidatedRate*100, c.JointRate*100,
			c.CombinedScenarios, c.CombinedMasked*100,
			c.Reliability)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCombinedJSON writes the report as indented JSON (the
// BENCH_combined trajectory format).
func RenderCombinedJSON(w io.Writer, rep *CombinedReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
