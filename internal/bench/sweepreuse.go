package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
)

// SweepReuseConfig parameterises the cross-run reuse experiment: families
// of related problems — identical re-submissions, deadline sweeps, and
// the single-failure reschedule sweep — solved cold (a fresh search per
// problem) and warm (through one core.RunArena), wall-clock timed. Every
// solve is checked bit-identical across the two paths; the speedup on
// the tracked cell is the number CI floors against BENCH_sweepreuse.json.
type SweepReuseConfig struct {
	Tasks     int     `json:"tasks"`
	Procs     int     `json:"procs"`
	CCR       float64 `json:"ccr"`
	Npf       int     `json:"npf"`
	Resolves  int     `json:"resolves"`
	Deadlines int     `json:"deadlines"`
	// Rounds is how many times the single-failure sweep recurs, each
	// round under a revised deadline — the service's
	// repeated-but-not-identical request pattern. Round one pays the
	// searches; later rounds replay them.
	Rounds int   `json:"rounds"`
	Graphs int   `json:"graphs"`
	Seed   int64 `json:"seed"`
}

// DefaultSweepReuse returns the standard configuration, sized so the
// tracked cell exercises full replay, slab recycling and cold runs in
// one sweep.
func DefaultSweepReuse() SweepReuseConfig {
	return SweepReuseConfig{
		Tasks: 50, Procs: 4, CCR: 1, Npf: 1,
		Resolves: 8, Deadlines: 8, Rounds: 3, Graphs: 3, Seed: 2003,
	}
}

// SweepReuseCell is one measured problem family, aggregated over Graphs
// base problems.
type SweepReuseCell struct {
	// Kind is the family shape: "resolve" (identical re-submissions),
	// "rtc" (deadline sweep) or "failures" (the single-failure
	// reschedule sweep: every processor crash and every medium death).
	Kind     string `json:"kind"`
	Topology string `json:"topology"`
	Tasks    int    `json:"tasks"`
	Procs    int    `json:"procs"`
	Npf      int    `json:"npf"`
	Graphs   int    `json:"graphs"`
	// Solves counts the timed solves per path (cold and warm each ran
	// this many searches or replays).
	Solves  int     `json:"solves"`
	ColdNs  int64   `json:"cold_ns"`
	WarmNs  int64   `json:"warm_ns"`
	Speedup float64 `json:"speedup"`
	// Identical reports that every warm solve reproduced its cold twin's
	// decision log and schedule length exactly.
	Identical bool `json:"identical"`
	// Reuse profile accumulated over the warm path.
	WarmStarts        int `json:"warm_starts"`
	ReplayedDecisions int `json:"replayed_decisions"`
	ReplayFallbacks   int `json:"replay_fallbacks"`
	// Tracked marks the cell whose speedup CI floors across PRs.
	Tracked bool `json:"tracked"`
}

// SweepReuseReport is the machine-readable outcome of the experiment.
type SweepReuseReport struct {
	Experiment string           `json:"experiment"`
	Config     SweepReuseConfig `json:"config"`
	Cells      []SweepReuseCell `json:"cells"`
}

// reuseProbe is one derived problem of a family: solved cold by a plain
// Run and warm through the arena, then compared.
type reuseProbe struct {
	problem *spec.Problem
	delta   spec.Delta
}

// sweepReuseFamily builds the probe list of one (kind, graph) pair. The
// base problem's own solve is not part of the family on either path: in
// the scenarios this experiment models — a service re-answering related
// requests, a sweep rescheduling around failures — the base schedule
// already exists, which is exactly what makes reuse possible.
func sweepReuseFamily(kind string, p *spec.Problem, baseLen float64, cfg SweepReuseConfig) ([]reuseProbe, error) {
	var probes []reuseProbe
	switch kind {
	case "resolve":
		for i := 0; i < cfg.Resolves; i++ {
			child, d, err := p.Derive(spec.Mutation{Kind: spec.MutIdentical})
			if err != nil {
				return nil, err
			}
			probes = append(probes, reuseProbe{child, d})
		}
	case "rtc":
		for i := 0; i < cfg.Deadlines; i++ {
			deadline := baseLen * (0.6 + 0.8*float64(i)/float64(cfg.Deadlines))
			child, d, err := p.Derive(spec.Mutation{Kind: spec.MutRtc, Rtc: spec.Rtc{Deadline: deadline}})
			if err != nil {
				return nil, err
			}
			probes = append(probes, reuseProbe{child, d})
		}
	case "failures":
		// The single-failure sweep: a reschedule per surviving-component
		// scenario, recurring over Rounds successive deadline revisions —
		// round one meets fresh problems (every crash and medium
		// reschedule searches in full), later rounds differ from it only
		// in Rtc and replay whole decision logs.
		var scenarios []sim.Scenario
		for q := 0; q < p.Arc.NumProcs(); q++ {
			scenarios = append(scenarios, sim.Scenario{Failures: []sim.Failure{sim.Permanent(arch.ProcID(q), 0)}})
		}
		for m := 0; m < p.Arc.NumMedia(); m++ {
			scenarios = append(scenarios, sim.Scenario{MediumFailures: []sim.MediumFailure{sim.PermanentLink(arch.MediumID(m), 0)}})
		}
		var children []reuseProbe
		for _, sc := range scenarios {
			child, d, ok, err := sim.ScenarioProblem(p, sc)
			if err != nil || !ok {
				// The architecture cannot survive this failure (a pinned
				// processor, the only bus): there is no reschedule to
				// benchmark on either path.
				continue
			}
			children = append(children, reuseProbe{child, d})
		}
		probes = append(probes, children...)
		for r := 1; r < cfg.Rounds; r++ {
			deadline := baseLen * (2 - 0.25*float64(r))
			for _, ch := range children {
				rev, d, err := ch.problem.Derive(spec.Mutation{Kind: spec.MutRtc, Rtc: spec.Rtc{Deadline: deadline}})
				if err != nil {
					return nil, err
				}
				probes = append(probes, reuseProbe{rev, d})
			}
		}
	default:
		return nil, fmt.Errorf("%w: unknown sweepreuse kind %q", ErrBadConfig, kind)
	}
	return probes, nil
}

// SweepReuse runs the experiment: for each cell, cold-solves and
// warm-solves the same derived-problem families and verifies bit
// identity solve by solve.
func SweepReuse(cfg SweepReuseConfig) (*SweepReuseReport, error) {
	if cfg.Tasks < 2 || cfg.Procs < 2 || cfg.Graphs < 1 || cfg.Resolves < 1 || cfg.Deadlines < 2 || cfg.Rounds < 1 {
		return nil, fmt.Errorf("%w: sweepreuse %+v", ErrBadConfig, cfg)
	}
	cells := []struct {
		kind    string
		topo    gen.Topology
		tracked bool
	}{
		{"resolve", gen.TopoFull, false},
		{"rtc", gen.TopoFull, false},
		{"failures", gen.TopoFull, true},
		{"failures", gen.TopoBus, false},
		{"failures", gen.TopoDualBus, false},
	}
	rep := &SweepReuseReport{Experiment: "sweepreuse", Config: cfg}
	opts := core.Options{}
	for _, cd := range cells {
		cell := SweepReuseCell{
			Kind: cd.kind, Topology: cd.topo.String(),
			Tasks: cfg.Tasks, Procs: cfg.Procs, Npf: cfg.Npf,
			Graphs: cfg.Graphs, Identical: true, Tracked: cd.tracked,
		}
		for g := 0; g < cfg.Graphs; g++ {
			seed := cfg.Seed*1_000_183 + int64(cfg.Tasks)*4001 + int64(g+1)*97
			p, err := gen.Generate(gen.Params{
				N: cfg.Tasks, CCR: cfg.CCR, Procs: cfg.Procs,
				Topology: cd.topo, Npf: cfg.Npf, Seed: seed,
			})
			if err != nil {
				return nil, fmt.Errorf("sweepreuse %s/%s: %w", cd.kind, cd.topo, err)
			}
			// Solve the base problem once on each path, untimed: it seeds
			// the arena exactly as the deployed schedule seeded it in the
			// modelled scenario.
			base, err := core.Run(p, opts)
			if err != nil {
				return nil, fmt.Errorf("sweepreuse %s/%s base: %w", cd.kind, cd.topo, err)
			}
			probes, err := sweepReuseFamily(cd.kind, p, base.Schedule.Length(), cfg)
			if err != nil {
				return nil, err
			}
			arena := core.NewRunArena(len(probes) + 4)
			warmBase, err := arena.Run(p, opts)
			if err != nil {
				return nil, fmt.Errorf("sweepreuse %s/%s arena base: %w", cd.kind, cd.topo, err)
			}
			if !stepsIdentical(base.Steps, warmBase.Steps) {
				cell.Identical = false
			}
			arena.Recycle(warmBase.Schedule)
			// Keep only the decision logs and lengths of the cold solves:
			// retaining whole schedules across the warm loop would tilt
			// its GC behaviour, and the comparison needs nothing more.
			coldSteps := make([][]core.Step, len(probes))
			coldLen := make([]float64, len(probes))
			start := time.Now()
			for i, pr := range probes {
				res, err := core.Run(pr.problem, opts)
				if err != nil {
					return nil, fmt.Errorf("sweepreuse %s/%s cold: %w", cd.kind, cd.topo, err)
				}
				coldSteps[i], coldLen[i] = res.Steps, res.Schedule.Length()
			}
			cell.ColdNs += time.Since(start).Nanoseconds()
			start = time.Now()
			for i, pr := range probes {
				warm, err := arena.RunDerived(pr.problem, pr.delta, opts)
				if err != nil {
					return nil, fmt.Errorf("sweepreuse %s/%s warm: %w", cd.kind, cd.topo, err)
				}
				if !stepsIdentical(coldSteps[i], warm.Steps) ||
					coldLen[i] != warm.Schedule.Length() {
					cell.Identical = false
				}
				cell.WarmStarts += warm.Planner.WarmStarts
				cell.ReplayedDecisions += warm.Planner.ReplayedDecisions
				cell.ReplayFallbacks += warm.Planner.ReplayFallbacks
				arena.Recycle(warm.Schedule)
			}
			cell.WarmNs += time.Since(start).Nanoseconds()
			cell.Solves += len(probes)
		}
		if cell.WarmNs > 0 {
			cell.Speedup = float64(cell.ColdNs) / float64(cell.WarmNs)
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// stepsIdentical compares two decision logs exactly.
func stepsIdentical(a, b []core.Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Task != b[i].Task || a[i].Urgency != b[i].Urgency || len(a[i].Procs) != len(b[i].Procs) {
			return false
		}
		for j := range a[i].Procs {
			if a[i].Procs[j] != b[i].Procs[j] || a[i].Sigmas[j] != b[i].Sigmas[j] {
				return false
			}
		}
	}
	return true
}

// RenderSweepReuse writes the report as a fixed-width text table.
func RenderSweepReuse(w io.Writer, rep *SweepReuseReport) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-8s %6s | %10s %10s %8s | %9s %6s %8s %5s\n",
		"kind", "topo", "solves", "cold ms", "warm ms", "speedup", "identical", "warm#", "replayed", "track")
	b.WriteString(strings.Repeat("-", 100) + "\n")
	for _, c := range rep.Cells {
		fmt.Fprintf(&b, "%-9s %-8s %6d | %10.2f %10.2f %7.2fx | %9v %6d %8d %5v\n",
			c.Kind, c.Topology, c.Solves,
			float64(c.ColdNs)/1e6, float64(c.WarmNs)/1e6, c.Speedup,
			c.Identical, c.WarmStarts, c.ReplayedDecisions, c.Tracked)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderSweepReuseJSON writes the report as indented JSON, the format
// BENCH_sweepreuse.json tracks across PRs.
func RenderSweepReuseJSON(w io.Writer, rep *SweepReuseReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
