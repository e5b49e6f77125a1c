package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/harness"
	"ftbar/internal/spec"
)

// This file implements the `corpus` experiment: the scenario corpus
// (internal/harness, testdata/scenarios/) run as a benchmark. Every
// committed scenario becomes one cell carrying the measured rates, the
// scenario's floors, whether they were met, and a cold-versus-warm
// timing of the scenario's first problem through a core.RunArena — the
// per-family trajectory BENCH_corpus.json records and the CI
// bench-regression job asserts on.

// CorpusConfig parameterises the corpus experiment.
type CorpusConfig struct {
	// Dir is the scenario directory (testdata/scenarios from the repo
	// root).
	Dir string `json:"dir"`
}

// DefaultCorpus points at the committed corpus relative to the repo
// root, where `ftbench -experiment corpus` runs.
func DefaultCorpus() CorpusConfig {
	return CorpusConfig{Dir: "testdata/scenarios"}
}

// CorpusCell is one scenario's measured outcome.
type CorpusCell struct {
	Name     string `json:"name"`
	Topology string `json:"topology"`
	Family   string `json:"family"`
	Npf      int    `json:"npf"`
	Nmf      int    `json:"nmf"`
	// Outcome is the harness measurement over the scenario population.
	Outcome harness.Outcome `json:"outcome"`
	// Floors and MakespanCeiling restate the scenario's bounds so the
	// committed trajectory is self-contained; FloorsMet reports
	// harness.Check, and FloorsErr carries the violation when not.
	Floors          harness.Floors `json:"floors"`
	MakespanCeiling float64        `json:"makespan_ceiling,omitempty"`
	FloorsMet       bool           `json:"floors_met"`
	FloorsErr       string         `json:"floors_err,omitempty"`
	// ColdMs and WarmMs time the scenario's first problem scheduled cold
	// (plain core.Run) and warm (a second core.RunArena.Run of the same
	// problem, a record replay). Both are 0 when the first problem is
	// refused. Timings are informative, not asserted — wall clock is not
	// reproducible — so the regression checks bind the rates only.
	ColdMs float64 `json:"cold_ms"`
	WarmMs float64 `json:"warm_ms"`
}

// CorpusReport is the machine-readable outcome, the BENCH_corpus.json
// trajectory.
type CorpusReport struct {
	Experiment string       `json:"experiment"`
	Config     CorpusConfig `json:"config"`
	Cells      []CorpusCell `json:"cells"`
	// AllFloorsMet is the headline bit: every scenario cleared its
	// floors.
	AllFloorsMet bool `json:"all_floors_met"`
}

// Corpus runs the experiment over every scenario in cfg.Dir.
func Corpus(cfg CorpusConfig) (*CorpusReport, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("%w: corpus %+v", ErrBadConfig, cfg)
	}
	specs, err := harness.LoadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	rep := &CorpusReport{Experiment: "corpus", Config: cfg, AllFloorsMet: true}
	for _, s := range specs {
		cell := CorpusCell{
			Name: s.Name, Topology: topoName(s.Gen.Topology), Family: famName(s.Gen.Family),
			Npf: s.Gen.Npf, Nmf: s.Gen.Nmf,
			Floors: s.Floors, MakespanCeiling: s.MakespanCeiling,
		}
		out, err := harness.Run(s)
		if err != nil {
			return nil, err
		}
		cell.Outcome = *out
		if err := harness.Check(s, out); err != nil {
			cell.FloorsErr = err.Error()
			rep.AllFloorsMet = false
		} else {
			cell.FloorsMet = true
		}
		cell.ColdMs, cell.WarmMs, err = corpusTiming(s)
		if err != nil {
			return nil, err
		}
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// corpusTiming schedules the scenario's first problem cold and then warm
// through an arena whose record store already holds the run — the replay
// path sweeps and the service scheduler pool live on. Refused problems
// time as (0, 0).
func corpusTiming(s *harness.Spec) (coldMs, warmMs float64, err error) {
	params, err := s.Params(0)
	if err != nil {
		return 0, 0, err
	}
	opts := s.CoreOptions()
	problem, err := gen.Generate(params)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	_, err = core.Run(problem, opts)
	if err != nil {
		if errors.Is(err, spec.ErrMediaDiversity) || errors.Is(err, spec.ErrTooFewprocs) ||
			errors.Is(err, core.ErrNoProcessorChoice) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("corpus %s cold: %w", s.Name, err)
	}
	coldMs = float64(time.Since(start).Microseconds()) / 1000
	arena := core.NewRunArena(4)
	if _, err := arena.Run(problem, opts); err != nil {
		return 0, 0, fmt.Errorf("corpus %s warm seed: %w", s.Name, err)
	}
	start = time.Now()
	if _, err := arena.Run(problem, opts); err != nil {
		return 0, 0, fmt.Errorf("corpus %s warm: %w", s.Name, err)
	}
	warmMs = float64(time.Since(start).Microseconds()) / 1000
	return coldMs, warmMs, nil
}

// topoName and famName normalise the spec's optional strings for the
// report ("" means the defaults).
func topoName(s string) string {
	if s == "" {
		return "full"
	}
	return s
}

func famName(s string) string {
	if s == "" {
		return "layered"
	}
	return s
}

// RenderCorpus writes the report as a fixed-width text table.
func RenderCorpus(w io.Writer, rep *CorpusReport) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-9s %-8s | %3s %3s | %5s %6s %6s | %6s %6s %6s | %8s | %8s %8s\n",
		"scenario", "topology", "family", "Npf", "Nmf", "valid", "rate", "joint",
		"link", "proc", "comb", "floors", "cold ms", "warm ms")
	b.WriteString(strings.Repeat("-", 129) + "\n")
	for _, c := range rep.Cells {
		verdict := "MET"
		if !c.FloorsMet {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(&b, "%-24s %-9s %-8s | %3d %3d | %5d %5.0f%% %5.0f%% | %5.0f%% %5.0f%% %5.0f%% | %8s | %8.2f %8.2f\n",
			c.Name, c.Topology, c.Family, c.Npf, c.Nmf,
			c.Outcome.Validated, c.Outcome.ValidatedRate*100, c.Outcome.JointRate*100,
			c.Outcome.LinkMasked*100, c.Outcome.ProcMasked*100, c.Outcome.CombinedMasked*100,
			verdict, c.ColdMs, c.WarmMs)
	}
	if rep.AllFloorsMet {
		b.WriteString("all floors met\n")
	} else {
		b.WriteString("FLOOR VIOLATIONS:\n")
		for _, c := range rep.Cells {
			if c.FloorsErr != "" {
				fmt.Fprintf(&b, "  %s\n", c.FloorsErr)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCorpusJSON writes the report as indented JSON (the BENCH_corpus
// trajectory format).
func RenderCorpusJSON(w io.Writer, rep *CorpusReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
