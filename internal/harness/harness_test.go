package harness

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// scenarioDir is the committed corpus, relative to this package.
const scenarioDir = "../../testdata/scenarios"

// TestCorpusScenarios is the corpus runner: every committed scenario
// executes through core.Run and the crash sweeps and must clear its
// floors. Scenarios run as subtests so one regression names itself.
func TestCorpusScenarios(t *testing.T) {
	specs, err := LoadDir(scenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 12 {
		t.Fatalf("corpus has %d scenarios, want >= 12", len(specs))
	}
	families := map[string]bool{}
	topologies := map[string]bool{}
	for _, s := range specs {
		families[s.Gen.Family] = true
		topologies[s.Gen.Topology] = true
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			out, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(s, out); err != nil {
				t.Errorf("floors violated: %v", err)
			}
			if out.Graphs != s.Graphs {
				t.Errorf("ran %d graphs, want %d", out.Graphs, s.Graphs)
			}
			// Every generated problem is refused up front, refused by the
			// planner, or validated: none is lost between the stages.
			if got := out.SpecRejected + out.SchedRejected + out.Validated; got != out.Graphs {
				t.Errorf("spec_rejected %d + sched_rejected %d + validated %d = %d, want graphs %d",
					out.SpecRejected, out.SchedRejected, out.Validated, got, out.Graphs)
			}
		})
	}
	// The corpus must span the structured families and grid topologies
	// (ISSUE acceptance: >= 3 new families, >= 3 new topologies).
	for _, fam := range []string{"forkjoin", "matmul", "chain"} {
		if !families[fam] {
			t.Errorf("corpus lacks a %s scenario", fam)
		}
	}
	for _, topo := range []string{"mesh", "torus", "hypercube", "geom"} {
		if !topologies[topo] {
			t.Errorf("corpus lacks a %s scenario", topo)
		}
	}
}

// TestCorpusNamesMatchFiles pins the file-name convention: a scenario
// file is named after its scenario.
func TestCorpusNamesMatchFiles(t *testing.T) {
	specs, err := LoadDir(scenarioDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if _, err := LoadFile(filepath.Join(scenarioDir, s.Name+".json")); err != nil {
			t.Errorf("scenario %q not in file %s.json: %v", s.Name, s.Name, err)
		}
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	valid := `{
	  "version": 1, "name": "ok",
	  "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1},
	  "graphs": 1, "floors": {"validated_rate": 0}
	}`
	if _, err := Parse(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]string{
		"unknown field": `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}, "bogus": 1}`,
		"wrong version": `{"version": 2, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}}`,
		"empty name":    `{"version": 1, "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}}`,
		"no graphs":     `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "floors": {"validated_rate": 0}}`,
		"bad topology":  `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "topology": "moebius", "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}}`,
		"bad family":    `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "family": "spaghetti", "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}}`,
		"engine option": `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "options": {"engine": "reference"}, "floors": {"validated_rate": 0}}`,
		"floor above 1": `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 1.5}}`,
		"joint above 1": `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0, "joint_rate": 1.01}}`,
		"bad ceiling":   `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}, "makespan_ceiling": -1}`,
		"ungeneratable": `{"version": 1, "name": "x", "gen": {"n": 0, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}}`,
		"trailing doc":  `{"version": 1, "name": "x", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}} {}`,
	}
	for label, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: error = %v, want ErrBadSpec", label, err)
		}
	}
}

// TestCheckFloors pins the floor semantics: floors bind from below, mask
// floors only bind once something validated, and the ceiling binds from
// above.
func TestCheckFloors(t *testing.T) {
	s := &Spec{
		Name:            "t",
		Floors:          Floors{ValidatedRate: 0.8, LinkMasked: 1, CombinedMasked: 0.5},
		MakespanCeiling: 10,
	}
	ok := &Outcome{Validated: 4, ValidatedRate: 0.8, LinkMasked: 1, CombinedMasked: 0.5, MakespanMean: 10}
	if err := Check(s, ok); err != nil {
		t.Errorf("boundary outcome fails: %v", err)
	}
	low := &Outcome{Validated: 4, ValidatedRate: 0.79, LinkMasked: 1, CombinedMasked: 0.5, MakespanMean: 9}
	if err := Check(s, low); err == nil || !strings.Contains(err.Error(), "validated_rate") {
		t.Errorf("low rate error = %v", err)
	}
	slow := &Outcome{Validated: 4, ValidatedRate: 1, LinkMasked: 1, CombinedMasked: 0.5, MakespanMean: 10.1}
	if err := Check(s, slow); err == nil || !strings.Contains(err.Error(), "makespan_mean") {
		t.Errorf("ceiling error = %v", err)
	}
	// Nothing validated: only the rate floor speaks.
	none := &Outcome{Validated: 0, ValidatedRate: 0}
	if err := Check(s, none); err == nil || strings.Contains(err.Error(), "link_masked") {
		t.Errorf("empty outcome error = %v, want rate-only failure", err)
	}
	s.Floors.ValidatedRate = 0
	if err := Check(s, none); err != nil {
		t.Errorf("zero-floor empty outcome fails: %v", err)
	}
	// The joint floor binds from below over Graphs like validated_rate:
	// also when nothing validated, and alone in its message.
	s.Floors.JointRate = 0.5
	if err := Check(s, &Outcome{Validated: 4, ValidatedRate: 1, LinkMasked: 1, CombinedMasked: 0.5,
		JointRate: 0.5, MakespanMean: 10}); err != nil {
		t.Errorf("boundary joint rate fails: %v", err)
	}
	lowJoint := &Outcome{Validated: 4, ValidatedRate: 1, LinkMasked: 1, CombinedMasked: 0.5,
		JointRate: 0.4, MakespanMean: 10}
	if err := Check(s, lowJoint); err == nil || !strings.Contains(err.Error(), "joint_rate") ||
		strings.Contains(err.Error(), "validated_rate") {
		t.Errorf("low joint rate error = %v, want a joint_rate-only failure", err)
	}
	if err := Check(s, none); err == nil || !strings.Contains(err.Error(), "joint_rate") {
		t.Errorf("empty outcome error = %v, want the joint_rate floor to bind", err)
	}
}

// TestLoadDirRejectsDuplicates builds a directory with two files naming
// the same scenario.
func TestLoadDirRejectsDuplicates(t *testing.T) {
	dir := t.TempDir()
	doc := `{"version": 1, "name": "dup", "gen": {"n": 5, "ccr": 1, "procs": 4, "npf": 1, "seed": 1}, "graphs": 1, "floors": {"validated_rate": 0}}`
	for _, f := range []string{"a.json", "b.json"} {
		if err := writeFile(t, dir, f, doc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadDir(dir); !errors.Is(err, ErrBadSpec) {
		t.Errorf("duplicate names error = %v, want ErrBadSpec", err)
	}
}
