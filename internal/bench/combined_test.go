package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ftbar/internal/spec"
)

// TestCombinedExperiment runs a reduced grid and pins the acceptance
// properties of the joint fault model: the ring and full cells at
// {Npf=1, Nmf=1} mask the entire combined grid under the joint planner
// and carry the joint certificate on every validated schedule, the
// reliability evaluation lands in (0, 1).
func TestCombinedExperiment(t *testing.T) {
	cfg := CombinedConfig{
		Topologies: []string{"full", "ring"},
		Budgets:    []spec.FaultModel{{Npf: 1, Nmf: 1}},
		N:          12,
		CCR:        1,
		Procs:      4,
		Graphs:     3,
		Seed:       2003,
		Q:          0.01,
	}
	rep, err := Combined(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Validated != c.Graphs {
			t.Errorf("%s: %d of %d graphs validated", c.Topology, c.Validated, c.Graphs)
		}
		if c.JointRate != 1 {
			t.Errorf("%s: joint certificate rate %.2f, want 1.0", c.Topology, c.JointRate)
		}
		if c.CombinedMasked != 1 {
			t.Errorf("%s: combined-masked %.3f, want 1.0 at {1,1}", c.Topology, c.CombinedMasked)
		}
		if c.Reliability <= 0 || c.Reliability >= 1 {
			t.Errorf("%s: reliability %g outside (0, 1)", c.Topology, c.Reliability)
		}
	}
}

// TestCombinedRendering pins both output formats: the text table carries
// the column heads, and the JSON trajectory round-trips with the
// experiment tag the regression job keys on.
func TestCombinedRendering(t *testing.T) {
	rep := &CombinedReport{
		Experiment: "combined",
		Config:     DefaultCombined(),
		Cells: []CombinedCell{{
			Topology: "ring", Npf: 1, Nmf: 1, Graphs: 10,
			Validated: 10, ValidatedRate: 1, JointValidated: 10, JointRate: 1,
			CombinedScenarios: 160, CombinedMasked: 1,
			Reliability: 0.9998,
		}},
	}
	var txt bytes.Buffer
	if err := RenderCombined(&txt, rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"topology", "j.rate", "comb", "reliab", "ring"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("table missing %q:\n%s", want, txt.String())
		}
	}
	var js bytes.Buffer
	if err := RenderCombinedJSON(&js, rep); err != nil {
		t.Fatal(err)
	}
	var back CombinedReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "combined" || len(back.Cells) != 1 || back.Cells[0].CombinedMasked != 1 {
		t.Errorf("JSON round-trip mangled the report: %+v", back)
	}
}

// TestCombinedConfigValidation pins the config gate.
func TestCombinedConfigValidation(t *testing.T) {
	if _, err := Combined(CombinedConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Combined(CombinedConfig{
		Topologies: []string{"nosuch"},
		Budgets:    []spec.FaultModel{{Npf: 1, Nmf: 1}},
		Graphs:     1,
	}); err == nil {
		t.Error("unknown topology accepted")
	}
}
