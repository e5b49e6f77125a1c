package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunExampleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "example"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"paper worked example", "crash of P1", "measured"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunFig9Small(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "fig9", "-graphs", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Figure 9") {
		t.Errorf("missing header: %s", out.String())
	}
}

func TestRunFig10CSV(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "fig10", "-graphs", "2", "-csv"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.HasPrefix(out.String(), "ccr,ftbar_overhead") {
		t.Errorf("missing CSV header: %s", out.String())
	}
	if got := strings.Count(out.String(), "\n"); got != 7 { // header + 6 CCRs
		t.Errorf("CSV rows = %d, want 7", got)
	}
}

func TestRunNpfSmall(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "npf", "-graphs", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Npf sweep") {
		t.Errorf("missing header: %s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	// service and cluster were load experiments; benchmark/ measures load.
	// faults and combined became scenarios in testdata/scenarios. scaling
	// timed the planner against the reference engine, which is now a
	// test-only oracle in internal/core.
	for _, name := range []string{"fig42", "service", "cluster", "faults", "combined", "scaling"} {
		if err := run([]string{"-experiment", name}, &out); err == nil {
			t.Errorf("unknown experiment %q accepted", name)
		}
	}
	for _, flag := range []string{"-stages", "-nmf"} {
		if err := run([]string{"-experiment", "example", flag, "1"}, &out); err == nil {
			t.Errorf("unknown flag %s accepted", flag)
		}
	}
	if err := run([]string{"-experiment", "fig9", "-topology", "moebius"}, &out); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestRunFig9Topology(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "fig9", "-graphs", "2", "-topology", "bus"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "topology=bus") {
		t.Errorf("missing topology in header: %s", out.String())
	}
}

// TestRunRefusesUnsupportedOutputFlags: an experiment that cannot emit
// JSON or CSV must fail with an error naming the experiments that can,
// instead of printing a table that a downstream parser chokes on.
func TestRunRefusesUnsupportedOutputFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "example", "-json"}, "-json is not supported by experiment \"example\" (only sweepreuse, corpus)"},
		{[]string{"-experiment", "fig9", "-json"}, "-json is not supported by experiment \"fig9\""},
		{[]string{"-experiment", "fig10", "-json"}, "-json is not supported by experiment \"fig10\""},
		{[]string{"-experiment", "npf", "-json"}, "-json is not supported by experiment \"npf\""},
		{[]string{"-experiment", "example", "-csv"}, "-csv is not supported by experiment \"example\" (only fig9, fig10)"},
		{[]string{"-experiment", "npf", "-csv"}, "-csv is not supported by experiment \"npf\""},
		{[]string{"-experiment", "sweepreuse", "-csv"}, "-csv is not supported by experiment \"sweepreuse\""},
		{[]string{"-experiment", "corpus", "-csv"}, "-csv is not supported by experiment \"corpus\""},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: error %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run %v printed %q before refusing", tc.args, out.String())
		}
	}
}

// TestRunCorpusSmall smoke-tests the corpus experiment end to end on a
// one-scenario directory: table, JSON, and the non-zero exit on a floor
// violation.
func TestRunCorpusSmall(t *testing.T) {
	dir := t.TempDir()
	ok := `{"version": 1, "name": "tiny", "gen": {"n": 8, "ccr": 1, "procs": 4, "npf": 1, "seed": 5}, "graphs": 1, "floors": {"validated_rate": 1.0, "link_masked": 1.0}}`
	if err := os.WriteFile(filepath.Join(dir, "tiny.json"), []byte(ok), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-experiment", "corpus", "-scenarios", dir}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"Corpus: 1 scenarios", "tiny", "all floors met"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("corpus table missing %q: %s", want, out.String())
		}
	}
	out.Reset()
	if err := run([]string{"-experiment", "corpus", "-scenarios", dir, "-json"}, &out); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	var rep struct {
		Experiment   string `json:"experiment"`
		AllFloorsMet bool   `json:"all_floors_met"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("JSON report: %v", err)
	}
	if rep.Experiment != "corpus" || !rep.AllFloorsMet {
		t.Fatalf("implausible report: %+v", rep)
	}
	// A violated floor must fail the command (CI relies on the exit code).
	bad := `{"version": 1, "name": "bad", "gen": {"n": 8, "ccr": 1, "procs": 4, "topology": "star", "npf": 1, "nmf": 1, "seed": 5}, "graphs": 1, "floors": {"validated_rate": 1.0}}`
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-experiment", "corpus", "-scenarios", dir}, &out); err == nil {
		t.Error("floor violation exited zero")
	}
}
