package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly with tracing on. It keeps the
// benchmark compiling and running against the APIs it calls, and fails
// on any output that does not match its check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about ten seconds")
	}
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--smoke", "--trace-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	results := 0
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		results++
		var out runOutput
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		if !out.Correct || out.Attempted == 0 || len(out.Metrics) != len(perLayer) {
			t.Errorf("result %q: want correct, attempted > 0 and every per-layer metric", line)
		}
	}
	if results != len(workloads) {
		t.Errorf("%d result lines, want %d", results, len(workloads))
	}
	for _, w := range workloads {
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+"-2003.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s trace: %d events, %v", w.name, len(doc.TraceEvents), err)
		}
	}
}
