package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftbar/internal/core"
)

// legacySpec is an npf-only document: nmf, family, topology, options and
// the optional floors are all omitted, the oldest shape a committed
// scenario may have. The loader must keep accepting it.
const legacySpec = `{
  "version": 1,
  "name": "legacy-npf-only",
  "gen": {"n": 8, "ccr": 1, "procs": 4, "npf": 1, "seed": 3},
  "graphs": 1,
  "floors": {"validated_rate": 0}
}`

// FuzzSpecRoundTrip checks the loader's canonicalisation property: any
// document Parse accepts marshals to a form that Parse accepts again and
// that re-marshals bit-identically. Seeded with the committed corpus, so
// `go test -fuzz=FuzzSpecRoundTrip ./internal/harness` mutates real
// scenarios.
func FuzzSpecRoundTrip(f *testing.F) {
	entries, err := os.ReadDir(scenarioDir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(scenarioDir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(legacySpec))
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // invalid documents are refused, nothing to round-trip
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		s2, err := Parse(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("marshalled form of an accepted spec refused: %v\n%s", err, first)
		}
		second, err := json.Marshal(s2)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("round-trip not bit-identical:\n first: %s\nsecond: %s", first, second)
		}
	})
}

// TestLegacySpecAccepted pins the seed corpus of the fuzz target: the
// npf-only document parses with the implied defaults.
func TestLegacySpecAccepted(t *testing.T) {
	s, err := Parse(strings.NewReader(legacySpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Gen.Nmf != 0 || s.Gen.Family != "" || s.Gen.Topology != "" {
		t.Errorf("legacy defaults not zero: %+v", s.Gen)
	}
	params, err := s.Params(0)
	if err != nil {
		t.Fatal(err)
	}
	if params.Topology.String() != "full" || params.Family.String() != "layered" {
		t.Errorf("legacy params = %s/%s, want full/layered",
			params.Topology, params.Family)
	}
	if opts := s.CoreOptions(); opts != (core.Options{}) {
		t.Errorf("legacy options = %+v, want the zero value", opts)
	}
}
