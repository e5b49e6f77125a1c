package spec_test

import (
	"encoding/json"
	"testing"

	"ftbar/internal/gen"
	"ftbar/internal/spec"
)

// dense200 returns a 200-task layered problem on 16 fully connected
// processors and its JSON document (about 1 MB, nearly all of it the
// comm table's |edges| × 120 cells): the dense shape whose decode,
// validation and schedule preparation dominate plan-cold operations.
func dense200(tb testing.TB) (*spec.Problem, []byte) {
	tb.Helper()
	p, err := gen.Generate(gen.Params{N: 200, CCR: 1, Procs: 16, Topology: gen.TopoFull,
		Family: gen.FamLayered, Npf: 1, Seed: 2003})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		tb.Fatal(err)
	}
	return p, data
}

func BenchmarkProblemDecode(b *testing.B) {
	_, data := dense200(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p spec.Problem
		if err := json.Unmarshal(data, &p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProblemMarshal(b *testing.B) {
	p, data := dense200(b)
	for _, bc := range []struct {
		name    string
		marshal func() ([]byte, error)
	}{
		{"json.Marshal", func() ([]byte, error) { return json.Marshal(p) }},
		{"MarshalJSON", p.MarshalJSON}, // the content-key path
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.marshal(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProblemValidate(b *testing.B) {
	p, _ := dense200(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProblemDecodeAllocs is the allocation gate of the table codec: the
// table parser allocates per table and per growth of its cell buffer,
// never per cell, so decoding the dense 200-task problem stays far below
// its 51,200 cells. The per-cell codec it replaced made about 263,000
// allocations here; the graph and architecture decoders, which allocate
// per operation, edge and medium, account for most of what remains. The
// gate counts allocations, not time, so a loaded machine cannot trip it.
func TestProblemDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	_, data := dense200(t)
	allocs := testing.AllocsPerRun(5, func() {
		var p spec.Problem
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 10000 {
		t.Errorf("decoding the dense 200-task problem makes %.0f allocations, want < 10000", allocs)
	}
}
