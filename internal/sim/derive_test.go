package sim

import (
	"testing"

	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/spec"
)

// TestScenarioProblem: scenarios expressible as one Derive mutation map
// to the right mutation kind; everything else is declined.
func TestScenarioProblem(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 12, CCR: 1.5, Procs: 4, Npf: 1, Seed: 19})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	// No failures → the identical derivation.
	child, d, ok, err := ScenarioProblem(p, Scenario{})
	if err != nil || !ok || d.Kind != spec.MutIdentical || child == nil {
		t.Fatalf("empty scenario: child=%v delta=%+v ok=%t err=%v", child != nil, d, ok, err)
	}
	pk, _ := p.ContentKey()
	if d.ParentKey != pk {
		t.Errorf("empty scenario: parent key %s, want %s", d.ParentKey, pk)
	}

	// One permanent processor failure → crash-proc.
	child, d, ok, err = ScenarioProblem(p, Scenario{Failures: []Failure{Permanent(2, 0)}})
	if err != nil || !ok || d.Kind != spec.MutCrashProc {
		t.Fatalf("permanent crash: delta=%+v ok=%t err=%v", d, ok, err)
	}
	for op := 0; op < p.Alg.NumOps(); op++ {
		if child.Exec.Allowed(model.OpID(op), 2) {
			t.Errorf("op %d still allowed on the crashed processor", op)
		}
	}

	// One permanent medium failure → forbid-medium (when the topology
	// survives it; a full point-to-point mesh does).
	child, d, ok, err = ScenarioProblem(p, Scenario{MediumFailures: []MediumFailure{PermanentLink(1, 0)}})
	if err != nil || !ok || d.Kind != spec.MutForbidMedium {
		t.Fatalf("permanent link death: delta=%+v ok=%t err=%v", d, ok, err)
	}
	for e := 0; e < p.Alg.NumEdges(); e++ {
		if child.Comm.Allowed(model.EdgeID(e), 1) {
			t.Errorf("edge %d still allowed on the dead medium", e)
		}
	}

	// Transient and compound scenarios are not one static mutation.
	for name, sc := range map[string]Scenario{
		"transient proc":   {Failures: []Failure{{Proc: 1, At: 0, Until: 5}}},
		"two crashes":      {Failures: []Failure{Permanent(0, 0), Permanent(1, 0)}},
		"proc plus medium": {Failures: []Failure{Permanent(0, 0)}, MediumFailures: []MediumFailure{PermanentLink(0, 0)}},
	} {
		if _, _, ok, err := ScenarioProblem(p, sc); ok || err != nil {
			t.Errorf("%s: ok=%t err=%v, want declined", name, ok, err)
		}
	}
}
