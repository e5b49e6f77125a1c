package spec_test

import (
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/paperex"
	"ftbar/internal/spec"
)

// TestContentKeyDeterministic: the content address is a pure function of
// the problem's content, independent of how the value was built.
func TestContentKeyDeterministic(t *testing.T) {
	k1, err := paperex.Problem().ContentKey()
	if err != nil {
		t.Fatalf("ContentKey: %v", err)
	}
	k2, err := paperex.Problem().ContentKey()
	if err != nil {
		t.Fatalf("ContentKey: %v", err)
	}
	if k1 != k2 {
		t.Fatalf("content keys differ for identical problems: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("content key is not a sha256 hex digest: %q", k1)
	}
}

// TestDeriveIdentical: an identical derivation shares every table by
// pointer, keeps the parent's content address, and compares equal up to
// Rtc.
func TestDeriveIdentical(t *testing.T) {
	p := paperex.Problem()
	if _, err := p.Compile(); err != nil {
		t.Fatalf("parent invalid: %v", err)
	}
	child, d, err := p.Derive(spec.Mutation{Kind: spec.MutIdentical})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if d.Kind != spec.MutIdentical {
		t.Fatalf("delta kind = %v, want identical", d.Kind)
	}
	if child.Exec != p.Exec || child.Comm != p.Comm || child.Alg != p.Alg || child.Arc != p.Arc {
		t.Fatal("identical derivation must share all tables by pointer")
	}
	pk, _ := p.ContentKey()
	ck, _ := child.ContentKey()
	if pk != ck || d.ParentKey != pk {
		t.Fatalf("content keys: parent %s, child %s, delta parent %s — all must match", pk, ck, d.ParentKey)
	}
	if !spec.SameExceptRtc(p, child) {
		t.Fatal("SameExceptRtc(parent, identical child) = false")
	}
	pt, _ := p.Compile()
	if ct, err := child.Compile(); err != nil || ct != pt {
		t.Fatal("derived child must carry the parent's compiled task graph")
	}
}

// TestDeriveRtc: a deadline change keeps every decision-relevant table
// shared but changes the content address, and the problems compare equal
// up to Rtc.
func TestDeriveRtc(t *testing.T) {
	p := paperex.Problem()
	child, d, err := p.Derive(spec.Mutation{Kind: spec.MutRtc, Rtc: spec.Rtc{Deadline: 3.5}})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if d.Kind != spec.MutRtc {
		t.Fatalf("delta kind = %v, want rtc", d.Kind)
	}
	if child.Exec != p.Exec || child.Comm != p.Comm {
		t.Fatal("rtc derivation must share the exec and comm tables")
	}
	if child.Rtc.Deadline != 3.5 {
		t.Fatalf("child deadline = %v, want 3.5", child.Rtc.Deadline)
	}
	pk, _ := p.ContentKey()
	ck, _ := child.ContentKey()
	if pk == ck {
		t.Fatal("an rtc mutation must change the content address")
	}
	if !spec.SameExceptRtc(p, child) || !spec.SameExceptRtc(child, p) {
		t.Fatal("SameExceptRtc(parent, rtc child) = false")
	}

	if _, _, err := p.Derive(spec.Mutation{Kind: spec.MutRtc, Rtc: spec.Rtc{Deadline: -1}}); err == nil {
		t.Fatal("a negative deadline must fail derivation")
	}
}

// genProblem draws a seeded random problem with enough processor slack
// that one may crash (the paper example's distribution constraints pin
// some operations to specific processors, so it cannot lose one).
func genProblem(t *testing.T) *spec.Problem {
	t.Helper()
	p, err := gen.Generate(gen.Params{N: 12, CCR: 1.5, Procs: 4, Npf: 1, Seed: 7})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return p
}

// TestDeriveCrashProc: crashing a processor forbids every operation on it
// and clones only the exec table; the child is no longer equal up to Rtc.
func TestDeriveCrashProc(t *testing.T) {
	p := genProblem(t)
	crashed := arch.ProcID(2)
	child, d, err := p.Derive(spec.Mutation{Kind: spec.MutCrashProc, Proc: crashed})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if d.Kind != spec.MutCrashProc {
		t.Fatalf("delta = %+v, want crash-proc", d)
	}
	if child.Exec == p.Exec {
		t.Fatal("crash-proc must clone the exec table")
	}
	if child.Comm != p.Comm || child.Alg != p.Alg || child.Arc != p.Arc {
		t.Fatal("crash-proc must share everything but the exec table")
	}
	for op := 0; op < p.Alg.NumOps(); op++ {
		if child.Exec.Allowed(model.OpID(op), crashed) {
			t.Fatalf("op %d still allowed on crashed proc %d", op, crashed)
		}
		for q := 0; q < p.Arc.NumProcs(); q++ {
			qq := arch.ProcID(q)
			if qq == crashed {
				continue
			}
			if child.Exec.Time(model.OpID(op), qq) != p.Exec.Time(model.OpID(op), qq) {
				t.Fatalf("op %d proc %d: exec time changed off the crashed column", op, q)
			}
		}
	}
	if err := child.Validate(); err != nil {
		t.Fatalf("derived child invalid: %v", err)
	}
	if spec.SameExceptRtc(p, child) {
		t.Fatal("SameExceptRtc(parent, crashed child) = true")
	}
}

// TestDeriveForbidMedium: killing a medium forbids every dependency on it,
// and the child is no longer equal up to Rtc. The paper's architecture has
// three buses, so one may die with capacity to spare.
func TestDeriveForbidMedium(t *testing.T) {
	p := paperex.Problem()
	dead := arch.MediumID(1)
	child, d, err := p.Derive(spec.Mutation{Kind: spec.MutForbidMedium, Medium: dead})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if d.Kind != spec.MutForbidMedium {
		t.Fatalf("delta = %+v, want forbid-medium", d)
	}
	if child.Comm == p.Comm {
		t.Fatal("forbid-medium must clone the comm table")
	}
	if child.Exec != p.Exec {
		t.Fatal("forbid-medium must share the exec table")
	}
	for e := 0; e < p.Alg.NumEdges(); e++ {
		if child.Comm.Allowed(model.EdgeID(e), dead) {
			t.Fatalf("edge %d still allowed on dead medium %d", e, dead)
		}
	}
	if err := child.Validate(); err != nil {
		t.Fatalf("derived child invalid: %v", err)
	}
	if spec.SameExceptRtc(p, child) {
		t.Fatal("SameExceptRtc(parent, medium-dead child) = true")
	}
}

// TestDeriveFaults: a budget change shares every table, yet the child is
// no longer equal up to Rtc.
func TestDeriveFaults(t *testing.T) {
	p := paperex.Problem()
	child, d, err := p.Derive(spec.Mutation{Kind: spec.MutFaults, Faults: spec.FaultModel{Npf: 0, Nmf: 0}})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if d.Kind != spec.MutFaults {
		t.Fatalf("delta kind = %v, want faults", d.Kind)
	}
	if child.Exec != p.Exec || child.Comm != p.Comm {
		t.Fatal("faults derivation must share the tables")
	}
	if spec.SameExceptRtc(p, child) {
		t.Fatal("SameExceptRtc(parent, rebudgeted child) = true")
	}
}

// TestDiffRejectsUnrelated: problems two mutations apart, and a nil
// problem, are not equal up to Rtc.
func TestDiffRejectsUnrelated(t *testing.T) {
	p := genProblem(t)
	c1, _, err := p.Derive(spec.Mutation{Kind: spec.MutCrashProc, Proc: 1})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	c2, _, err := c1.Derive(spec.Mutation{Kind: spec.MutForbidMedium, Medium: 2})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if spec.SameExceptRtc(p, c2) {
		t.Fatal("SameExceptRtc accepted a two-mutation gap")
	}
	if spec.SameExceptRtc(p, nil) {
		t.Fatal("SameExceptRtc accepted a nil child")
	}
}
