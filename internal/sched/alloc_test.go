package sched

// Allocation regression guards for the planning hot path: Preview must not
// allocate in steady state (the scratch free list, epoch overlays and the
// partial selection of earliestReplicasInto replace the per-call maps and
// copy+sorts of the seed implementation). The gates are exact in every
// build mode, the race detector's included.

import (
	"runtime/debug"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
)

// previewFixture builds a mid-construction schedule with a non-trivial
// candidate: every predecessor of the probed task is placed, remote
// deliveries are required, and media already carry contention.
func previewFixture(tb testing.TB) (*Schedule, model.TaskID, arch.ProcID) {
	tb.Helper()
	p, err := gen.Generate(gen.Params{N: 40, CCR: 2, Procs: 4, Npf: 1, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	s, err := NewSchedule(p)
	if err != nil {
		tb.Fatal(err)
	}
	tg := s.Tasks()
	topo := tg.Topo()
	// Place the first two thirds of the tasks on alternating processor
	// pairs, then probe the next task in topological order.
	placed := 2 * len(topo) / 3
	for i := 0; i < placed; i++ {
		t := topo[i]
		for k := 0; k <= p.Npf; k++ {
			proc := arch.ProcID((i + k) % p.Arc.NumProcs())
			if _, err := s.PlaceReplica(t, proc); err != nil {
				tb.Fatalf("place %d on %d: %v", t, proc, err)
			}
		}
	}
	probe := topo[placed]
	dst := arch.ProcID((placed + 3) % p.Arc.NumProcs())
	if _, err := s.Preview(probe, dst); err != nil {
		tb.Fatalf("fixture preview: %v", err)
	}
	return s, probe, dst
}

func TestPreviewDoesNotAllocate(t *testing.T) {
	s, probe, dst := previewFixture(t)
	// Warm the scratch list and the route memos.
	for i := 0; i < 10; i++ {
		if _, err := s.Preview(probe, dst); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Preview(probe, dst); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("Preview allocates %.2f allocs/op, want 0", avg)
	}
}

func TestPreviewTouchedDoesNotAllocate(t *testing.T) {
	s, probe, dst := previewFixture(t)
	bounds := make([]MediumBound, 0, s.Problem().Arc.NumMedia())
	for i := 0; i < 10; i++ {
		var err error
		if _, bounds, err = s.PreviewTouched(probe, dst, bounds[:0]); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		var err error
		if _, bounds, err = s.PreviewTouched(probe, dst, bounds[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("PreviewTouched allocates %.2f allocs/op, want 0", avg)
	}
}

func TestEarliestRepsIntoSelection(t *testing.T) {
	// One task with five replicas on five processors, ends chosen so the
	// (End, Index) order differs from placement order.
	var s Schedule
	s.slab.init(1, 5, 1)
	for i, end := range []float64{5, 2, 2, 8, 1} {
		s.slab.appendReplica(0, i, 0, end)
	}
	var scratch []repID
	scratch = s.earliestRepsInto(scratch, 0, 3)
	want := []int32{4, 1, 2} // by (End, Index): 1, 2#1, 2#2
	if len(scratch) != len(want) {
		t.Fatalf("got %d replicas, want %d", len(scratch), len(want))
	}
	for i, r := range scratch {
		if s.slab.repIndex[r] != want[i] {
			t.Errorf("selection[%d] = replica %d, want %d", i, s.slab.repIndex[r], want[i])
		}
	}
	// n larger than the set: all replicas, still sorted.
	scratch = s.earliestRepsInto(scratch, 0, 10)
	if len(scratch) != s.slab.numReps() {
		t.Fatalf("got %d replicas, want %d", len(scratch), s.slab.numReps())
	}
	for i := 1; i < len(scratch); i++ {
		if s.slab.repEarlier(scratch[i], scratch[i-1]) {
			t.Errorf("selection out of order at %d", i)
		}
	}
}

func BenchmarkPreview(b *testing.B) {
	s, probe, dst := previewFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Preview(probe, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreviewTouched(b *testing.B) {
	s, probe, dst := previewFixture(b)
	bounds := make([]MediumBound, 0, s.Problem().Arc.NumMedia())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, bounds, err = s.PreviewTouched(probe, dst, bounds[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPreviewZeroAllocsGCOff is the preview gate with the collector
// paused, so no allocation can hide behind a collection between runs.
func TestPreviewZeroAllocsGCOff(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, probe, dst := previewFixture(t)
	for i := 0; i < 10; i++ {
		if _, err := s.Preview(probe, dst); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Preview(probe, dst); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Preview allocates %v allocs/op with GC off, want exactly 0", avg)
	}
}

// TestCheckpointRollbackAllocs pins the in-place undo: once a Checkpoint's
// buffers have grown to the schedule's size, repeated checkpoint/rollback
// cycles are pure slice copies.
func TestCheckpointRollbackAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, _, _ := previewFixture(t)
	cp := new(Checkpoint)
	for i := 0; i < 3; i++ { // grow cp's buffers
		s.Checkpoint(cp)
		s.Rollback(cp)
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.Checkpoint(cp)
		s.Rollback(cp)
	}); avg != 0 {
		t.Errorf("checkpoint+rollback allocates %v allocs/op, want 0", avg)
	}
}

// TestCloneAllocsBounded pins Clone's shape: a slab memcpy plus a bounded
// handful of header allocations, never proportional to the number of
// scheduled replicas or comms. The bound is deliberately loose — the
// regression it guards against is the seed's per-entry deep copy, which
// was hundreds of allocations on this fixture.
func TestCloneAllocsBounded(t *testing.T) {
	s, _, _ := previewFixture(t)
	avg := testing.AllocsPerRun(20, func() {
		s.Clone()
	})
	if avg > 40 {
		t.Errorf("Clone allocates %v allocs/op, want a small constant (≤ 40)", avg)
	}
}
