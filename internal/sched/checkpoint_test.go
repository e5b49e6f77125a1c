package sched

import (
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
)

// snapshotState captures the externally observable schedule state.
type snapshotState struct {
	lengths   []int
	procSeqs  []int
	medSeqs   []int
	procEnds  []float64
	medEnds   []float64
	numComms  int
	schLength float64
}

func captureState(s *Schedule) snapshotState {
	st := snapshotState{numComms: s.NumComms(), schLength: s.Length()}
	for t := 0; t < s.Tasks().NumTasks(); t++ {
		st.lengths = append(st.lengths, len(s.Replicas(model.TaskID(t))))
	}
	for p := 0; p < s.Problem().Arc.NumProcs(); p++ {
		st.procSeqs = append(st.procSeqs, len(s.ProcSeq(arch.ProcID(p))))
		st.procEnds = append(st.procEnds, s.ProcEnd(arch.ProcID(p)))
	}
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		st.medSeqs = append(st.medSeqs, len(s.MediumSeq(arch.MediumID(m))))
		st.medEnds = append(st.medEnds, s.MediumEnd(arch.MediumID(m)))
	}
	return st
}

func statesEqual(a, b snapshotState) bool {
	if a.numComms != b.numComms || a.schLength != b.schLength {
		return false
	}
	eqI := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	eqF := func(x, y []float64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	return eqI(a.lengths, b.lengths) && eqI(a.procSeqs, b.procSeqs) && eqI(a.medSeqs, b.medSeqs) &&
		eqF(a.procEnds, b.procEnds) && eqF(a.medEnds, b.medEnds)
}

func TestCheckpointRollbackRestoresState(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 20, CCR: 2, Procs: 3, Npf: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	topo := s.Tasks().Topo()
	half := len(topo) / 2
	for i := 0; i < half; i++ {
		for k := 0; k <= p.Npf; k++ {
			if _, err := s.PlaceReplica(topo[i], arch.ProcID((i+k)%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := captureState(s)
	var cp Checkpoint
	s.Checkpoint(&cp)
	// Speculate: place the rest, then roll back.
	for i := half; i < len(topo); i++ {
		for k := 0; k <= p.Npf; k++ {
			if _, err := s.PlaceReplica(topo[i], arch.ProcID((i+k)%3)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if statesEqual(before, captureState(s)) {
		t.Fatal("speculation did not change the schedule; test is vacuous")
	}
	s.Rollback(&cp)
	if !statesEqual(before, captureState(s)) {
		t.Error("rollback did not restore the checkpointed state")
	}
	// Replaying the same speculation must now reproduce identical times.
	pl, err := s.Preview(topo[half], arch.ProcID(half%3))
	if err != nil {
		t.Fatalf("preview after rollback: %v", err)
	}
	if pl.SBest < 0 {
		t.Errorf("bad placement after rollback: %+v", pl)
	}
}

func TestCheckpointNests(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 3, Npf: 0, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	topo := s.Tasks().Topo()
	place := func(i int) {
		t.Helper()
		if _, err := s.PlaceReplica(topo[i], arch.ProcID(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	place(0)
	outerState := captureState(s)
	var outer, inner Checkpoint
	s.Checkpoint(&outer)
	place(1)
	innerState := captureState(s)
	s.Checkpoint(&inner)
	place(2)
	place(3)
	s.Rollback(&inner)
	if !statesEqual(innerState, captureState(s)) {
		t.Error("inner rollback did not restore")
	}
	s.Rollback(&outer)
	if !statesEqual(outerState, captureState(s)) {
		t.Error("outer rollback did not restore")
	}
}
