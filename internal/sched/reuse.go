package sched

import (
	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/spec"
)

// This file is the sched half of the cross-run reuse layer (DESIGN.md
// Section 15): donor-backed construction that recycles a retired
// schedule's slab storage, and the commit-order replica accessor the
// decision recorder walks.

// ReplicaByOrder returns replica i in global commit order (0 ≤ i <
// TotalReplicas) by value, without materialising the pointer view. The
// decision recorder uses it to snapshot the placement log of a finished
// run; replayers re-commit those placements in the same order.
func (s *Schedule) ReplicaByOrder(i int) Replica {
	sl := &s.slab
	return Replica{
		Task:  model.TaskID(sl.repTask[i]),
		Index: int(sl.repIndex[i]),
		Proc:  arch.ProcID(sl.repProc[i]),
		Start: sl.repStart[i],
		End:   sl.repEnd[i],
	}
}

// NewScheduleReusing returns an empty schedule for p, recycling the slab
// column capacity — and, when the problems share structure, the immutable
// precomputed tables — of a retired donor schedule. The donor is consumed:
// its storage is stolen, and it must not be used again. A nil or
// shape-mismatched donor degrades to NewSchedule.
//
// Like NewSchedule, the problem is validated through Compile unless its
// task graph is already memoised (the spec.Derive path, which validates
// at derivation time instead).
func NewScheduleReusing(p *spec.Problem, donor *Schedule) (*Schedule, error) {
	if donor == nil {
		return NewSchedule(p)
	}
	tasks, err := p.Compile()
	if err != nil {
		return nil, err
	}
	nProcs, nMedia := p.Arc.NumProcs(), p.Arc.NumMedia()
	if donor.slab.nTasks != tasks.NumTasks() || donor.slab.nProcs != nProcs || donor.slab.nMedia != nMedia {
		return NewSchedule(p)
	}
	s := &Schedule{
		problem:   p,
		tasks:     tasks,
		faults:    p.FaultModel(),
		procEnd:   zeroFloats(donor.procEnd),
		mediumEnd: zeroFloats(donor.mediumEnd),
	}
	if donor.problem.Arc == p.Arc {
		// Derive shares the architecture by pointer, so the scratch list
		// (whose plan buffers are sized by nMedia, and whose fan search
		// scratch serves every FanCache in the carried fan memo; none
		// carries schedule state) transfers as-is.
		s.scratch = donor.scratch
	} else {
		s.scratch = &scratchList{nMedia: nMedia}
	}
	if donor.problem.Arc == p.Arc && donor.problem.Comm == p.Comm {
		// Routes and fans depend only on the architecture and the comm
		// table, both shared: the warm memos stay exact.
		s.routes = donor.routes
		s.fans = donor.fans
	} else {
		s.routes = make(map[model.EdgeID]*arch.RouteTable)
		s.fans = make(map[model.EdgeID]*arch.FanCache)
	}
	s.slab = donor.slab
	s.slab.reset()
	donor.slab = slab{}
	return s, nil
}

// reset empties the slab in place, keeping every column's capacity. Index
// rows beyond the zeroed fills are stale and never read, exactly as after
// a Rollback.
func (sl *slab) reset() {
	sl.truncate(0, 0)
	for i := range sl.taskRepN {
		sl.taskRepN[i] = 0
	}
	for i := range sl.procSeqN {
		sl.procSeqN[i] = 0
	}
	for m := range sl.medHead {
		sl.medHead[m], sl.medTail[m] = -1, -1
		sl.medSeqN[m] = 0
	}
}

func zeroFloats(b []float64) []float64 {
	for i := range b {
		b[i] = 0
	}
	return b
}
