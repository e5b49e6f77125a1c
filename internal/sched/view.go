package sched

import (
	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// scheduleView is the pointer-shaped materialisation of the slab, built
// lazily for the cold consumers of the public accessors (validation,
// simulation, the executive, rendering, export). All pointers of one view
// alias two backing arrays, so pointer identity is stable across accessor
// calls on the same view: Replicas(t)[i] and ProcSeq(p)[j] hand out the
// same *Replica for the same replica, which the map-keyed test oracles
// rely on (they key maps on *Replica/*Comm); the validators, the simulator
// and the executive address replicas and comms by the dense ids of the
// delivery index instead. Any commit or rollback invalidates the view;
// the next accessor call rebuilds it from the columns.
type scheduleView struct {
	reps  []Replica
	comms []Comm
	// byTask lists the replicas task by task in index order: task t's are
	// byTask[repStart[t]:repStart[t+1]]. The delivery index numbers
	// replicas by this order and shares both slices.
	byTask    []*Replica
	repStart  []int32
	procSeq   [][]*Replica // per processor, in placement order
	mediumSeq [][]*Comm    // per medium, in commit order
}

// viewRO returns the current view, building it if a mutation invalidated
// it. Concurrent readers are safe: the fast path is one atomic load, and
// the build is serialised under viewMu with a double-check so every reader
// of one schedule state shares a single view instance.
func (s *Schedule) viewRO() *scheduleView {
	if v := s.view.Load(); v != nil {
		return v
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if v := s.view.Load(); v != nil {
		return v
	}
	v := s.buildView()
	s.view.Store(v)
	return v
}

// invalidateView drops the materialised view after a mutation.
func (s *Schedule) invalidateView() { s.view.Store(nil) }

func (s *Schedule) buildView() *scheduleView {
	sl := &s.slab
	nReps, nComms := sl.numReps(), sl.numComms()
	v := &scheduleView{
		reps:      make([]Replica, nReps),
		comms:     make([]Comm, nComms),
		byTask:    make([]*Replica, 0, nReps),
		repStart:  make([]int32, sl.nTasks+1),
		procSeq:   make([][]*Replica, sl.nProcs),
		mediumSeq: make([][]*Comm, sl.nMedia),
	}
	for id := 0; id < nReps; id++ {
		v.reps[id] = Replica{
			Task:  model.TaskID(sl.repTask[id]),
			Index: int(sl.repIndex[id]),
			Proc:  arch.ProcID(sl.repProc[id]),
			Start: sl.repStart[id],
			End:   sl.repEnd[id],
		}
	}
	for id := 0; id < nComms; id++ {
		v.comms[id] = Comm{
			Edge:     model.TaskEdgeID(sl.commEdge[id]),
			Orig:     model.EdgeID(sl.commOrig[id]),
			SrcIndex: int(sl.commSrc[id]),
			DstIndex: int(sl.commDst[id]),
			Hop:      int(sl.commHop[id]),
			LastHop:  sl.commLast[id],
			Medium:   arch.MediumID(sl.commMedium[id]),
			From:     arch.ProcID(sl.commFrom[id]),
			To:       arch.ProcID(sl.commTo[id]),
			Start:    sl.commStart[id],
			End:      sl.commEnd[id],
		}
	}
	// The per-task and per-processor rows are windows of two shared
	// pointer arrays (capacity-limited so a caller's append cannot clobber
	// a neighbouring row).
	for t := 0; t < sl.nTasks; t++ {
		row := t * sl.nProcs
		for i := 0; i < int(sl.taskRepN[t]); i++ {
			v.byTask = append(v.byTask, &v.reps[sl.taskReps[row+i]])
		}
		v.repStart[t+1] = int32(len(v.byTask))
	}
	procPtrs := make([]*Replica, 0, nReps)
	for p := 0; p < sl.nProcs; p++ {
		row, start := p*sl.nTasks, len(procPtrs)
		for j := 0; j < int(sl.procSeqN[p]); j++ {
			procPtrs = append(procPtrs, &v.reps[sl.procSeq[row+j]])
		}
		v.procSeq[p] = procPtrs[start:len(procPtrs):len(procPtrs)]
	}
	commPtrs := make([]*Comm, 0, nComms)
	for m := 0; m < sl.nMedia; m++ {
		start := len(commPtrs)
		id := sl.medHead[m]
		// The walk is bounded by the count, never by the links: a rolled
		// back tail can leave a stale commNext behind (see slab.truncate).
		for k := 0; k < int(sl.medSeqN[m]); k++ {
			commPtrs = append(commPtrs, &v.comms[id])
			id = sl.commNext[id]
		}
		v.mediumSeq[m] = commPtrs[start:len(commPtrs):len(commPtrs)]
	}
	return v
}
