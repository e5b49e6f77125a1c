package sched

// Checkpoint captures the commit state of a schedule so speculative work
// can be undone in place. Every mutation a Schedule performs is an append
// into the slab columns plus updates to small per-processor / per-medium /
// per-task arrays, so a checkpoint is two column lengths and flat slice
// copies of those arrays — no per-replica or per-comm work at all. Rolling
// back truncates the columns and copies the arrays back, which is orders
// of magnitude cheaper than the Clone-and-swap undo and allocation-free
// once the buffers exist.
//
// Checkpoints nest like a stack: taking a checkpoint, mutating, and
// rolling back restores exactly the state at the take, including across
// nested take/rollback cycles in between. The zero value is ready to use
// and buffers are reused across takes.
type Checkpoint struct {
	nReps, nComms int
	taskRepN      []int32
	procSeqN      []int32
	medSeqN       []int32
	medHead       []commID
	medTail       []commID
	procEnd       []float64
	mediumEnd     []float64
}

// Checkpoint records the current commit state into cp, reusing its
// buffers.
func (s *Schedule) Checkpoint(cp *Checkpoint) {
	sl := &s.slab
	cp.nReps, cp.nComms = sl.numReps(), sl.numComms()
	cp.taskRepN = append(cp.taskRepN[:0], sl.taskRepN...)
	cp.procSeqN = append(cp.procSeqN[:0], sl.procSeqN...)
	cp.medSeqN = append(cp.medSeqN[:0], sl.medSeqN...)
	cp.medHead = append(cp.medHead[:0], sl.medHead...)
	cp.medTail = append(cp.medTail[:0], sl.medTail...)
	cp.procEnd = append(cp.procEnd[:0], s.procEnd...)
	cp.mediumEnd = append(cp.mediumEnd[:0], s.mediumEnd...)
}

// Rollback restores the schedule to the state cp recorded. cp must have
// been taken from this schedule, and everything committed since is
// discarded. Truncation leaves stale
// entries in the index rows past the restored fills and possibly a stale
// commNext on a surviving medium tail; both are unreachable because every
// reader is bounded by the restored counts (see slab.go).
func (s *Schedule) Rollback(cp *Checkpoint) {
	sl := &s.slab
	sl.truncate(cp.nReps, cp.nComms)
	copy(sl.taskRepN, cp.taskRepN)
	copy(sl.procSeqN, cp.procSeqN)
	copy(sl.medSeqN, cp.medSeqN)
	copy(sl.medHead, cp.medHead)
	copy(sl.medTail, cp.medTail)
	copy(s.procEnd, cp.procEnd)
	copy(s.mediumEnd, cp.mediumEnd)
	s.invalidateView()
}
