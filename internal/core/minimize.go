package core

import (
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
)

// placeMinimized implements the paper's Minimize-start-time procedure
// (micro-step Â, after Ahmad & Kwok): before committing a replica of t on
// p, repeatedly duplicate the Latest Immediate Predecessor onto p while
// that strictly reduces S_worst(t, p); a non-improving duplication is
// undone wholesale (step Ï) and the replica is finally scheduled at its
// S_best (step Ð).
//
// The undo is an in-place checkpoint and rollback, which copies no
// replicas or comms and leaves the schedule object — and therefore the
// pressure cache — intact. The final commit reuses the newest
// plan instead of replanning: the schedule state at the commit is exactly
// the state that plan ran against, because the loop either breaks right
// after planning or a failed speculation rolls the state back to it
// bit-exact.
func (sch *scheduler) placeMinimized(t model.TaskID, p arch.ProcID) error {
	tok, err := sch.s.PlanPlacement(t, p)
	if err != nil {
		return err // step Ë: t cannot be scheduled on p
	}
	for {
		lip, ok := sch.findLIP(tok.Details(), p)
		if !ok {
			break
		}
		newTok, improved := sch.tryDuplication(t, p, lip, tok.Placement().SWorst)
		if !improved {
			break // step Ï: the duplication was undone
		}
		tok.Discard()
		tok = newTok // step Ñ: improved; look for the new LIP
	}
	tok.Commit() // step Ð: schedule at S_best
	return nil
}

// tryDuplication speculatively duplicates lip onto p and keeps the work
// only when it strictly reduces S_worst(t, p), returning the open plan of
// (t, p) against the improved state. On a non-improving (or impossible)
// duplication it rolls the schedule back and reports false.
func (sch *scheduler) tryDuplication(t model.TaskID, p arch.ProcID, lip model.TaskID,
	sWorst float64) (sched.PlannedPlacement, bool) {

	cp := sch.getCheckpoint()
	defer sch.putCheckpoint(cp)
	sch.s.Checkpoint(cp)
	if err := sch.placeMinimized(lip, p); err != nil {
		// The duplication itself is impossible; undo any partial work
		// and stop improving.
		sch.s.Rollback(cp)
		return sched.PlannedPlacement{}, false
	}
	newTok, err := sch.s.PlanPlacement(t, p)
	if err != nil || newTok.Placement().SWorst >= sWorst-timeEps {
		newTok.Discard()   // nil-safe on the error path's zero token
		sch.s.Rollback(cp) // step Ï: undo all replications of Í
		return sched.PlannedPlacement{}, false
	}
	return newTok, true
}

// getCheckpoint pops a reusable checkpoint buffer; speculation nests, so
// the buffers form a stack.
func (sch *scheduler) getCheckpoint() *sched.Checkpoint {
	if n := len(sch.checkpoints); n > 0 {
		cp := sch.checkpoints[n-1]
		sch.checkpoints = sch.checkpoints[:n-1]
		return cp
	}
	return new(sched.Checkpoint)
}

func (sch *scheduler) putCheckpoint(cp *sched.Checkpoint) {
	sch.checkpoints = append(sch.checkpoints, cp)
}

const timeEps = 1e-9

// findLIP locates the Latest Immediate Predecessor of the previewed
// placement: the source of the in-edge whose worst-case arrival constrains
// S_worst. Duplication cannot help when that edge is already local, and is
// refused when the predecessor is forbidden on the processor, already
// replicated there, or a mem half (registers stay at their chosen sites,
// see DESIGN.md Section 4).
func (sch *scheduler) findLIP(details []sched.EdgeArrival, p arch.ProcID) (model.TaskID, bool) {
	lip := model.TaskID(-1)
	worst := math.Inf(-1)
	for _, d := range details {
		if d.Worst > worst {
			worst = d.Worst
			if d.Local {
				lip = -1
				continue
			}
			lip = d.Src
		}
	}
	if lip < 0 {
		return -1, false
	}
	task := sch.tg.Task(lip)
	if task.Kind == model.Mem {
		return -1, false
	}
	if !sch.p.Exec.Allowed(task.Op, p) {
		return -1, false
	}
	if sch.s.HasReplicaOn(lip, p) {
		return -1, false
	}
	return lip, true
}
