package sched

import (
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// Per-edge plan memoization.
//
// A schedule-pressure cache recomputes the preview of (t, p) whenever the
// entry's validity conditions break, and most of a recomputation replans
// in-edges whose inputs did not change. A PlanMemo remembers, per in-edge
// of the last successful plan, exactly which inputs that edge's planning
// read — the predecessor's replica-set revision, the set of media whose
// busy-end it consulted, and per claimed medium the threshold under which
// the claim replans identically — so the next recomputation replays the
// unaffected edges in O(claims) and replans only the rest.
//
// Soundness rests on the same monotonicity the MediumBound scheme uses
// (DESIGN.md Section 13): committed busy-ends only grow, growth at or
// below a claim's recorded start is never binding, and rejection of a
// merely-consulted medium is monotone under growth. The one effect growth
// cannot explain — an effective busy-end DECREASING relative to recording
// time — can only enter a replay through an edge that was itself
// replanned, whose overlay claims (old and new alike) then differ from the
// recorded state in an unknown direction. planWithMemo tracks those media
// in a shrunk-mask and replans every later edge whose recorded read-mask
// intersects it, which propagates the taint transitively.
//
// The memo is gated to memo-safe configurations (Nmf = 0, at most 64
// media, see Schedule.MemoSafe): with a medium fault budget the planning
// of one edge also reads the replica-processor sets of the edge's
// endpoints (relay steering) and the fresh-media marks of earlier copies,
// none of which the masks cover, and the masks themselves are one bit per
// medium in a uint64.

// claimRec records one (edge, medium) claim of a plan: the start of the
// edge's first comm on the medium — the busy-end threshold under which
// the whole per-medium chain replans identically — and the overlay
// busy-end after the edge's last comm on it, which a replay re-applies.
type claimRec struct {
	medium arch.MediumID
	bound  float64
	end    float64
}

// planEdgeMemo is the replay record of one in-edge: the inputs the edge's
// planning read (predecessor revision, the sender replicas, the
// consulted-media mask) and the outputs a replay reproduces (arrivals,
// claims[claimLo:claimHi]).
type planEdgeMemo struct {
	src      model.TaskID
	predRev  uint64
	readMask uint64
	local    bool
	best     float64
	worst    float64
	claimLo  int32
	claimHi  int32
	senderLo int32
	senderHi int32
	// planLo/planHi delineate the edge's comms in PlanMemo.comms, recorded
	// only by comm-carrying memos (PlanPlacementMemo); preview memos keep
	// them empty.
	planLo int32
	planHi int32
}

// PlanMemo is the replay record of one (task, processor) pair's last
// successful plan. The zero value is a valid empty memo (the first call
// records, later calls replay); a memo fed a different pair, or a
// different recording mode, starts over from scratch rather than reusing
// foreign records. Replays are only sound against states the recording
// state grew into monotonically — the committed trajectory between scans,
// or the speculation window of one Minimize loop — so callers that pool
// memos must Reset them when the continuity is broken.
type PlanMemo struct {
	ok       bool
	task     model.TaskID
	proc     arch.ProcID
	hasComms bool
	edges    []planEdgeMemo
	claims   []claimRec
	senders  []repID
	comms    []Comm
}

// Reset invalidates the memo's recording (the next plan records afresh)
// while keeping its storage for reuse.
func (m *PlanMemo) Reset() { m.ok = false }

// NewPlanMemos returns one zero memo per (task, processor) pair — indexed
// task*NumProcs+proc, matching a pressure cache's entry layout — with the
// per-memo record slices carved out of three shared arenas sized to the
// graph: exactly in-degree edge records and in-degree × (Npf+1) sender and
// claim records per memo (the capacities are full-slice-expression capped,
// so the rare overflow — a multi-hop route claiming more media — moves
// that memo's slice out of the arena instead of corrupting a neighbour).
// Pre-sizing matters because the memos otherwise grow their slices one
// first-compute at a time, which shows up as allocator traffic on every
// scheduling run.
func (s *Schedule) NewPlanMemos() []PlanMemo {
	n := s.tasks.NumTasks()
	nProcs := len(s.procEnd)
	k := s.faults.Npf + 1
	totE := 0
	for t := 0; t < n; t++ {
		totE += len(s.tasks.InView(model.TaskID(t)))
	}
	memos := make([]PlanMemo, n*nProcs)
	edgeArena := make([]planEdgeMemo, totE*nProcs)
	senderArena := make([]repID, totE*k*nProcs)
	claimArena := make([]claimRec, totE*k*nProcs)
	eo, so := 0, 0
	for t := 0; t < n; t++ {
		d := len(s.tasks.InView(model.TaskID(t)))
		for p := 0; p < nProcs; p++ {
			m := &memos[t*nProcs+p]
			m.edges = edgeArena[eo : eo : eo+d]
			m.senders = senderArena[so : so : so+d*k]
			m.claims = claimArena[so : so : so+d*k]
			eo += d
			so += d * k
		}
	}
	return memos
}

// MemoSafe reports whether per-edge plan memoization is sound for this
// schedule: no medium fault budget (edge planning then depends only on
// the inputs the memo records) and at most 64 media (the read and shrunk
// masks are one bit per medium).
func (s *Schedule) MemoSafe() bool {
	return s.faults.Nmf == 0 && len(s.mediumEnd) <= 64
}

// PreviewMemo is PreviewTouched accelerated by a per-edge replay memo:
// identical placement, medium dependency set, and error behaviour, but
// in-edges whose recorded inputs still hold are replayed from memo
// instead of replanned. The caller owns memo (one per cached (t, p)
// entry) and must only use PreviewMemo on a schedule for which MemoSafe
// reports true.
func (s *Schedule) PreviewMemo(t model.TaskID, p arch.ProcID, memo *PlanMemo, bounds []MediumBound) (Placement, []MediumBound, error) {
	sc := s.getScratch()
	sc.memoRec = true
	pl, err := s.planWithMemo(t, p, sc, memo, false)
	bounds = append(bounds, sc.bounds...)
	s.putScratch(sc)
	return pl, bounds, err
}

// PlanPlacementMemo is PlanPlacement accelerated by a replay memo that
// additionally carries the planned comms and the per-edge arrival
// breakdown, so a reused edge materialises its comms without replanning
// them. Minimize-start-time threads one memo through its improvement
// loop: each iteration replans the same (task, processor) pair against a
// state that differs from the previous iteration's by one committed
// duplication, which leaves most in-edges replayable. The same MemoSafe
// gate and ownership rules as PreviewMemo apply.
func (s *Schedule) PlanPlacementMemo(t model.TaskID, p arch.ProcID, memo *PlanMemo) (PlannedPlacement, error) {
	sc := s.getScratch()
	sc.memoRec = true
	sc.memoComms = true
	pl, err := s.planWithMemo(t, p, sc, memo, true)
	if err != nil {
		s.putScratch(sc)
		return PlannedPlacement{}, err
	}
	return PlannedPlacement{s: s, sc: sc, pl: pl}, nil
}

// planWithMemo is plan() with per-edge replay: each in-edge whose
// recorded inputs still hold (edgeHolds) is replayed from memo, the rest
// replan through the ordinary planEdge path. A replanned edge taints the
// media whose overlay busy-ends it actually moved, forcing later edges
// that consulted them to replan too. On success the memo is rebuilt from
// the recordings; on error it is dropped (ok = false) and the next call
// replans in full.
func (s *Schedule) planWithMemo(t model.TaskID, p arch.ProcID, sc *planScratch, memo *PlanMemo, needDetails bool) (Placement, error) {
	sl := &s.slab
	task := s.tasks.Task(t)
	exec := s.problem.Exec.Time(task.Op, p)
	if math.IsInf(exec, 1) {
		memo.ok = false
		return Placement{}, errForbiddenOn(s, task.Name, p)
	}
	if sl.repOn(int(t), int(p)) >= 0 {
		memo.ok = false
		return Placement{}, errDuplicateOn(s, task.Name, p)
	}
	dstIndex := int(sl.taskRepN[t])
	in := s.tasks.InView(t)
	replay := memo.ok && memo.task == t && memo.proc == p &&
		memo.hasComms == sc.memoComms && len(memo.edges) == len(in)
	var shrunk uint64
	arriveBest := 0.0
	arriveWorst := 0.0
	for i, eid := range in {
		edge := s.tasks.Edge(eid)
		var em *planEdgeMemo
		if replay {
			em = &memo.edges[i]
			if s.edgeHolds(sc, memo, em, edge.Src, p, shrunk) {
				s.replayEdge(sc, memo, em, eid, needDetails)
				arriveBest = math.Max(arriveBest, em.best)
				arriveWorst = math.Max(arriveWorst, em.worst)
				continue
			}
		}
		lo := len(sc.claims)
		edgeBest, edgeWorst, err := s.planEdge(eid, edge, t, p, dstIndex, sc, needDetails)
		if err != nil {
			memo.ok = false
			return Placement{}, err
		}
		if em != nil {
			// A replanned edge only perturbs later edges through the
			// overlay busy-ends it leaves; when the replan reproduced the
			// old ends exactly — the common outcome of a revision-triggered
			// replan whose senders kept their media slots — nothing
			// downstream can tell, so nothing is tainted.
			oldC := memo.claims[em.claimLo:em.claimHi]
			newC := sc.claims[lo:]
			if !claimsSame(oldC, newC) {
				for ci := range oldC {
					shrunk |= 1 << uint(oldC[ci].medium)
				}
				for ci := range newC {
					shrunk |= 1 << uint(newC[ci].medium)
				}
			}
		}
		arriveBest = math.Max(arriveBest, edgeBest)
		arriveWorst = math.Max(arriveWorst, edgeWorst)
	}
	memo.edges = append(memo.edges[:0], sc.edgeMemos...)
	memo.claims = append(memo.claims[:0], sc.claims...)
	memo.senders = append(memo.senders[:0], sc.memoSenders...)
	if sc.memoComms {
		memo.comms = memo.comms[:0]
		for i := range sc.plans {
			memo.comms = append(memo.comms, sc.plans[i].comm)
		}
	}
	memo.task, memo.proc, memo.hasComms = t, p, sc.memoComms
	memo.ok = true
	free := s.procEnd[p]
	sBest := math.Max(free, arriveBest)
	sWorst := math.Max(free, arriveWorst)
	return Placement{Task: t, Proc: p, SBest: sBest, SWorst: sWorst, End: sBest + exec}, nil
}

// edgeHolds reports whether the memoised edge's recorded inputs still
// describe the schedule, so its replay is exact. The checks, cheapest
// first:
//
//   - same source task (static graph; a mismatch means a foreign memo);
//   - no consulted medium tainted by an earlier replanned edge;
//   - unchanged inputs from the predecessor: the replica-set revision
//     matching is sufficient, and when it moved the edge may still hold —
//     replicas are append-only and never re-time on the committed
//     trajectory, so a local edge holds while the co-located replica
//     exists (it is necessarily the same replica, tasks get at most one
//     replica per processor), and a comm edge holds when it stayed
//     non-local and the Npf+1 earliest senders are the same replicas (the
//     appended replica finishes too late to displace them);
//   - every claimed medium at or below its recorded threshold: above it
//     the claim's start would move, at or below it the current value — a
//     committed busy-end grown within the recorded start's slack, or an
//     identically replayed overlay — reproduces the claim exactly.
func (s *Schedule) edgeHolds(sc *planScratch, memo *PlanMemo, em *planEdgeMemo,
	src model.TaskID, p arch.ProcID, shrunk uint64) bool {

	if em.src != src || em.readMask&shrunk != 0 {
		return false
	}
	if em.predRev != s.taskRev[src] {
		nowLocal := s.slab.repOn(int(src), int(p)) >= 0
		if em.local {
			if !nowLocal {
				return false
			}
		} else {
			if nowLocal {
				return false
			}
			sc.senders = s.earliestRepsInto(sc.senders, src, s.faults.Npf+1)
			rec := memo.senders[em.senderLo:em.senderHi]
			if len(sc.senders) != len(rec) {
				return false
			}
			for i := range rec {
				if sc.senders[i] != rec[i] {
					return false
				}
			}
		}
	}
	for ci := em.claimLo; ci < em.claimHi; ci++ {
		cl := &memo.claims[ci]
		if sc.mEnd(s, cl.medium) > cl.bound {
			return false
		}
	}
	return true
}

// claimsSame reports whether two claim sets leave identical overlay
// busy-ends — the only part of a claim later edges can observe.
func claimsSame(a, b []claimRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].medium != b[i].medium || a[i].end != b[i].end {
			return false
		}
	}
	return true
}

// replayEdge re-applies a reused edge's recorded effects: the plan-level
// medium bound on a first claim, the overlay busy-ends, the planned comms
// and arrival detail when the memo carries them, and the edge's replay
// record (re-indexed into the scratch buffers) for the memo rebuild.
func (s *Schedule) replayEdge(sc *planScratch, memo *PlanMemo, em *planEdgeMemo,
	eid model.TaskEdgeID, needDetails bool) {

	lo := int32(len(sc.claims))
	for ci := em.claimLo; ci < em.claimHi; ci++ {
		cl := memo.claims[ci]
		if sc.overlayEpoch[cl.medium] != sc.epoch {
			sc.bounds = append(sc.bounds, MediumBound{Medium: cl.medium, Bound: cl.bound})
		}
		sc.setOverlay(cl.medium, cl.end)
		sc.claims = append(sc.claims, cl)
	}
	sLo := int32(len(sc.memoSenders))
	sc.memoSenders = append(sc.memoSenders, memo.senders[em.senderLo:em.senderHi]...)
	pLo := int32(len(sc.plans))
	if sc.memoComms {
		for pi := em.planLo; pi < em.planHi; pi++ {
			sc.plans = append(sc.plans, plannedComm{comm: memo.comms[pi]})
		}
	}
	if needDetails {
		sc.details = append(sc.details, EdgeArrival{
			Edge: eid, Src: em.src, Local: em.local, Best: em.best, Worst: em.worst,
		})
	}
	rec := *em
	rec.predRev = s.taskRev[em.src]
	rec.claimLo, rec.claimHi = lo, int32(len(sc.claims))
	rec.senderLo, rec.senderHi = sLo, int32(len(sc.memoSenders))
	rec.planLo, rec.planHi = pLo, int32(len(sc.plans))
	sc.edgeMemos = append(sc.edgeMemos, rec)
}
