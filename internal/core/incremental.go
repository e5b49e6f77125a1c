package core

import (
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
)

// This file implements the incremental scheduling engine (DESIGN.md
// Section 8): the ready queue that replaces the per-step candidate rescan,
// and the pressure cache that replaces the per-step recomputation of every
// candidate × processor preview. Both are exact:
// the engine's decision log is bit-identical to the seed's rescan engine,
// which the differential tests keep as their oracle (oracle_test.go).

// readyQueue maintains the candidate set O_cand incrementally. A task is
// ready when all its distinct predecessors are done, plus — for a mem's
// write half — when its read half is done (the pinning rule of DESIGN.md
// Section 4). The ready list is kept in ascending task id order so the
// selection loop visits candidates exactly like a full rescan.
type readyQueue struct {
	// indeg[t] counts the undone gating tasks of t: its distinct
	// predecessors, plus the read half for a mem write not already
	// connected to it by an edge.
	indeg []int
	// succs[t] lists the distinct successors of t; gated[t] adds the
	// write half when t is a mem read not feeding it by an edge.
	succs [][]model.TaskID
	gated []model.TaskID // write half gated by read t, or -1
	ready []model.TaskID // ascending id
}

func newReadyQueue(tg *model.TaskGraph) *readyQueue {
	n := tg.NumTasks()
	rq := &readyQueue{
		indeg: make([]int, n),
		succs: make([][]model.TaskID, n),
		gated: make([]model.TaskID, n),
	}
	for t := 0; t < n; t++ {
		rq.indeg[t] = len(tg.Preds(model.TaskID(t)))
		rq.succs[t] = tg.Succs(model.TaskID(t))
		rq.gated[t] = -1
	}
	for _, mp := range tg.MemPairs() {
		edgeGated := false
		for _, pred := range tg.Preds(mp.Write) {
			if pred == mp.Read {
				edgeGated = true
				break
			}
		}
		if !edgeGated {
			rq.indeg[mp.Write]++
			rq.gated[mp.Read] = mp.Write
		}
	}
	for t := 0; t < n; t++ {
		if rq.indeg[t] == 0 {
			rq.ready = append(rq.ready, model.TaskID(t))
		}
	}
	return rq
}

// candidates returns the current ready set in ascending id order. The
// slice aliases the queue's storage and is valid until the next commit.
func (rq *readyQueue) candidates() []model.TaskID { return rq.ready }

// commit removes t from the ready set and releases the tasks it was
// gating.
func (rq *readyQueue) commit(t model.TaskID) {
	for i, r := range rq.ready {
		if r == t {
			rq.ready = append(rq.ready[:i], rq.ready[i+1:]...)
			break
		}
	}
	for _, succ := range rq.succs[t] {
		rq.release(succ)
	}
	if w := rq.gated[t]; w >= 0 {
		rq.release(w)
	}
}

// release decrements the gate counter of t and inserts it into the sorted
// ready list when it reaches zero.
func (rq *readyQueue) release(t model.TaskID) {
	rq.indeg[t]--
	if rq.indeg[t] != 0 {
		return
	}
	lo, hi := 0, len(rq.ready)
	for lo < hi {
		mid := (lo + hi) / 2
		if rq.ready[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	rq.ready = append(rq.ready, 0)
	copy(rq.ready[lo+1:], rq.ready[lo:])
	rq.ready[lo] = t
}

// sigmaEntry caches one schedule pressure σ(t, p) together with the
// dependency record of the schedule state it was computed against. The
// entry stays valid while:
//
//   - the cache's row stamp of t is unchanged — the cache bumps it
//     (syncStamps) whenever the replica set of t or of any successor-list
//     predecessor of t grew, so a matching stamp means no replica the
//     preview read has changed (replicas are append-only and never
//     re-time; this covers senders, arrival times, fan masks, and the
//     duplicate check);
//   - procEnd(p) is at or below the recorded S_worst — busy-ends only
//     grow between cache consultations, and growth up to the start the
//     preview already settled on is not binding, so S_worst (the only
//     component σ reads) comes out identical;
//   - for every medium the preview planned a comm on, the medium's
//     busy-end is at or below the recorded start of that first comm
//     (sched.MediumBound): growth within that slack is not binding
//     either, and media the preview considered but rejected can only
//     get worse, which keeps every selection decision stable.
//
// Under those conditions a recomputation would produce exactly the same
// σ, so reusing the cached value is exact, not approximate — the
// thresholds just let entries survive commits that touch their media or
// processor without actually perturbing them. Validity is only ever
// judged against states the committed trajectory reached (speculative
// duplications roll back bit-exact before the cache looks again), on
// which replica sets only grow and busy-ends grow monotonically.
type sigmaEntry struct {
	used bool
	// checked marks the prepare() step that last validated or computed
	// the entry, so get() can skip re-walking the dependency lists for
	// entries prepare already vetted this step.
	checked uint64
	sigma   float64
	// sworst is the placement's S_worst — the processor busy-end
	// threshold. +Inf for error entries: preview errors are structural
	// (duplicate replica, unscheduled predecessor, no route), decided by
	// the replica sets alone, never by a busy-end.
	sworst float64
	// rowStamp is the cache's row stamp of t at computation time; a
	// mismatch means a replica appeared in t's input neighbourhood.
	rowStamp uint64
	bounds   []sched.MediumBound
}

// sigmaCache is the (task × processor) pressure cache of the incremental
// engine.
type sigmaCache struct {
	sch     *scheduler
	nProcs  int
	entries []sigmaEntry // index t*nProcs + p
	step    uint64       // prepare() invocation counter
	// rowStamp[t] advances whenever the replica set of t or of one of its
	// predecessors changed — the structural part of entry validity. It is
	// maintained by syncStamps, which diffs the schedule's per-task
	// replica counts (lastReps) at every scan boundary and pushes the
	// change along the successor lists, so scans compare one stamp per
	// entry instead of walking the predecessor list every time.
	rowStamp []uint64
	lastReps []int
	succs    [][]model.TaskID // distinct successors, static
	// cold lists the entry indices needing recomputation this step,
	// task-major (candidates ascending, processors ascending); coldRanges
	// maps each candidate to its slice of cold, so ensure() can compute
	// one candidate's stale previews on demand — and skip them entirely
	// for candidates the selection screen rules out.
	cold       []int32
	coldRanges []coldRange
	// skipped counts candidate evaluations the cache-aware screen
	// avoided: their cold previews were never computed. computed counts
	// the previews that were; reused counts revalidations that kept an
	// entry without a preview. All three are observational —
	// Result.Planner reads them out.
	skipped  uint64
	computed uint64
	reused   uint64
}

// coldRange is the span of cold entries belonging to one candidate.
type coldRange struct {
	task   model.TaskID
	lo, hi int32
}

func newSigmaCache(sch *scheduler) *sigmaCache {
	n := sch.tg.NumTasks()
	nProcs := sch.p.Arc.NumProcs()
	c := &sigmaCache{
		sch:      sch,
		nProcs:   nProcs,
		entries:  make([]sigmaEntry, n*nProcs),
		rowStamp: make([]uint64, n),
		lastReps: make([]int, n),
		succs:    make([][]model.TaskID, n),
	}
	for t := 0; t < n; t++ {
		c.lastReps[t] = sch.s.NumReplicas(model.TaskID(t))
		c.succs[t] = sch.tg.Succs(model.TaskID(t))
	}
	return c
}

// syncStamps folds the schedule's replica-set changes since the last scan
// into the row stamps: a task whose replica count moved dirties its own
// row and every successor's row. Between two scans the committed
// trajectory only appends — Minimize rolls back only to checkpoints taken
// after the last scan — so a replica set changed exactly when its count
// did, and speculative duplications that rolled back dirty nothing.
// Called by prepare, after which no commit happens until the round's
// selection is made.
func (c *sigmaCache) syncStamps() {
	s := c.sch.s
	for t := range c.lastReps {
		if n := s.NumReplicas(model.TaskID(t)); n != c.lastReps[t] {
			c.lastReps[t] = n
			c.rowStamp[t]++
			for _, succ := range c.succs[t] {
				c.rowStamp[succ]++
			}
		}
	}
}

// prepare validates the cache against the current schedule: still-valid
// entries are vetted for this step, stale (candidate, processor) pairs are
// recorded as cold per candidate. Cold previews are NOT recomputed here —
// ensure() fills one candidate's range when the selection loop actually
// needs it, which lets the cache-aware screen skip doomed candidates
// without paying for their previews at all.
func (c *sigmaCache) prepare(cands []model.TaskID) {
	c.syncStamps()
	c.step++
	c.cold = c.cold[:0]
	c.coldRanges = c.coldRanges[:0]
	for _, t := range cands {
		if c.sch.tg.Task(t).Role == model.MemWrite {
			continue // pinned placement, priced outside the cache
		}
		base := int(t) * c.nProcs
		lo := int32(len(c.cold))
		for p := 0; p < c.nProcs; p++ {
			if c.revalidate(t, arch.ProcID(p)) {
				c.entries[base+p].checked = c.step
			} else {
				c.cold = append(c.cold, int32(base+p))
			}
		}
		if hi := int32(len(c.cold)); hi > lo {
			c.coldRanges = append(c.coldRanges, coldRange{task: t, lo: lo, hi: hi})
		}
	}
}

// screen reports whether candidate t provably cannot win the current
// selection (ROADMAP "cache-aware selection"): the selection key is the
// candidate's minimum pressure and it must be strictly larger than
// bestUrgency to displace the running winner, so any still-valid cached
// pressure at or below bestUrgency caps the minimum and dooms the
// candidate. The skip must also be safe against the error path — bestProcs
// fails when fewer than need processors are usable — so t is only skipped
// when its valid entries alone prove at least need placements are
// possible. Both facts come from entries prepare() vetted this step; no
// preview is computed.
func (c *sigmaCache) screen(t model.TaskID, need int, bestUrgency float64) bool {
	base := int(t) * c.nProcs
	finite := 0
	min := math.Inf(1)
	for p := 0; p < c.nProcs; p++ {
		e := &c.entries[base+p]
		if e.checked != c.step || math.IsInf(e.sigma, 1) {
			continue
		}
		finite++
		if e.sigma < min {
			min = e.sigma
		}
	}
	if finite < need || min > bestUrgency {
		return false
	}
	c.skipped++
	return true
}

// ensure recomputes candidate t's cold previews, in processor order.
func (c *sigmaCache) ensure(t model.TaskID) {
	for i := range c.coldRanges {
		if c.coldRanges[i].task == t {
			r := &c.coldRanges[i]
			for _, idx := range c.cold[r.lo:r.hi] {
				c.compute(int(idx))
			}
			// A candidate is ensured at most once per step, but Minimize
			// re-previews through the schedule, not the cache; collapsing
			// the range keeps a repeated ensure harmless.
			r.lo = r.hi
			return
		}
	}
}

// revalidate reports whether (t, p)'s entry reflects the current
// schedule, repairing it first when it can. An entry whose row stamp and
// media bounds all hold but whose processor outgrew S_worst
// needs no preview: every arrival is unchanged (same senders, same
// comms, same busy-end slack), only the processor floor moved, and it
// moved past the old maximum — so the new S_worst is exactly procEnd(p)
// and σ re-derives from it. The repair recomputes σ with the same
// expression shape as compute(), so the result is bit-identical to the
// preview it replaces; the repaired S_worst becomes the new processor
// threshold, and later growth just repairs again. Error entries carry
// sworst = +Inf and are never repaired — their status is structural.
func (c *sigmaCache) revalidate(t model.TaskID, p arch.ProcID) bool {
	e := &c.entries[int(t)*c.nProcs+int(p)]
	// Row stamps only advance, so a matching stamp means "unchanged", not
	// "changed and restored".
	if !e.used || e.rowStamp != c.rowStamp[t] {
		return false
	}
	s := c.sch.s
	for _, b := range e.bounds {
		if s.MediumEnd(b.Medium) > b.Bound {
			return false
		}
	}
	c.reused++
	free := s.ProcEnd(p)
	if free <= e.sworst {
		return true
	}
	exec := c.sch.p.Exec.Time(c.sch.tg.Task(t).Op, p)
	e.sigma = free + exec + c.sch.tails[t]
	e.sworst = free
	return true
}

// compute fills entry idx with a fresh preview and its dependency record.
func (c *sigmaCache) compute(idx int) {
	c.computed++
	t := model.TaskID(idx / c.nProcs)
	p := arch.ProcID(idx % c.nProcs)
	s := c.sch.s
	e := &c.entries[idx]
	pl, bounds, err := s.PreviewTouched(t, p, e.bounds[:0])
	e.bounds = bounds
	if err != nil {
		e.sigma, e.sworst = math.Inf(1), math.Inf(1)
	} else {
		exec := c.sch.p.Exec.Time(c.sch.tg.Task(t).Op, p)
		e.sigma = pl.SWorst + exec + c.sch.tails[t]
		e.sworst = pl.SWorst
	}
	e.rowStamp = c.rowStamp[t]
	e.used = true
	e.checked = c.step
}

// get returns the cached pressure of (t, p) when the entry is valid.
// Entries prepare() vetted this step — nothing commits between prepare
// and selection — answer without re-walking their dependency lists;
// anything else (mem-write pricing) takes the full validity check.
func (c *sigmaCache) get(t model.TaskID, p arch.ProcID) (float64, bool) {
	e := &c.entries[int(t)*c.nProcs+int(p)]
	if e.checked != c.step && !c.revalidate(t, p) {
		return 0, false
	}
	return e.sigma, true
}
