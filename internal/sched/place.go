package sched

import (
	"fmt"
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// Placement is the outcome of previewing or committing one replica of a
// task on a processor.
//
// SBest is the paper's S_best: the earliest start, when the first complete
// input set has arrived and the processor is free. SWorst is S_worst: the
// start if every replicated input had to be waited for (the value the
// schedule-pressure cost function uses, so the priority reflects the faulty
// case). End is SBest plus the execution time on the processor.
type Placement struct {
	Task   model.TaskID
	Proc   arch.ProcID
	SBest  float64
	SWorst float64
	End    float64
}

// MediumBound is one entry of a preview's medium dependency set: the plan
// put a comm on Medium whose start was computed as max(sender/relay
// availability, the medium's busy-end at the time). Because committed
// busy-ends only grow, the planned comm — and through the plan's overlay,
// every later comm on the same medium — comes out identical as long as the
// medium's busy-end stays at or below Bound (the recorded start): either
// the busy-end is unchanged, or it grew within the slack the availability
// floor left, where it was not binding. Media the plan merely considered
// and rejected need no bound at all: a rejected medium lost an
// earliest-arrival comparison (or a freshness class) that busy-end growth
// can only make it lose harder, and the comparisons' first-wins tie-break
// is stable under growth (DESIGN.md Section 13).
type MediumBound struct {
	Medium arch.MediumID
	Bound  float64
}

// EdgeArrival describes, for one in-edge of a previewed placement, how the
// data would arrive: locally from a co-located predecessor replica, or as
// the first (Best) and last (Worst) of the replicated comms. FTBAR's
// Minimize-start-time uses it to identify the Latest Immediate Predecessor.
type EdgeArrival struct {
	Edge  model.TaskEdgeID
	Src   model.TaskID
	Local bool
	Best  float64
	Worst float64
}

// planScratch carries the reusable buffers of one plan call, so previews
// allocate nothing in steady state. Buffers are recycled through the clone
// family's scratchList and hold no schedule state between calls; each call
// owns one scratch for its duration (an open PlannedPlacement keeps its
// scratch until Commit or Discard, so plans may nest).
type planScratch struct {
	// overlay holds tentative medium busy-ends so the hops of one
	// placement contend with each other deterministically. Epoch-marking
	// replaces map clearing: a slot is live only when its epoch matches.
	overlayVal   []float64
	overlayEpoch []uint64
	epoch        uint64
	// usedMark records, per medium, the media already carrying a copy of
	// the in-edge currently being planned (epoch-marked per edge by
	// usedEpoch). Replica-aware media selection consults it when the fault
	// budget includes medium failures: later senders of the same
	// dependency prefer media no earlier copy travels on, so the Npf+1
	// copies spread over distinct failure domains (DESIGN.md Section 10).
	usedMark  []uint64
	usedEpoch uint64
	// bounds records, for each medium this plan put a comm on, the start
	// of the first comm claiming it — the busy-end threshold under which
	// a recomputation reproduces the plan exactly (see MediumBound).
	bounds []MediumBound
	// senders holds the slab ids of the Npf+1 earliest-finishing
	// predecessor replicas of the edge being planned.
	senders []repID
	// fanProcs collects the sender processors of the edge being planned,
	// the key of the disjoint-fan lookup.
	fanProcs []arch.ProcID
	plans    []Comm // comm hops planned but not yet committed
	details  []EdgeArrival
}

// scratchList is the free list of planScratch buffers shared by a clone
// family. It grows to the number of plans held open at once (at most a
// few, under Minimize's nested plans) and never drops a buffer, so warm
// plans allocate nothing. It also holds the one disjoint-fan search
// scratch every FanCache of the family runs on (Schedule.fanFor), so a
// fan miss allocates only the routes it caches.
type scratchList struct {
	nMedia int
	free   []*planScratch
	fans   arch.FanScratch
}

func (l *scratchList) get() *planScratch {
	if n := len(l.free); n > 0 {
		sc := l.free[n-1]
		l.free = l.free[:n-1]
		return sc
	}
	return &planScratch{
		overlayVal:   make([]float64, l.nMedia),
		overlayEpoch: make([]uint64, l.nMedia),
		usedMark:     make([]uint64, l.nMedia),
	}
}

func (l *scratchList) put(sc *planScratch) { l.free = append(l.free, sc) }

// begin resets the scratch for a new plan call.
func (sc *planScratch) begin() {
	sc.epoch++
	sc.bounds = sc.bounds[:0]
	sc.plans = sc.plans[:0]
	sc.details = sc.details[:0]
}

// mEnd returns the tentative busy-end of medium m: the overlay value when
// one of this plan's earlier hops claimed the medium, the committed
// busy-end otherwise.
func (sc *planScratch) mEnd(s *Schedule, m arch.MediumID) float64 {
	if sc.overlayEpoch[m] == sc.epoch {
		return sc.overlayVal[m]
	}
	return s.mediumEnd[m]
}

// setOverlay claims medium m until end for the current plan.
func (sc *planScratch) setOverlay(m arch.MediumID, end float64) {
	sc.overlayEpoch[m] = sc.epoch
	sc.overlayVal[m] = end
}

// beginEdge starts the used-media record of a fresh in-edge: diversity is
// required among the copies of one dependency, not across dependencies.
func (sc *planScratch) beginEdge() { sc.usedEpoch++ }

// markUsed records that a copy of the current edge travels on medium m.
func (sc *planScratch) markUsed(m arch.MediumID) { sc.usedMark[m] = sc.usedEpoch }

// isUsed reports whether an earlier copy of the current edge already
// travels on medium m.
func (sc *planScratch) isUsed(m arch.MediumID) bool { return sc.usedMark[m] == sc.usedEpoch }

func (s *Schedule) getScratch() *planScratch {
	sc := s.scratch.get()
	sc.begin()
	return sc
}

// plan computes the placement of one replica of task t on processor p
// against the current schedule state, planning (without committing) every
// communication it implies into sc.plans. When needDetails is set the
// per-edge arrival breakdown is collected into sc.details. plan reads the
// slab columns but never mutates them, and never materialises the pointer
// view; it may fill the family's route and fan memos.
func (s *Schedule) plan(t model.TaskID, p arch.ProcID, sc *planScratch, needDetails bool) (Placement, error) {
	sl := &s.slab
	task := s.tasks.Task(t)
	exec := s.problem.Exec.Time(task.Op, p)
	if math.IsInf(exec, 1) {
		return Placement{}, errForbiddenOn(s, task.Name, p)
	}
	if sl.repOn(int(t), int(p)) >= 0 {
		return Placement{}, errDuplicateOn(s, task.Name, p)
	}
	dstIndex := int(sl.taskRepN[t])
	arriveBest := 0.0
	arriveWorst := 0.0
	for _, eid := range s.tasks.InView(t) {
		edge := s.tasks.Edge(eid)
		edgeBest, edgeWorst, err := s.planEdge(eid, edge, t, p, dstIndex, sc, needDetails)
		if err != nil {
			return Placement{}, err
		}
		arriveBest = math.Max(arriveBest, edgeBest)
		arriveWorst = math.Max(arriveWorst, edgeWorst)
	}
	free := s.procEnd[p]
	sBest := math.Max(free, arriveBest)
	sWorst := math.Max(free, arriveWorst)
	return Placement{Task: t, Proc: p, SBest: sBest, SWorst: sWorst, End: sBest + exec}, nil
}

func errForbiddenOn(s *Schedule, name string, p arch.ProcID) error {
	return fmt.Errorf("%w: %q on %q", ErrForbiddenPlacement, name, s.problem.Arc.Proc(p).Name)
}

func errDuplicateOn(s *Schedule, name string, p arch.ProcID) error {
	return fmt.Errorf("%w: %q on %q", ErrDuplicateReplica, name, s.problem.Arc.Proc(p).Name)
}

// planEdge plans the arrival of one in-edge of a (t, p) placement: the
// local case when a predecessor replica is co-located, the replicated
// comms from the Npf+1 earliest-finishing predecessor replicas otherwise.
// It returns the edge's best and worst arrival.
func (s *Schedule) planEdge(eid model.TaskEdgeID, edge model.TaskEdge, t model.TaskID, p arch.ProcID,
	dstIndex int, sc *planScratch, needDetails bool) (float64, float64, error) {

	sl := &s.slab
	if sl.taskRepN[edge.Src] == 0 {
		return 0, 0, fmt.Errorf("%w: %q needs %q",
			ErrPredUnscheduled, s.tasks.Task(t).Name, s.tasks.Task(edge.Src).Name)
	}
	if local := sl.repOn(int(edge.Src), int(p)); local >= 0 {
		// Paper Figure 3(b): a co-located predecessor replica makes
		// the dependency an intra-processor communication of zero
		// cost; no comm is replicated at all.
		localEnd := sl.repEnd[local]
		if needDetails {
			sc.details = append(sc.details, EdgeArrival{
				Edge: eid, Src: edge.Src, Local: true, Best: localEnd, Worst: localEnd,
			})
		}
		return localEnd, localEnd, nil
	}
	// Paper Figure 3(c): replicate the comm from the Npf+1
	// earliest-finishing predecessor replicas over parallel media.
	sc.beginEdge()
	sc.senders = s.earliestRepsInto(sc.senders, edge.Src, s.faults.Npf+1)
	// Under a medium budget the copies must travel media-disjoint
	// chains, and on sparse topologies per-sender greedy choices can
	// paint later senders into a corner (the first copy's route eats
	// the only link a later copy's detour needs). The fan solves the
	// joint problem up front: one media-disjoint route per sender
	// where the topology permits (DESIGN.md Section 11). Relay hops
	// are steered away from processors hosting replicas of the edge's
	// endpoint tasks — a relay there would die together with a copy
	// under one processor crash, exactly the correlation the joint
	// (processor+medium) budget must avoid (DESIGN.md Section 12).
	var fan []arch.Route
	if s.faults.Nmf > 0 {
		sc.fanProcs = sc.fanProcs[:0]
		for _, sender := range sc.senders {
			sc.fanProcs = append(sc.fanProcs, arch.ProcID(sl.repProc[sender]))
		}
		avoid := s.replicaProcMask(edge.Src) | s.replicaProcMask(t)
		if p < 64 {
			avoid |= 1 << uint(p)
		}
		fan = s.fanFor(edge.Orig, sc.fanProcs, p, avoid)
		// Feasibility gate: the fan maximises the number of served sources
		// (relay avoidance is a cost preference, never a cut), so its served
		// count is exactly the maximum number of pairwise media-disjoint
		// chains any plan could deliver from these senders. Below Nmf+1 the
		// validator's diversity rule must reject every possible plan, so the
		// placement is refused here and the pressure comes out +Inf — the
		// heuristic then steers the replica to a processor the budget can
		// actually protect (or to a co-located one, handled above), instead
		// of emitting a schedule that fails validation.
		served := 0
		for _, r := range fan {
			if r != nil {
				served++
			}
		}
		if served < s.faults.Nmf+1 {
			return 0, 0, fmt.Errorf("%w: %s to %q has %d, need %d",
				ErrNoDisjointDelivery, s.problem.Alg.EdgeName(edge.Orig),
				s.problem.Arc.Proc(p).Name, served, s.faults.Nmf+1)
		}
	}
	edgeBest, edgeWorst := math.Inf(1), 0.0
	for _, sender := range sc.senders {
		route := arch.RouteFrom(fan, arch.ProcID(sl.repProc[sender]))
		arrival, err := s.planDelivery(edge, sender, p, dstIndex, route, sc)
		if err != nil {
			return 0, 0, err
		}
		edgeBest = math.Min(edgeBest, arrival)
		edgeWorst = math.Max(edgeWorst, arrival)
	}
	if needDetails {
		sc.details = append(sc.details, EdgeArrival{
			Edge: eid, Src: edge.Src, Best: edgeBest, Worst: edgeWorst,
		})
	}
	return edgeBest, edgeWorst, nil
}

// planDelivery plans the comm hops carrying edge's value from the sender
// replica (a slab id) to processor dst (appended to sc.plans) and returns
// the arrival time. With a medium budget (Nmf > 0) the caller passes the
// sender's route from the edge's disjoint fan, and the delivery follows it
// exactly — possibly store-and-forward through relay processors — so the
// copies of the dependency travel pairwise media-disjoint chains by
// construction. Senders the fan could not serve (route == nil, the
// topology's disjoint budget is exhausted) and the whole Nmf = 0 case
// take the legacy path: direct media chosen greedily for earliest arrival
// under current contention — replica-aware when Nmf > 0, avoiding media
// an earlier copy already travels whenever a fresh allowed medium exists
// — and the precomputed shortest store-and-forward route when no direct
// medium carries the dependency.
func (s *Schedule) planDelivery(edge model.TaskEdge, sender repID, dst arch.ProcID,
	dstIndex int, route arch.Route, sc *planScratch) (float64, error) {

	sl := &s.slab
	senderEnd := sl.repEnd[sender]
	senderProc := arch.ProcID(sl.repProc[sender])
	senderIndex := int(sl.repIndex[sender])

	newComm := func(m arch.MediumID, from, to arch.ProcID, hop int, last bool, start, dur float64) {
		end := start + dur
		if sc.overlayEpoch[m] != sc.epoch {
			// First claim of m: start was floored by the committed busy-end,
			// so start is the threshold the busy-end must stay under for the
			// whole per-medium comm chain to replan identically.
			sc.bounds = append(sc.bounds, MediumBound{Medium: m, Bound: start})
		}
		sc.setOverlay(m, end)
		if s.faults.Nmf > 0 {
			sc.markUsed(m)
		}
		sc.plans = append(sc.plans, Comm{
			Edge: edge.ID, Orig: edge.Orig,
			SrcIndex: senderIndex, DstIndex: dstIndex,
			Hop: hop, LastHop: last,
			Medium: m, From: from, To: to,
			Start: start, End: end,
		})
	}

	// followRoute plans the hops of a prescribed route in order, each
	// contending on its medium's tentative busy-end, and returns the
	// arrival time at the route's final processor.
	followRoute := func(route arch.Route) (float64, error) {
		avail := senderEnd
		for i, hop := range route {
			dur := s.problem.Comm.Time(edge.Orig, hop.Medium)
			if math.IsInf(dur, 1) {
				return 0, fmt.Errorf("%w: %s forbidden on %q",
					ErrNoPath, s.problem.Alg.EdgeName(edge.Orig),
					s.problem.Arc.Medium(hop.Medium).Name)
			}
			start := math.Max(avail, sc.mEnd(s, hop.Medium))
			newComm(hop.Medium, hop.From, hop.To, i, i == len(route)-1, start, dur)
			avail = start + dur
		}
		return avail, nil
	}

	if route != nil {
		return followRoute(route)
	}

	if direct := s.problem.Arc.DirectMedia()[int(senderProc)*len(s.procEnd)+int(dst)]; len(direct) > 0 {
		bestM := arch.MediumID(-1)
		bestArrive := math.Inf(1)
		bestStart := 0.0
		// Fresh media are preferred strictly over used ones when the
		// budget asks for media diversity; within each class the earliest
		// arrival wins. With Nmf = 0 every medium is "fresh" and the
		// selection is exactly the seed's earliest-arrival rule.
		bestFresh := false
		for _, m := range direct {
			dur := s.problem.Comm.Time(edge.Orig, m)
			if math.IsInf(dur, 1) {
				continue
			}
			fresh := s.faults.Nmf == 0 || !sc.isUsed(m)
			start := math.Max(senderEnd, sc.mEnd(s, m))
			arrive := start + dur
			if fresh != bestFresh {
				if !fresh {
					continue
				}
			} else if arrive >= bestArrive {
				continue
			}
			bestM, bestArrive, bestStart, bestFresh = m, arrive, start, fresh
		}
		if bestM >= 0 {
			newComm(bestM, senderProc, dst, 0, true, bestStart, bestArrive-bestStart)
			return bestArrive, nil
		}
		// All direct media forbid this edge; fall through to routing.
	}
	fallback, err := s.routeFor(edge.Orig, senderProc, dst)
	if err != nil {
		return 0, fmt.Errorf("%w: %s from %q to %q",
			ErrNoPath, s.problem.Alg.EdgeName(edge.Orig),
			s.problem.Arc.Proc(senderProc).Name, s.problem.Arc.Proc(dst).Name)
	}
	return followRoute(fallback)
}

// earliestRepsInto writes the ids of the up-to-n earliest replicas of t
// into dst (reused, returned re-sliced) in (End, Index) order. The partial
// selection keeps the hot path allocation-free: n is Npf+1, a small
// constant, so the insertion cost is O(replicas · n).
func (s *Schedule) earliestRepsInto(dst []repID, t model.TaskID, n int) []repID {
	sl := &s.slab
	row := int(t) * sl.nProcs
	dst = dst[:0]
	for k := 0; k < int(sl.taskRepN[t]); k++ {
		r := sl.taskReps[row+k]
		if len(dst) < n {
			dst = append(dst, r)
		} else if sl.repEarlier(r, dst[n-1]) {
			dst[n-1] = r
		} else {
			continue
		}
		for i := len(dst) - 1; i > 0 && sl.repEarlier(dst[i], dst[i-1]); i-- {
			dst[i], dst[i-1] = dst[i-1], dst[i]
		}
	}
	return dst
}

// Preview computes the placement of one replica of t on p without mutating
// the schedule. Heuristics use it to evaluate the schedule pressure of every
// candidate pair. Like every planning call it fills memos and scratch the
// clone family shares, so one goroutine plans a family at a time.
func (s *Schedule) Preview(t model.TaskID, p arch.ProcID) (Placement, error) {
	sc := s.getScratch()
	pl, err := s.plan(t, p, sc, false)
	s.scratch.put(sc)
	return pl, err
}

// PreviewTouched is Preview plus the preview's medium dependency set: one
// MediumBound per medium the plan put a comm on, appended to bounds (which
// may be nil) and returned. A cached preview of (t, p) stays valid while
// the replica sets of t and its predecessors are unchanged,
// ProcEnd(p) <= the returned SWorst, and MediumEnd(m) <= Bound for every
// returned bound: replicas are append-only, busy-ends only grow, and
// growth below those thresholds is never binding (DESIGN.md Sections 8 and
// 13). Media the plan considered but rejected carry no bound — rejection
// is monotone under busy-end growth. On error the appended set covers the
// comms planned before the failure; the error itself is structural and
// recurs while those replica sets are unchanged.
func (s *Schedule) PreviewTouched(t model.TaskID, p arch.ProcID, bounds []MediumBound) (Placement, []MediumBound, error) {
	sc := s.getScratch()
	pl, err := s.plan(t, p, sc, false)
	bounds = append(bounds, sc.bounds...)
	s.scratch.put(sc)
	return pl, bounds, err
}

// PlannedPlacement is a plan held open for committing: PlanPlacement
// computes the placement of (t, p) — with the per-edge arrival breakdown
// Minimize-start-time needs — and keeps the planned comms instead of
// discarding them, so a later Commit applies them without replanning.
// The token is only valid while the schedule is in exactly the state the
// plan was computed against; Minimize-start-time guarantees that by
// construction (a speculative duplication either keeps the state that
// produced the newest token or rolls back bit-exact to the state that
// produced the previous one). Exactly one of Commit or Discard must be
// called; both release the scratch the token holds.
type PlannedPlacement struct {
	s  *Schedule
	sc *planScratch
	pl Placement
}

// PlanPlacement plans one replica of t on p and returns the open plan.
func (s *Schedule) PlanPlacement(t model.TaskID, p arch.ProcID) (PlannedPlacement, error) {
	sc := s.getScratch()
	pl, err := s.plan(t, p, sc, true)
	if err != nil {
		s.scratch.put(sc)
		return PlannedPlacement{}, err
	}
	return PlannedPlacement{s: s, sc: sc, pl: pl}, nil
}

// Placement returns the planned placement.
func (pp *PlannedPlacement) Placement() Placement { return pp.pl }

// Details returns the per-edge arrival breakdown of the plan. The slice
// aliases the token's scratch and is valid until Commit or Discard.
func (pp *PlannedPlacement) Details() []EdgeArrival { return pp.sc.details }

// Commit commits the planned comms and replica — the schedule state still
// matches the plan's, so replanning would reproduce the held plan bit for
// bit — and releases the token. The comms are serialised on their media
// and the replica is appended to the processor at its S_best start (paper
// micro-step "Schedule o to p at S_best(o,p)"), and the pointer view is
// invalidated. The committed replica is returned by value: handing out a
// pointer into the (just invalidated) view would either allocate or force
// a rebuild.
func (pp *PlannedPlacement) Commit() Replica {
	s, sc, pl := pp.s, pp.sc, pp.pl
	for i := range sc.plans {
		s.commitComm(&sc.plans[i])
	}
	t, p := pl.Task, pl.Proc
	r := Replica{Task: t, Index: int(s.slab.taskRepN[t]), Proc: p, Start: pl.SBest, End: pl.End}
	s.slab.appendReplica(int(t), int(p), pl.SBest, pl.End)
	s.procEnd[p] = r.End
	s.invalidateView()
	s.scratch.put(sc)
	pp.sc = nil
	return r
}

// Discard abandons the plan and releases the token. Safe on a token
// already committed or discarded, and on the zero token.
func (pp *PlannedPlacement) Discard() {
	if pp.sc != nil {
		pp.s.scratch.put(pp.sc)
		pp.sc = nil
	}
}

// PlaceReplica plans one replica of t on p and commits it (Commit).
func (s *Schedule) PlaceReplica(t model.TaskID, p arch.ProcID) (Replica, error) {
	pp, err := s.PlanPlacement(t, p)
	if err != nil {
		return Replica{}, err
	}
	return pp.Commit(), nil
}

func (s *Schedule) commitComm(c *Comm) {
	s.slab.appendComm(c)
	if c.End > s.mediumEnd[c.Medium] {
		s.mediumEnd[c.Medium] = c.End
	}
}
