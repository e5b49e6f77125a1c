// Package sched implements the static distributed schedule produced by the
// heuristics: replica placements on processors, communications serialised on
// media (point-to-point links or buses, possibly multi-hop), fault-free
// timing, structural validation (Validate, plus the stricter joint
// processor+medium survivability certificate ValidateJoint of DESIGN.md
// Section 12), and Gantt rendering.
//
// A Schedule doubles as the list-scheduling builder: heuristics grow it with
// PlaceReplica, preview placements with Preview (no mutation,
// allocation-free in steady state), and roll back speculative work either
// by Clone-and-swap or by the cheaper in-place Checkpoint/Rollback, which
// is how FTBAR's Minimize-start-time undo (paper micro-step ⑦) is
// realised. PreviewTouched reports what a preview depends on, so
// incremental heuristics can reuse previews across steps (DESIGN.md
// Section 8).
//
// Building is single-goroutine: a schedule and its clones share route
// tables, fan caches and scratch buffers without locks, so one clone
// family is planned by one goroutine at a time. A finished schedule's
// read accessors (Replicas, ProcSeq, MediumSeq and the validators built
// on them) are safe to call from many goroutines.
//
// Storage is the flat slab of DESIGN.md Section 13: structure-of-arrays
// columns addressed by dense ids (slab.go), with the pointer-shaped
// accessors served by a lazily materialised view (view.go).
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/spec"
)

// Errors reported while building a schedule.
var (
	ErrForbiddenPlacement = errors.New("sched: operation forbidden on processor")
	ErrPredUnscheduled    = errors.New("sched: predecessor has no replica yet")
	ErrDuplicateReplica   = errors.New("sched: task already has a replica on processor")
	ErrNoPath             = errors.New("sched: no usable medium for dependency")
	ErrNoDisjointDelivery = errors.New("sched: not enough media-disjoint routes for fault budget")
	ErrInvalid            = errors.New("sched: invalid schedule")
)

// Replica is one placement of a task on a processor with its fault-free
// static times. Start is the paper's S_best: the moment the first complete
// input set arrives (and the processor is free); under failures the
// simulator re-times it up to S_worst.
type Replica struct {
	Task  model.TaskID
	Index int // dense per task: 0..len-1
	Proc  arch.ProcID
	Start float64
	End   float64
}

// Comm is one scheduled data transmission: the value of Edge produced by
// replica SrcIndex of the edge's source task, delivered towards replica
// DstIndex of the destination task, over Medium from processor From to
// processor To. Multi-hop routes produce one Comm per hop, chained by Hop.
type Comm struct {
	Edge     model.TaskEdgeID
	Orig     model.EdgeID
	SrcIndex int
	DstIndex int
	Hop      int // 0-based hop index within the route
	LastHop  bool
	Medium   arch.MediumID
	From     arch.ProcID
	To       arch.ProcID
	Start    float64
	End      float64
}

// Schedule is a static distributed schedule under construction or finished.
// Create one with NewSchedule; the zero value is not usable.
type Schedule struct {
	problem *spec.Problem
	tasks   *model.TaskGraph
	faults  spec.FaultModel

	// routes and fans memoise, per data-dependency, the weighted routing
	// table consulted when no direct medium carries the dependency and the
	// media-disjoint delivery fans of the Nmf-aware planner. Both depend
	// only on the topology and the edge's communication times, so one
	// memo stays exact across the whole clone family that shares it.
	routes map[model.EdgeID]*arch.RouteTable
	fans   map[model.EdgeID]*arch.FanCache

	// scratch recycles planScratch buffers across Preview/PlaceReplica
	// calls and holds the disjoint-fan search scratch of every FanCache
	// in fans (shared across clones: buffers carry no schedule state).
	scratch *scratchList

	// slab holds every replica and comm in flat columns (slab.go).
	slab slab

	procEnd   []float64
	mediumEnd []float64

	// view is the pointer-shaped materialisation of the slab (view.go),
	// dropped on every mutation. Concurrent readers of a finished
	// schedule may build it, hence the lock.
	view   atomic.Pointer[scheduleView]
	viewMu sync.Mutex
}

// NewSchedule returns an empty schedule for the problem. It validates the
// problem (which includes per-dependency reachability).
func NewSchedule(p *spec.Problem) (*Schedule, error) {
	tasks, err := p.Compile()
	if err != nil {
		return nil, err
	}
	nProcs, nMedia := p.Arc.NumProcs(), p.Arc.NumMedia()
	s := &Schedule{
		problem:   p,
		tasks:     tasks,
		faults:    p.FaultModel(),
		routes:    make(map[model.EdgeID]*arch.RouteTable),
		fans:      make(map[model.EdgeID]*arch.FanCache),
		scratch:   &scratchList{nMedia: nMedia},
		procEnd:   make([]float64, nProcs),
		mediumEnd: make([]float64, nMedia),
	}
	s.slab.init(tasks.NumTasks(), nProcs, nMedia)
	return s, nil
}

// routeFor returns the weighted route of edge from processor p to q,
// computing and memoising the edge's routing table on first use.
func (s *Schedule) routeFor(edge model.EdgeID, p, q arch.ProcID) (arch.Route, error) {
	rt, ok := s.routes[edge]
	if !ok {
		var err error
		if rt, err = s.problem.EdgeRoutes(edge); err != nil {
			return nil, err
		}
		s.routes[edge] = rt
	}
	return rt.Route(p, q)
}

// fanFor returns the media-disjoint delivery fan of edge from the sender
// processors srcs towards dst: up to len(srcs) pairwise media-disjoint
// routes, one per served sender (DESIGN.md Section 11). avoid marks the
// processors hosting replicas of the edge's sender or receiver task as
// dispreferred relays (DESIGN.md Section 12): their crash already
// endangers the delivery, so routing a chain through them would couple
// chain death to replica death under a joint processor+medium crash. The
// edge's FanCache memoises the fan per (sender set, avoid mask, receiver).
func (s *Schedule) fanFor(edge model.EdgeID, srcs []arch.ProcID, dst arch.ProcID, avoid uint64) []arch.Route {
	fc, ok := s.fans[edge]
	if !ok {
		// The weight closure must not capture a Schedule: the cache is
		// shared by the whole clone family and would otherwise pin
		// whichever clone filled it — the comm table is immutable and
		// shared.
		e, comm := edge, s.problem.Comm
		fc = arch.NewFanCache(s.problem.Arc, func(m arch.MediumID) float64 {
			return comm.Time(e, m)
		}, &s.scratch.fans)
		s.fans[edge] = fc
	}
	return fc.FanAvoiding(srcs, dst, avoid)
}

// replicaProcMask returns the bitmask of processors hosting a replica of
// t (processors beyond 63 are not representable and left out; the fan
// cache computes uncached on such architectures anyway).
func (s *Schedule) replicaProcMask(t model.TaskID) uint64 {
	sl := &s.slab
	row := int(t) * sl.nProcs
	var mask uint64
	for i := 0; i < int(sl.taskRepN[t]); i++ {
		if p := sl.repProc[sl.taskReps[row+i]]; p < 64 {
			mask |= 1 << uint(p)
		}
	}
	return mask
}

// Problem returns the scheduling problem.
func (s *Schedule) Problem() *spec.Problem { return s.problem }

// Tasks returns the compiled task graph.
func (s *Schedule) Tasks() *model.TaskGraph { return s.tasks }

// Faults returns the fault budget the schedule was built for.
func (s *Schedule) Faults() spec.FaultModel { return s.faults }

// Npf returns the processor-failure count the schedule was built for.
func (s *Schedule) Npf() int { return s.faults.Npf }

// Nmf returns the medium-failure count the schedule was built for.
func (s *Schedule) Nmf() int { return s.faults.Nmf }

// Replicas returns the replicas of a task in placement order. The returned
// slice aliases the current materialised view; callers must not hold it
// across commits.
func (s *Schedule) Replicas(t model.TaskID) []*Replica {
	v := s.viewRO()
	lo, hi := v.repStart[t], v.repStart[t+1]
	return v.byTask[lo:hi:hi]
}

// ReplicaOn returns the replica of t on processor p, or nil.
func (s *Schedule) ReplicaOn(t model.TaskID, p arch.ProcID) *Replica {
	id := s.slab.repOn(int(t), int(p))
	if id < 0 {
		return nil
	}
	return &s.viewRO().reps[id]
}

// NumReplicas returns the replica count of t without materialising the
// pointer view: the value accessor hot paths use instead of len(Replicas).
func (s *Schedule) NumReplicas(t model.TaskID) int { return int(s.slab.taskRepN[t]) }

// HasReplicaOn reports whether t has a replica on p, without materialising
// the pointer view.
func (s *Schedule) HasReplicaOn(t model.TaskID, p arch.ProcID) bool {
	return s.slab.repOn(int(t), int(p)) >= 0
}

// ReplicaProcAt returns the processor of replica i of t.
func (s *Schedule) ReplicaProcAt(t model.TaskID, i int) arch.ProcID {
	return arch.ProcID(s.slab.repProc[s.slab.taskRep(int(t), i)])
}

// ReplicaEndAt returns the fault-free end of replica i of t.
func (s *Schedule) ReplicaEndAt(t model.TaskID, i int) float64 {
	return s.slab.repEnd[s.slab.taskRep(int(t), i)]
}

// TotalReplicas returns the total number of placements across all tasks.
func (s *Schedule) TotalReplicas() int { return s.slab.numReps() }

// ProcSeq returns the replicas placed on processor p in order. The slice
// aliases the current materialised view.
func (s *Schedule) ProcSeq(p arch.ProcID) []*Replica { return s.viewRO().procSeq[p] }

// MediumSeq returns the comms scheduled on medium m in order. The slice
// aliases the current materialised view.
func (s *Schedule) MediumSeq(m arch.MediumID) []*Comm { return s.viewRO().mediumSeq[m] }

// ProcEnd returns the end of the last replica placed on p (0 when idle).
func (s *Schedule) ProcEnd(p arch.ProcID) float64 { return s.procEnd[p] }

// MediumEnd returns the end of the last comm placed on m (0 when idle).
func (s *Schedule) MediumEnd(m arch.MediumID) float64 { return s.mediumEnd[m] }

// NumComms returns the total number of scheduled comms (hops count
// individually).
func (s *Schedule) NumComms() int { return s.slab.numComms() }

// Length returns the fault-free makespan: the latest end over all replicas.
// Trailing redundant comms do not extend it (they only matter under
// failures).
func (s *Schedule) Length() float64 {
	var end float64
	for _, e := range s.slab.repEnd {
		if e > end {
			end = e
		}
	}
	return end
}

// OpCompletion returns the fault-free completion date of an operation: the
// earliest end among the replicas of its task (first result wins). Mems
// report their write half. It returns +Inf when the op is unscheduled.
func (s *Schedule) OpCompletion(op model.OpID) float64 {
	t := s.tasks.TaskOf(op)
	if s.tasks.Task(t).Kind == model.Mem {
		for _, mp := range s.tasks.MemPairs() {
			if mp.Op == op {
				t = mp.Write
			}
		}
	}
	best := math.Inf(1)
	for i := 0; i < s.NumReplicas(t); i++ {
		if e := s.ReplicaEndAt(t, i); e < best {
			best = e
		}
	}
	return best
}

// MeetsRtc reports whether the fault-free schedule satisfies the problem's
// real-time constraints, with the first violation described in the error.
func (s *Schedule) MeetsRtc() (bool, error) {
	rtc := s.problem.Rtc
	if d := rtc.Deadline; d > 0 && !math.IsInf(d, 1) {
		if l := s.Length(); l > d {
			return false, fmt.Errorf("schedule length %.4g exceeds deadline %.4g", l, d)
		}
	}
	ops := make([]model.OpID, 0, len(rtc.OpDeadlines))
	for op := range rtc.OpDeadlines {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		d := rtc.OpDeadlines[op]
		if c := s.OpCompletion(op); c > d {
			return false, fmt.Errorf("operation %q completes at %.4g, deadline %.4g",
				s.problem.Alg.Op(op).Name, c, d)
		}
	}
	return true, nil
}

// Clone returns a deep copy: the fast path behind speculative scheduling
// (FTBAR duplicates predecessors tentatively and must undo on regression).
// With the slab this is a fixed number of contiguous column copies,
// independent of how many replicas and comms the schedule holds; the route
// and fan memos and the scratch list are shared with the family.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		problem:   s.problem,
		tasks:     s.tasks,
		faults:    s.faults,
		routes:    s.routes,
		fans:      s.fans,
		scratch:   s.scratch,
		procEnd:   append([]float64(nil), s.procEnd...),
		mediumEnd: append([]float64(nil), s.mediumEnd...),
	}
	c.slab.copyFrom(&s.slab)
	return c
}

// Scheduled reports whether every replica requirement is met: each task has
// at least Npf+1 replicas.
func (s *Schedule) Scheduled() bool {
	for _, n := range s.slab.taskRepN {
		if int(n) < s.faults.Npf+1 {
			return false
		}
	}
	return true
}
