package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
)

// This file is the executor behind Run and every sweep, in two halves.
// A plan reads one schedule's wiring off its delivery index once and is
// then shared read-only. A state holds one scenario's progress in slices
// indexed by the index's replica and comm ids; it is cleared between
// scenarios, never reallocated, and owned by one goroutine.
// oracle_test.go keeps a map-keyed executor as the differential
// reference.

// plan is the static half of the executor: the schedule's delivery index,
// which numbers replicas task by task and comms medium by medium and
// wires programs, inputs and hops, plus what only the simulator reads.
type plan struct {
	s       *sched.Schedule
	ix      *sched.DeliveryIndex
	nP, nM  int
	reps    []planReplica
	comms   []planComm
	outputs []model.TaskID // the tasks whose production defines masking
	// order lists every replica (as its id r) and comm (as ^c) after the
	// items it reads (DeliveryIndex.Order), nil when the wiring has none.
	order []int32
}

type planReplica struct {
	op      model.OpID
	memRead bool // a mem read delivers old state: no op completion
	proc    int32
	dur     float64
}

type planComm struct {
	// src is the source replica of a hop-0 comm and the previous hop of
	// a later one (-1 when the chain lacks it: the comm never resolves).
	src      int32
	hop0     bool
	direct   bool // hop 0 and last hop: only a direct comm detects
	medium   int32
	from, to int32
	dur      float64
}

// newPlan indexes the schedule once, adds the durations and flags and
// reads the index's order.
func newPlan(s *sched.Schedule) *plan {
	tg := s.Tasks()
	a := s.Problem().Arc
	ix := s.Deliveries()
	pl := &plan{s: s, ix: ix, nP: a.NumProcs(), nM: a.NumMedia(), outputs: tg.Outputs(),
		reps: make([]planReplica, len(ix.Replicas)), comms: make([]planComm, len(ix.Comms))}
	for id, r := range ix.Replicas {
		task := tg.Task(r.Task)
		pl.reps[id] = planReplica{op: task.Op, memRead: task.Role == model.MemRead,
			proc: int32(r.Proc), dur: r.End - r.Start}
	}
	for id, c := range ix.Comms {
		src := ix.Prev[id]
		if c.Hop == 0 {
			src = ix.Sender[id]
		}
		pl.comms[id] = planComm{src: src, hop0: c.Hop == 0, direct: c.Hop == 0 && c.LastHop,
			medium: int32(c.Medium), from: int32(c.From), to: int32(c.To), dur: c.End - c.Start}
	}
	pl.order = ix.Order()
	return pl
}

// unitsValid reports whether every processor and medium id names a unit
// of the architecture.
func (pl *plan) unitsValid(procs []arch.ProcID, media []arch.MediumID) bool {
	for _, p := range procs {
		if p < 0 || int(p) >= pl.nP {
			return false
		}
	}
	for _, m := range media {
		if m < 0 || int(m) >= pl.nM {
			return false
		}
	}
	return true
}

// noSource is the error of a replica whose input edge has neither a
// delivery nor a local source.
func (pl *plan) noSource(r int32, edge model.TaskEdgeID) error {
	tg := pl.s.Tasks()
	rep := pl.ix.Replicas[r]
	return fmt.Errorf("sim: replica %q#%d has no source for edge %s",
		tg.Task(rep.Task).Name, rep.Index, pl.s.Problem().Alg.EdgeName(tg.Edge(edge).Orig))
}

// forEach runs fn(st, i) for every i in [0, n) on a bounded pool — 0
// workers picks GOMAXPROCS, 1 runs serially — in which each worker owns
// one state. The first error stops the pool and is returned.
func (pl *plan) forEach(n, workers int, fn func(st *state, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := pl.newState()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(st, i); err != nil {
					errOnce.Do(func() { firstErr = err; failed.Store(true) })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// state is the per-scenario half of the executor.
type state struct {
	pl          *plan
	reps        []replicaState // by replica id
	comms       []replicaState // by comm id
	procAvail   []float64
	mediumAvail []float64
	procDead    []bool
	detectedAt  []int // [reporter*nP+suspect] iteration of detection, -1 = never
	down        []downIntervals
	mediumDown  []downIntervals
	mode        DetectionMode
	// Scratch for CrashSetsMasked's unit lists.
	procBuf  []arch.ProcID
	mediaBuf []arch.MediumID
}

func (pl *plan) newState() *state {
	return &state{
		pl:          pl,
		reps:        make([]replicaState, len(pl.reps)),
		comms:       make([]replicaState, len(pl.comms)),
		procAvail:   make([]float64, pl.nP),
		mediumAvail: make([]float64, pl.nM),
		procDead:    make([]bool, pl.nP),
		detectedAt:  make([]int, pl.nP*pl.nP),
		down:        make([]downIntervals, pl.nP),
		mediumDown:  make([]downIntervals, pl.nM),
	}
}

// reset starts a scenario with no failures under the detection mode.
func (st *state) reset(mode DetectionMode) {
	st.mode = mode
	clear(st.procAvail)
	clear(st.mediumAvail)
	clear(st.procDead)
	for i := range st.detectedAt {
		st.detectedAt[i] = -1
	}
	for p := range st.down {
		st.down[p] = st.down[p][:0]
	}
	for m := range st.mediumDown {
		st.mediumDown[m] = st.mediumDown[m][:0]
	}
}

// load starts a validated scenario.
func (st *state) load(sc Scenario) {
	st.reset(sc.Detection)
	st.down = buildDownIntervals(st.pl.nP, sc.Failures)
	st.mediumDown = buildMediumDown(st.pl.nM, sc.MediumFailures)
}

// crash simulates one iteration with every listed processor and medium
// failed permanently from at, and returns the makespan and whether every
// output was produced. unitsOK reports that the caller checked the ids
// with unitsValid; only when it is false or at is not a valid instant is
// the scenario built, to return Validate's error for it.
func (st *state) crash(procs []arch.ProcID, media []arch.MediumID, at float64, unitsOK bool) (float64, bool, error) {
	if !unitsOK || !validWindow(at, math.Inf(1)) {
		if err := crashScenario(procs, media, at).Validate(st.pl.s.Problem().Arc); err != nil {
			return 0, false, err
		}
	}
	st.reset(DetectionNone)
	// A permanent window shadows any later one, so repeats need no merge.
	for _, p := range procs {
		st.down[p] = append(st.down[p], [2]float64{at, math.Inf(1)})
	}
	for _, m := range media {
		st.mediumDown[m] = append(st.mediumDown[m], [2]float64{at, math.Inf(1)})
	}
	if err := st.iterate(0); err != nil {
		return 0, false, err
	}
	return st.makespan(), st.outputsOK(), nil
}

// iterate executes iteration k of the static schedule: one pass over the
// plan's dependency order, which resolves every item once, from the items
// it reads (DESIGN.md Section 5). A processor stuck in an earlier
// iteration stays stuck (procDead).
func (st *state) iterate(k int) error {
	if st.pl.order == nil {
		return fmt.Errorf("%w: iteration %d, the wiring of its %d items has no dependency order",
			ErrStalled, k, len(st.pl.reps)+len(st.pl.comms))
	}
	for _, item := range st.pl.order {
		if item < 0 {
			st.sendComm(k, ^item)
		} else if err := st.runReplica(item); err != nil {
			return err
		}
	}
	return nil
}

// runReplica resolves replica r.
func (st *state) runReplica(r int32) error {
	pr := &st.pl.reps[r]
	p := pr.proc
	if !st.procDead[p] {
		dataAt, dead, err := st.replicaData(r)
		if err != nil {
			return err
		}
		if !dead {
			if start, ok := st.down[p].window(max(st.procAvail[p], dataAt), pr.dur); ok {
				st.reps[r] = replicaState{status: stDone, start: start, end: start + pr.dur}
				st.procAvail[p] = start + pr.dur
				return nil
			}
		}
		// The executive blocks forever on a receive that will never
		// complete, and a permanent failure runs nothing more: either way
		// the rest of this processor's program is stuck.
		st.procDead[p] = true
	}
	st.reps[r] = replicaState{status: stDead}
	return nil
}

// replicaData resolves the availability of replica r's inputs: dead=true
// when an input can never arrive.
func (st *state) replicaData(r int32) (dataAt float64, dead bool, err error) {
	ix := st.pl.ix
	ins := ix.Inputs[ix.InputStart[r]:ix.InputStart[r+1]]
	for i := range ins {
		in := &ins[i]
		if len(in.Arrivals) > 0 {
			// The static executive reads this input from its scheduled
			// receives; the first delivery wins, later ones are ignored.
			first := math.Inf(1)
			for _, c := range in.Arrivals {
				if cs := st.comms[c]; cs.status == stDone && cs.end < first {
					first = cs.end
				}
			}
			if math.IsInf(first, 1) {
				return 0, true, nil // every replicated comm vanished
			}
			if first > dataAt {
				dataAt = first
			}
			continue
		}
		if in.Local < 0 {
			return 0, false, st.pl.noSource(r, in.Edge)
		}
		ls := st.reps[in.Local]
		if ls.status == stDead {
			return 0, true, nil
		}
		if ls.end > dataAt {
			dataAt = ls.end
		}
	}
	return dataAt, false, nil
}

// sendComm resolves comm c in iteration k.
func (st *state) sendComm(k int, c int32) {
	pc := &st.pl.comms[c]
	var src replicaState
	if pc.hop0 {
		src = st.reps[pc.src]
	} else {
		src = st.comms[pc.src]
	}
	if src.status == stDead {
		st.skipComm(k, c)
		return
	}
	// Option 2: a sender that has detected its target as faulty in an
	// earlier iteration drops the comm, freeing the medium.
	if st.mode == DetectionExpected {
		if d := st.detectedAt[int(pc.from)*st.pl.nP+int(pc.to)]; d >= 0 && d < k {
			st.comms[c] = replicaState{status: stDead}
			return
		}
	}
	m := pc.medium
	start0 := max(src.end, st.mediumAvail[m])
	// Fail-silent sending: the comm happens only if its sender AND the
	// medium are up for the whole transmission window at the scheduled
	// moment; otherwise the slot passes empty (a lost frame).
	if start, ok := st.down[pc.from].window(start0, pc.dur); !ok || start > start0 {
		st.skipComm(k, c)
		return
	}
	if start, ok := st.mediumDown[m].window(start0, pc.dur); !ok || start > start0 {
		st.skipComm(k, c)
		return
	}
	st.comms[c] = replicaState{status: stDone, start: start0, end: start0 + pc.dur}
	st.mediumAvail[m] = start0 + pc.dur
}

// skipComm marks a comm as never transmitted and records the detection
// (paper Section 5, option 2): the receiving processor of a missing
// point-to-point comm marks the sender faulty from this iteration on.
func (st *state) skipComm(k int, c int32) {
	st.comms[c] = replicaState{status: stDead}
	pc := &st.pl.comms[c]
	if st.mode != DetectionExpected || !pc.direct {
		return // multi-hop blame is ambiguous; only direct comms detect
	}
	if i := int(pc.to)*st.pl.nP + int(pc.from); st.detectedAt[i] < 0 {
		st.detectedAt[i] = k
	}
}

// makespan is the completion of the last replica that executed.
func (st *state) makespan() float64 {
	var m float64
	for _, rs := range st.reps {
		if rs.status == stDone && rs.end > m {
			m = rs.end
		}
	}
	return m
}

// outputsOK reports whether every output task was produced by at least
// one replica.
func (st *state) outputsOK() bool {
	for _, t := range st.pl.outputs {
		produced := false
		for _, rs := range st.reps[st.pl.ix.RepStart[t]:st.pl.ix.RepStart[t+1]] {
			if rs.status == stDone {
				produced = true
				break
			}
		}
		if !produced {
			return false
		}
	}
	return true
}

// result summarises iteration k.
func (st *state) result(k int) IterationResult {
	ir := IterationResult{
		Index:     k,
		Makespan:  st.makespan(),
		OutputsOK: st.outputsOK(),
		opDone:    make(map[model.OpID]float64),
		repl:      make(map[replKey]replicaState, len(st.reps)),
	}
	for r, rs := range st.reps {
		pr, rep := &st.pl.reps[r], st.pl.ix.Replicas[r]
		if rs.status != stDone {
			ir.Dead++
			ir.repl[replKey{rep.Task, rep.Index}] = replicaState{status: stDead}
			continue
		}
		ir.Done++
		ir.repl[replKey{rep.Task, rep.Index}] = rs
		if cur, ok := ir.opDone[pr.op]; !pr.memRead && (!ok || rs.end < cur) {
			ir.opDone[pr.op] = rs.end
		}
	}
	for _, cs := range st.comms {
		if cs.status == stDone {
			ir.Delivered++
		} else {
			ir.Skipped++
		}
	}
	return ir
}
