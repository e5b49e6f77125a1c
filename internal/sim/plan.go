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
// A plan densifies one schedule's pointer view into ids once and is then
// shared read-only. A state holds one scenario's progress in slices
// indexed by those ids; it is cleared between scenarios, never
// reallocated, and owned by one goroutine. oracle_test.go keeps a
// map-keyed executor as the differential reference.

// plan is the static half of the executor. Replicas are numbered task by
// task in placement order, comms medium by medium in sequence order.
type plan struct {
	s      *sched.Schedule
	nP, nM int
	reps   []planReplica
	comms  []planComm
	// taskOff[t]..taskOff[t+1] are the replica ids of task t.
	taskOff []int32
	procSeq [][]int32 // replica ids per processor, in program order
	medSeq  [][]int32 // comm ids per medium, in the static total order
	ins     []planInput
	deliv   []int32        // last-hop comm ids, in ranges named by ins
	outputs []model.TaskID // the tasks whose production defines masking
	total   int            // replicas plus comms: the items of an iteration
}

type planReplica struct {
	task    model.TaskID
	index   int
	op      model.OpID
	memRead bool // a mem read delivers old state: no op completion
	dur     float64
	in0     int32 // inputs are ins[in0:in1], one per input edge in order
	in1     int32
}

// planInput is one input edge of a replica: the last-hop comms that
// deliver it, deliv[lo:hi], or else the replica of the source task on
// the same processor (local; -1 when there is none, a simulation error).
type planInput struct {
	lo, hi int32
	local  int32
	edge   model.TaskEdgeID
}

type planComm struct {
	// src is the source replica of a hop-0 comm and the previous hop of
	// a later one (-1 when the chain lacks it: the comm never resolves).
	src      int32
	hop0     bool
	direct   bool // hop 0 and last hop: only a direct comm detects
	from, to int32
	dur      float64
}

// newPlan indexes the schedule: hop chains, the deliveries of every
// (replica, input edge), and the per-unit sequences.
func newPlan(s *sched.Schedule) *plan {
	tg := s.Tasks()
	a := s.Problem().Arc
	pl := &plan{s: s, nP: a.NumProcs(), nM: a.NumMedia(), outputs: outputTasks(tg)}
	nT := tg.NumTasks()
	pl.taskOff = make([]int32, nT+1)
	for t := 0; t < nT; t++ {
		pl.taskOff[t+1] = pl.taskOff[t] + int32(len(s.Replicas(model.TaskID(t))))
	}
	repID := func(r *sched.Replica) int32 {
		for i, q := range s.Replicas(r.Task) {
			if q == r {
				return pl.taskOff[r.Task] + int32(i)
			}
		}
		return -1
	}

	// Comms, and the hop chains keyed like the replaced executor's.
	type chainKey struct {
		edge     model.TaskEdgeID
		srcIndex int
		dstIndex int
	}
	var all []*sched.Comm
	chains := make(map[chainKey][]int32)
	pl.medSeq = make([][]int32, pl.nM)
	for m := range pl.medSeq {
		seq := s.MediumSeq(arch.MediumID(m))
		pl.medSeq[m] = make([]int32, len(seq))
		for i, c := range seq {
			id := int32(len(all))
			all = append(all, c)
			pl.medSeq[m][i] = id
			k := chainKey{c.Edge, c.SrcIndex, c.DstIndex}
			chains[k] = append(chains[k], id)
		}
	}
	type incomingKey struct {
		task  model.TaskID
		index int
		edge  model.TaskEdgeID
	}
	incoming := make(map[incomingKey][]int32)
	pl.comms = make([]planComm, len(all))
	for id, c := range all {
		pc := &pl.comms[id]
		*pc = planComm{src: -1, hop0: c.Hop == 0, direct: c.Hop == 0 && c.LastHop,
			from: int32(c.From), to: int32(c.To), dur: c.End - c.Start}
		if c.Hop == 0 {
			pc.src = pl.taskOff[tg.Edge(c.Edge).Src] + int32(c.SrcIndex)
		}
		if c.LastHop {
			k := incomingKey{tg.Edge(c.Edge).Dst, c.DstIndex, c.Edge}
			incoming[k] = append(incoming[k], int32(id))
		}
	}
	for _, hops := range chains {
		byHop := make([]int32, len(hops))
		for i := range byHop {
			byHop[i] = -1
		}
		for _, id := range hops {
			byHop[all[id].Hop] = id
		}
		for i := 1; i < len(byHop); i++ {
			if byHop[i] >= 0 {
				pl.comms[byHop[i]].src = byHop[i-1]
			}
		}
	}

	// Replicas and their inputs.
	pl.reps = make([]planReplica, pl.taskOff[nT])
	for t := 0; t < nT; t++ {
		task := tg.Task(model.TaskID(t))
		for i, r := range s.Replicas(model.TaskID(t)) {
			pr := &pl.reps[pl.taskOff[t]+int32(i)]
			*pr = planReplica{task: r.Task, index: r.Index, op: task.Op, memRead: task.Role == model.MemRead,
				dur: r.End - r.Start, in0: int32(len(pl.ins))}
			for _, eid := range tg.InView(r.Task) {
				in := planInput{lo: int32(len(pl.deliv)), local: -1, edge: eid}
				if ids := incoming[incomingKey{r.Task, r.Index, eid}]; len(ids) > 0 {
					pl.deliv = append(pl.deliv, ids...)
				} else if local := s.ReplicaOn(tg.Edge(eid).Src, r.Proc); local != nil {
					in.local = repID(local)
				}
				in.hi = int32(len(pl.deliv))
				pl.ins = append(pl.ins, in)
			}
			pr.in1 = int32(len(pl.ins))
		}
	}
	pl.procSeq = make([][]int32, pl.nP)
	for p := range pl.procSeq {
		seq := s.ProcSeq(arch.ProcID(p))
		pl.procSeq[p] = make([]int32, len(seq))
		for i, r := range seq {
			pl.procSeq[p][i] = repID(r)
		}
	}
	pl.total = len(pl.reps) + len(pl.comms)
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
	pr := &pl.reps[r]
	return fmt.Errorf("sim: replica %q#%d has no source for edge %s",
		tg.Task(pr.task).Name, pr.index, pl.s.Problem().Alg.EdgeName(tg.Edge(edge).Orig))
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
	procIdx     []int
	medIdx      []int
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
		procIdx:     make([]int, pl.nP),
		medIdx:      make([]int, pl.nM),
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

// iterate executes iteration k of the static schedule as a fixpoint sweep
// over processors and media.
func (st *state) iterate(k int) error {
	clear(st.reps)
	clear(st.comms)
	clear(st.procIdx)
	clear(st.medIdx)
	resolved := 0
	for {
		progress := false
		for p := range st.procIdx {
			n, err := st.advanceProc(p)
			if err != nil {
				return err
			}
			resolved += n
			progress = progress || n > 0
		}
		for m := range st.medIdx {
			n := st.advanceMedium(k, m)
			resolved += n
			progress = progress || n > 0
		}
		if resolved == st.pl.total {
			return nil
		}
		if !progress {
			return fmt.Errorf("%w: iteration %d, %d of %d items resolved",
				ErrStalled, k, resolved, st.pl.total)
		}
	}
}

// advanceProc resolves as many replicas as possible on processor p and
// returns how many it resolved.
func (st *state) advanceProc(p int) (int, error) {
	seq := st.pl.procSeq[p]
	resolved := 0
	for st.procIdx[p] < len(seq) {
		r := seq[st.procIdx[p]]
		if st.procDead[p] {
			st.reps[r] = replicaState{status: stDead}
			st.procIdx[p]++
			resolved++
			continue
		}
		ready, dataAt, dead, err := st.replicaData(r)
		if err != nil {
			return resolved, err
		}
		if !ready {
			break
		}
		if dead {
			// The executive blocks forever on a receive that will never
			// complete; the rest of this processor's program is stuck.
			st.procDead[p] = true
			continue
		}
		exec := st.pl.reps[r].dur
		start, ok := st.down[p].window(max(st.procAvail[p], dataAt), exec)
		if !ok {
			st.procDead[p] = true // permanent failure: nothing more runs
			continue
		}
		st.reps[r] = replicaState{status: stDone, start: start, end: start + exec}
		st.procAvail[p] = start + exec
		st.procIdx[p]++
		resolved++
	}
	return resolved, nil
}

// replicaData resolves the availability of replica r's inputs:
// ready=false while some source is still pending; dead=true when an input
// can never arrive.
func (st *state) replicaData(r int32) (ready bool, dataAt float64, dead bool, err error) {
	pl := st.pl
	for _, in := range pl.ins[pl.reps[r].in0:pl.reps[r].in1] {
		if in.lo < in.hi {
			// The static executive reads this input from its scheduled
			// receives; the first delivery wins, later ones are ignored,
			// but a pending comm could still arrive earlier than the best
			// delivery seen so far.
			first := math.Inf(1)
			for _, c := range pl.deliv[in.lo:in.hi] {
				switch cs := st.comms[c]; cs.status {
				case stPending:
					return false, 0, false, nil
				case stDone:
					if cs.end < first {
						first = cs.end
					}
				}
			}
			if math.IsInf(first, 1) {
				return true, 0, true, nil // every replicated comm vanished
			}
			if first > dataAt {
				dataAt = first
			}
			continue
		}
		if in.local < 0 {
			return false, 0, false, pl.noSource(r, in.edge)
		}
		switch ls := st.reps[in.local]; ls.status {
		case stPending:
			return false, 0, false, nil
		case stDead:
			return true, 0, true, nil
		default:
			if ls.end > dataAt {
				dataAt = ls.end
			}
		}
	}
	return true, dataAt, false, nil
}

// advanceMedium resolves as many comms as possible on medium m and returns
// how many it resolved.
func (st *state) advanceMedium(k, m int) int {
	seq := st.pl.medSeq[m]
	resolved := 0
	for ; st.medIdx[m] < len(seq); st.medIdx[m]++ {
		c := seq[st.medIdx[m]]
		pc := &st.pl.comms[c]
		var src replicaState
		switch {
		case pc.hop0:
			src = st.reps[pc.src]
		case pc.src >= 0:
			src = st.comms[pc.src]
		}
		if src.status == stPending {
			break
		}
		resolved++
		if src.status == stDead {
			st.skipComm(k, c)
			continue
		}
		// Option 2: a sender that has detected its target as faulty in an
		// earlier iteration drops the comm, freeing the medium.
		if st.mode == DetectionExpected {
			if d := st.detectedAt[int(pc.from)*st.pl.nP+int(pc.to)]; d >= 0 && d < k {
				st.comms[c] = replicaState{status: stDead}
				continue
			}
		}
		start0 := max(src.end, st.mediumAvail[m])
		// Fail-silent sending: the comm happens only if its sender AND the
		// medium are up for the whole transmission window at the scheduled
		// moment; otherwise the slot passes empty (a lost frame).
		if start, ok := st.down[pc.from].window(start0, pc.dur); !ok || start > start0 {
			st.skipComm(k, c)
			continue
		}
		if start, ok := st.mediumDown[m].window(start0, pc.dur); !ok || start > start0 {
			st.skipComm(k, c)
			continue
		}
		st.comms[c] = replicaState{status: stDone, start: start0, end: start0 + pc.dur}
		st.mediumAvail[m] = start0 + pc.dur
	}
	return resolved
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
		for _, rs := range st.reps[st.pl.taskOff[t]:st.pl.taskOff[t+1]] {
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
		pr := &st.pl.reps[r]
		if rs.status != stDone {
			ir.Dead++
			ir.repl[replKey{pr.task, pr.index}] = replicaState{status: stDead}
			continue
		}
		ir.Done++
		ir.repl[replKey{pr.task, pr.index}] = rs
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
