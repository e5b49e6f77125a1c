package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
)

// This file keeps the map-keyed executor and sweep engine that the flat
// executor (plan.go) replaced, unchanged, as the reference the
// differential tests compare against: oracleRun is the former Run,
// oracleSweep the former sweep and oracleCombinedCells the former
// combinedCells. Every scenario rebuilds its hop-chain index and keys its
// state by *sched.Replica and *sched.Comm.

type commState struct {
	status itemStatus
	start  float64
	end    float64
}

// executor carries the static indexes and the cross-iteration state.
type executor struct {
	s          *sched.Schedule
	tg         *model.TaskGraph
	down       []downIntervals
	mediumDown []downIntervals
	mode       DetectionMode
	nP         int
	nM         int
	// static comm indexes
	prevHop  map[*sched.Comm]*sched.Comm
	incoming map[incomingKey][]*sched.Comm
	// cross-iteration state
	procAvail   []float64
	mediumAvail []float64
	procDead    []bool
	detectedAt  [][]int // [reporter][suspect] iteration of detection, -1 = never
	outputs     []model.TaskID
}

type incomingKey struct {
	task  model.TaskID
	index int
	edge  model.TaskEdgeID
}

// oracleRun executes the schedule under the scenario and returns the
// per-iteration report.
func oracleRun(s *sched.Schedule, sc Scenario) (*Result, error) {
	if err := sc.Validate(s.Problem().Arc); err != nil {
		return nil, err
	}
	iters := sc.Iterations
	if iters == 0 {
		iters = 1
	}
	ex := newExecutor(s, sc)
	res := &Result{Scenario: sc}
	for k := 0; k < iters; k++ {
		ir, err := ex.runIteration(k)
		if err != nil {
			return nil, err
		}
		res.Iterations = append(res.Iterations, *ir)
	}
	return res, nil
}

func newExecutor(s *sched.Schedule, sc Scenario) *executor {
	arcN := s.Problem().Arc
	ex := &executor{
		s:           s,
		tg:          s.Tasks(),
		down:        buildDownIntervals(arcN.NumProcs(), sc.Failures),
		mediumDown:  buildMediumDown(arcN.NumMedia(), sc.MediumFailures),
		mode:        sc.Detection,
		nP:          arcN.NumProcs(),
		nM:          arcN.NumMedia(),
		prevHop:     make(map[*sched.Comm]*sched.Comm),
		incoming:    make(map[incomingKey][]*sched.Comm),
		procAvail:   make([]float64, arcN.NumProcs()),
		mediumAvail: make([]float64, arcN.NumMedia()),
		procDead:    make([]bool, arcN.NumProcs()),
	}
	ex.detectedAt = make([][]int, ex.nP)
	for i := range ex.detectedAt {
		ex.detectedAt[i] = make([]int, ex.nP)
		for j := range ex.detectedAt[i] {
			ex.detectedAt[i][j] = -1
		}
	}
	ex.indexComms()
	ex.outputs = outputTasks(ex.tg)
	return ex
}

// indexComms links multi-hop chains and collects, per (task, replica,
// edge), the last-hop comms that deliver to it.
func (ex *executor) indexComms() {
	type chainKey struct {
		edge     model.TaskEdgeID
		srcIndex int
		dstIndex int
	}
	chains := make(map[chainKey][]*sched.Comm)
	for m := 0; m < ex.nM; m++ {
		for _, c := range ex.s.MediumSeq(arch.MediumID(m)) {
			chains[chainKey{c.Edge, c.SrcIndex, c.DstIndex}] = append(
				chains[chainKey{c.Edge, c.SrcIndex, c.DstIndex}], c)
		}
	}
	for _, hops := range chains {
		byHop := make([]*sched.Comm, len(hops))
		for _, c := range hops {
			byHop[c.Hop] = c
		}
		for i, c := range byHop {
			if i > 0 {
				ex.prevHop[c] = byHop[i-1]
			}
			if c.LastHop {
				edge := ex.tg.Edge(c.Edge)
				k := incomingKey{edge.Dst, c.DstIndex, c.Edge}
				ex.incoming[k] = append(ex.incoming[k], c)
			}
		}
	}
}

// runIteration executes one iteration of the static schedule as a fixpoint
// sweep over processors and media.
func (ex *executor) runIteration(k int) (*IterationResult, error) {
	rst := make(map[*sched.Replica]*replicaState)
	cst := make(map[*sched.Comm]*commState)
	procIdx := make([]int, ex.nP)
	medIdx := make([]int, ex.nM)
	total := 0
	for p := 0; p < ex.nP; p++ {
		total += len(ex.s.ProcSeq(arch.ProcID(p)))
	}
	for m := 0; m < ex.nM; m++ {
		total += len(ex.s.MediumSeq(arch.MediumID(m)))
	}
	resolved := 0
	for {
		progress := false
		for p := 0; p < ex.nP; p++ {
			n, err := ex.advanceProc(k, arch.ProcID(p), procIdx, rst, cst)
			if err != nil {
				return nil, err
			}
			resolved += n
			progress = progress || n > 0
		}
		for m := 0; m < ex.nM; m++ {
			n := ex.advanceMedium(k, arch.MediumID(m), medIdx, rst, cst)
			resolved += n
			progress = progress || n > 0
		}
		if resolved == total {
			break
		}
		if !progress {
			return nil, fmt.Errorf("%w: iteration %d, %d of %d items resolved",
				ErrStalled, k, resolved, total)
		}
	}
	return ex.collect(k, rst, cst), nil
}

// advanceProc resolves as many replicas as possible on processor p and
// returns how many it resolved.
func (ex *executor) advanceProc(k int, p arch.ProcID, procIdx []int,
	rst map[*sched.Replica]*replicaState, cst map[*sched.Comm]*commState) (int, error) {

	seq := ex.s.ProcSeq(p)
	resolved := 0
	for procIdx[p] < len(seq) {
		r := seq[procIdx[p]]
		if ex.procDead[p] {
			rst[r] = &replicaState{status: stDead}
			procIdx[p]++
			resolved++
			continue
		}
		ready, dataAt, dead, err := ex.replicaData(k, r, rst, cst)
		if err != nil {
			return resolved, err
		}
		if !ready {
			break
		}
		if dead {
			// The executive blocks forever on a receive that will never
			// complete; the rest of this processor's program is stuck.
			ex.procDead[p] = true
			continue
		}
		exec := r.End - r.Start // execution time on this processor
		start0 := math.Max(ex.procAvail[p], dataAt)
		start, ok := ex.down[p].window(start0, exec)
		if !ok {
			ex.procDead[p] = true // permanent failure: nothing more runs
			continue
		}
		rst[r] = &replicaState{status: stDone, start: start, end: start + exec}
		ex.procAvail[p] = start + exec
		procIdx[p]++
		resolved++
	}
	return resolved, nil
}

// replicaData resolves the availability of r's inputs: ready=false while
// some source is still pending; dead=true when an input can never arrive.
func (ex *executor) replicaData(k int, r *sched.Replica,
	rst map[*sched.Replica]*replicaState, cst map[*sched.Comm]*commState) (ready bool, dataAt float64, dead bool, err error) {

	for _, eid := range ex.tg.In(r.Task) {
		comms := ex.incoming[incomingKey{r.Task, r.Index, eid}]
		if len(comms) > 0 {
			// The static executive reads this input from its scheduled
			// receives; the first delivery wins, later ones are ignored.
			first := math.Inf(1)
			anyPending := false
			for _, c := range comms {
				st, okc := cst[c]
				if !okc {
					anyPending = true
					continue
				}
				switch st.status {
				case stPending:
					anyPending = true
				case stDone:
					if st.end < first {
						first = st.end
					}
				}
			}
			if math.IsInf(first, 1) {
				if anyPending {
					return false, 0, false, nil
				}
				return true, 0, true, nil // every replicated comm vanished
			}
			// A pending comm could still arrive earlier than the best
			// delivery seen so far; wait for full resolution.
			if anyPending {
				return false, 0, false, nil
			}
			if first > dataAt {
				dataAt = first
			}
			continue
		}
		edge := ex.tg.Edge(eid)
		local := ex.s.ReplicaOn(edge.Src, r.Proc)
		if local == nil {
			return false, 0, false, fmt.Errorf("sim: replica %q#%d has no source for edge %s",
				ex.tg.Task(r.Task).Name, r.Index, ex.s.Problem().Alg.EdgeName(edge.Orig))
		}
		st, okl := rst[local]
		if !okl || st.status == stPending {
			return false, 0, false, nil
		}
		if st.status == stDead {
			return true, 0, true, nil
		}
		if st.end > dataAt {
			dataAt = st.end
		}
	}
	return true, dataAt, false, nil
}

// advanceMedium resolves as many comms as possible on medium m and returns
// how many it resolved.
func (ex *executor) advanceMedium(k int, m arch.MediumID, medIdx []int,
	rst map[*sched.Replica]*replicaState, cst map[*sched.Comm]*commState) int {

	seq := ex.s.MediumSeq(m)
	resolved := 0
	for medIdx[m] < len(seq) {
		c := seq[medIdx[m]]
		var dataAt float64
		if c.Hop == 0 {
			edge := ex.tg.Edge(c.Edge)
			src := ex.s.Replicas(edge.Src)[c.SrcIndex]
			st, ok := rst[src]
			if !ok || st.status == stPending {
				break
			}
			if st.status == stDead {
				ex.skipComm(k, c, cst)
				medIdx[m]++
				resolved++
				continue
			}
			dataAt = st.end
		} else {
			prev := ex.prevHop[c]
			st, ok := cst[prev]
			if !ok || st.status == stPending {
				break
			}
			if st.status == stDead {
				ex.skipComm(k, c, cst)
				medIdx[m]++
				resolved++
				continue
			}
			dataAt = st.end
		}
		// Option 2: a sender that has detected its target as faulty in an
		// earlier iteration drops the comm, freeing the medium.
		if ex.mode == DetectionExpected {
			if d := ex.detectedAt[c.From][c.To]; d >= 0 && d < k {
				cst[c] = &commState{status: stDead}
				medIdx[m]++
				resolved++
				continue
			}
		}
		dur := c.End - c.Start
		start0 := math.Max(dataAt, ex.mediumAvail[m])
		// Fail-silent sending: the comm happens only if its sender AND the
		// medium are up for the whole transmission window at the scheduled
		// moment; otherwise the slot passes empty (a lost frame).
		start, ok := ex.down[c.From].window(start0, dur)
		if !ok || start > start0 {
			ex.skipComm(k, c, cst)
			medIdx[m]++
			resolved++
			continue
		}
		mStart, mOK := ex.mediumDown[m].window(start0, dur)
		if !mOK || mStart > start0 {
			ex.skipComm(k, c, cst)
			medIdx[m]++
			resolved++
			continue
		}
		cst[c] = &commState{status: stDone, start: start0, end: start0 + dur}
		ex.mediumAvail[m] = start0 + dur
		medIdx[m]++
		resolved++
	}
	return resolved
}

// skipComm marks a comm as never transmitted and records the detection
// (paper Section 5, option 2): the receiving processor of a missing
// point-to-point comm marks the sender faulty from this iteration on.
func (ex *executor) skipComm(k int, c *sched.Comm, cst map[*sched.Comm]*commState) {
	cst[c] = &commState{status: stDead}
	if ex.mode != DetectionExpected {
		return
	}
	if c.Hop != 0 || !c.LastHop {
		return // multi-hop blame is ambiguous; only direct comms detect
	}
	if ex.detectedAt[c.To][c.From] < 0 {
		ex.detectedAt[c.To][c.From] = k
	}
}

// collect summarises an iteration.
func (ex *executor) collect(k int, rst map[*sched.Replica]*replicaState, cst map[*sched.Comm]*commState) *IterationResult {
	ir := &IterationResult{
		Index:  k,
		opDone: make(map[model.OpID]float64),
		repl:   make(map[replKey]replicaState),
	}
	for t := 0; t < ex.tg.NumTasks(); t++ {
		task := ex.tg.Task(model.TaskID(t))
		for _, r := range ex.s.Replicas(model.TaskID(t)) {
			st := rst[r]
			if st == nil {
				st = &replicaState{status: stDead}
			}
			ir.repl[replKey{r.Task, r.Index}] = *st
			if st.status == stDone {
				ir.Done++
				if st.end > ir.Makespan {
					ir.Makespan = st.end
				}
				if task.Role != model.MemRead { // reads deliver old state
					if cur, ok := ir.opDone[task.Op]; !ok || st.end < cur {
						ir.opDone[task.Op] = st.end
					}
				}
			} else {
				ir.Dead++
			}
		}
	}
	for m := 0; m < ex.nM; m++ {
		for _, c := range ex.s.MediumSeq(arch.MediumID(m)) {
			if st := cst[c]; st != nil && st.status == stDone {
				ir.Delivered++
			} else {
				ir.Skipped++
			}
		}
	}
	ir.OutputsOK = true
	for _, t := range ex.outputs {
		produced := false
		for _, r := range ex.s.Replicas(t) {
			if st := rst[r]; st != nil && st.status == stDone {
				produced = true
				break
			}
		}
		if !produced {
			ir.OutputsOK = false
			break
		}
	}
	return ir
}

// oracleSweep simulates every (cell, probe instant) scenario on a bounded worker
// pool — 0 picks GOMAXPROCS, 1 runs serially — and reduces each cell in
// probe order, so the outcomes are bit-identical for every worker count.
// The first simulation error stops the sweep.
func oracleSweep(s *sched.Schedule, cells []crashCell, workers int) ([]cellOutcome, error) {
	type job struct {
		cell int
		at   float64
	}
	var jobs []job
	for ci, c := range cells {
		for _, at := range c.probes {
			jobs = append(jobs, job{ci, at})
		}
	}
	type result struct {
		makespan float64
		masked   bool
	}
	results := make([]result, len(jobs))
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
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				c, at := cells[jobs[i].cell], jobs[i].at
				var sc Scenario
				for _, p := range c.procs {
					sc.Failures = append(sc.Failures, Permanent(p, at))
				}
				for _, m := range c.media {
					sc.MediumFailures = append(sc.MediumFailures, PermanentLink(m, at))
				}
				res, err := oracleRun(s, sc)
				if err != nil {
					errOnce.Do(func() { firstErr = err; failed.Store(true) })
					return
				}
				results[i] = result{res.Iterations[0].Makespan, res.Iterations[0].OutputsOK}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	outcomes := make([]cellOutcome, len(cells))
	i := 0
	for ci, c := range cells {
		o := cellOutcome{worstAt: -1, masked: true}
		for _, at := range c.probes {
			r := results[i]
			i++
			if r.makespan > o.worstMakespan {
				o.worstMakespan, o.worstAt = r.makespan, at
			}
			if at == 0 {
				o.atZeroMakespan = r.makespan
			}
			o.masked = o.masked && r.masked
		}
		outcomes[ci] = o
	}
	return outcomes, nil
}

// oracleCombinedCells is the former combinedCells, which recomputed every
// unit's probe instants for each cell.
func oracleCombinedCells(s *sched.Schedule) []crashCell {
	var cells []crashCell
	for _, procs := range procSubsets(s.Problem().Arc.NumProcs(), s.Npf()) {
		for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
			cells = append(cells, crashCell{procs: procs, media: []arch.MediumID{arch.MediumID(m)},
				probes: oracleCombinedCrashProbes(s, procs, arch.MediumID(m))})
		}
	}
	return cells
}

// oracleCombinedCrashProbes merges the decisive crash instants of every crashed
// processor and of the crashed medium: time zero plus just before/after
// each of their fault-free event completions, ascending and deduplicated.
func oracleCombinedCrashProbes(s *sched.Schedule, procs []arch.ProcID, m arch.MediumID) []float64 {
	var all []float64
	for _, p := range procs {
		all = append(all, crashProbes(s, p)...)
	}
	all = append(all, linkCrashProbes(s, m)...)
	sort.Float64s(all)
	dedup := all[:0]
	for i, t := range all {
		if i == 0 || t != dedup[len(dedup)-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup
}
