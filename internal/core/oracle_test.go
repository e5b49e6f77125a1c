package core

// The reference engine: the seed implementation of FTBAR, kept only as
// the oracle the differential suite holds the planner to. At every step
// it rescans all tasks for candidates, previews every candidate ×
// processor pair from scratch, picks crash-separated replica sets by
// exhaustive enumeration, and undoes Minimize-start-time's speculation
// by clone-and-swap. It shares no selection code with the planner: a bug
// in the ready queue, the σ cache, the screen, the pruned pick or the
// in-place undo shows up as a decision-log difference.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
	"ftbar/internal/spec"
)

// oracle carries the mutable state of one reference run.
type oracle struct {
	s     *sched.Schedule
	tg    *model.TaskGraph
	p     *spec.Problem
	fm    spec.FaultModel
	opts  Options
	tails []float64
	done  []bool
	steps []Step
	// vuln is the PairCutMatrix of the architecture when the
	// crash-separated placement bias is active (Nmf >= 1), nil otherwise.
	vuln   [][]bool
	rounds int
	// evalBuf, procsBuf and sigmasBuf are scratch for candidate
	// evaluation: bestProcs results only live until the next call
	// (selectCandidate copies the winner's into the decision log). Two
	// buffer pairs alternate so the best candidate's result survives
	// while the next candidate is evaluated.
	evalBuf   []procSigma
	procsBuf  [2][]arch.ProcID
	sigmasBuf [2][]float64
}

// oracleRun schedules p with the reference engine.
func oracleRun(p *spec.Problem, opts Options) (*Result, error) {
	s, err := sched.NewSchedule(p)
	if err != nil {
		return nil, err
	}
	tg := s.Tasks()
	o := &oracle{
		s:     s,
		tg:    tg,
		p:     p,
		fm:    p.FaultModel(),
		opts:  opts,
		tails: Tails(p, tg, opts.TailsWithComms),
		done:  make([]bool, tg.NumTasks()),
	}
	if o.fm.Nmf > 0 {
		o.vuln = p.Arc.PairCutMatrix()
	}
	if err := o.run(); err != nil {
		return nil, err
	}
	// placeMinimized may roll back speculative duplications by swapping
	// in a clone, so the oracle's current schedule is the authoritative
	// one.
	res := &Result{
		Schedule:      o.s,
		Steps:         o.steps,
		ExtraReplicas: extraReplicasOf(o.s, o.fm),
	}
	res.Planner.Rounds = o.rounds
	ok, rtcErr := o.s.MeetsRtc()
	res.MeetsRtc = ok
	if rtcErr != nil {
		res.RtcViolation = rtcErr.Error()
	}
	return res, nil
}

func (o *oracle) run() error {
	remaining := 0
	for _, d := range o.done {
		if !d {
			remaining++
		}
	}
	for remaining > 0 {
		cands := o.candidates()
		if len(cands) == 0 {
			return fmt.Errorf("%w: %d tasks unschedulable", ErrInternal, remaining)
		}
		o.rounds++
		best, procs, sigmas, urgency, err := o.selectCandidate(cands)
		if err != nil {
			return err
		}
		if err := o.commitStep(best, procs, sigmas, urgency); err != nil {
			return err
		}
		remaining--
	}
	return nil
}

// commitStep places the round winner's replicas, marks it done and
// appends the decision log entry.
func (o *oracle) commitStep(best model.TaskID, procs []arch.ProcID, sigmas []float64, urgency float64) error {
	for _, proc := range procs {
		var err error
		if o.opts.NoDuplication {
			_, err = o.s.PlaceReplica(best, proc)
		} else {
			err = o.placeMinimized(best, proc)
		}
		if errors.Is(err, sched.ErrNoDisjointDelivery) {
			return fmt.Errorf("%w: task %q on %q: %w", ErrNoProcessorChoice,
				o.tg.Task(best).Name, o.p.Arc.Proc(proc).Name, err)
		}
		if err != nil {
			return err
		}
	}
	o.done[best] = true
	o.steps = append(o.steps, Step{
		Task: best, Procs: procs, Sigmas: sigmas, Urgency: urgency,
	})
	return nil
}

// candidates returns the unscheduled tasks whose predecessors are all
// scheduled, in ascending id order (paper: O_cand). A mem's write half
// additionally waits for its read half, whose placements pin the write's
// processors (DESIGN.md Section 4).
func (o *oracle) candidates() []model.TaskID {
	readOf := make(map[model.TaskID]model.TaskID)
	for _, mp := range o.tg.MemPairs() {
		readOf[mp.Write] = mp.Read
	}
	var out []model.TaskID
	for t := 0; t < o.tg.NumTasks(); t++ {
		if o.done[t] {
			continue
		}
		ready := true
		for _, pred := range o.tg.Preds(model.TaskID(t)) {
			if !o.done[pred] {
				ready = false
				break
			}
		}
		if read, ok := readOf[model.TaskID(t)]; ok && !o.done[read] {
			ready = false
		}
		if ready {
			out = append(out, model.TaskID(t))
		}
	}
	return out
}

// selectCandidate performs micro-steps À and Á: for every candidate keep
// the Npf+1 processors of minimum pressure, then pick the candidate whose
// best pressure is maximal (most urgent). Ties break towards the smaller
// task id; candidate order makes this deterministic. The winner's
// processors and pressures are copied out of the scratch buffers for the
// decision log.
func (o *oracle) selectCandidate(cands []model.TaskID) (model.TaskID, []arch.ProcID, []float64, float64, error) {
	bestTask := model.TaskID(-1)
	bestUrgency := math.Inf(-1)
	var bestProcs []arch.ProcID
	var bestSigmas []float64
	cur := 0
	for _, t := range cands {
		procs, sigmas, urgency, err := o.bestProcs(t, o.procsBuf[cur][:0], o.sigmasBuf[cur][:0])
		if err != nil {
			return -1, nil, nil, 0, err
		}
		o.procsBuf[cur], o.sigmasBuf[cur] = procs, sigmas
		if urgency > bestUrgency {
			bestTask, bestUrgency = t, urgency
			bestProcs, bestSigmas = procs, sigmas
			cur = 1 - cur // shield the winner's buffers from the next evaluation
		}
	}
	if bestTask < 0 {
		return -1, nil, nil, 0, fmt.Errorf("%w: no selectable candidate", ErrInternal)
	}
	return bestTask, append([]arch.ProcID(nil), bestProcs...), append([]float64(nil), bestSigmas...), bestUrgency, nil
}

// bestProcs appends the target processors for a task into the provided
// buffers, in ascending pressure order, plus the task's selection key
// (the minimum pressure over every usable processor). Ordinary tasks get
// the Npf+1 cheapest processors, crash-separated under a combined
// budget; mem write halves are pinned to their read half's processors.
func (o *oracle) bestProcs(t model.TaskID, procs []arch.ProcID, sigmas []float64) ([]arch.ProcID, []float64, float64, error) {
	task := o.tg.Task(t)
	if task.Role == model.MemWrite {
		return o.memWriteProcs(t, procs, sigmas)
	}
	all := o.evalBuf[:0]
	for p := 0; p < o.p.Arc.NumProcs(); p++ {
		sig := Sigma(o.s, o.tails, t, arch.ProcID(p))
		if !math.IsInf(sig, 1) {
			all = append(all, procSigma{arch.ProcID(p), sig})
		}
	}
	o.evalBuf = all
	need := o.fm.Replicas()
	if len(all) < need {
		return nil, nil, 0, fmt.Errorf("%w: task %q has %d usable processors, need %d",
			ErrNoProcessorChoice, task.Name, len(all), need)
	}
	// Insertion sort on (sigma, proc): a total order.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].sigma < all[j-1].sigma ||
			(all[j].sigma == all[j-1].sigma && all[j].proc < all[j-1].proc)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	urgency := all[0].sigma
	if o.vuln != nil {
		procs, sigmas = o.survivableProcs(all, need, procs, sigmas)
		return procs, sigmas, urgency, nil
	}
	for i := 0; i < need; i++ {
		procs = append(procs, all[i].proc)
		sigmas = append(sigmas, all[i].sigma)
	}
	return procs, sigmas, urgency, nil
}

// survivableProcs is the crash-separated pick by exhaustive enumeration:
// every (Npf+1)-subset of the (sigma, proc) order in lexicographic order,
// keeping the first one with the fewest PairCutVulnerable pairs and
// stopping at a set with none.
func (o *oracle) survivableProcs(all []procSigma, need int, procs []arch.ProcID, sigmas []float64) ([]arch.ProcID, []float64) {
	idx := make([]int, need)
	for i := range idx {
		idx[i] = i
	}
	best := append([]int(nil), idx...)
	bestPenalty := o.setPenalty(all, idx)
	for bestPenalty > 0 {
		// Advance idx to the next combination in lexicographic order.
		i := need - 1
		for i >= 0 && idx[i] == len(all)-need+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < need; j++ {
			idx[j] = idx[j-1] + 1
		}
		if p := o.setPenalty(all, idx); p < bestPenalty {
			bestPenalty = p
			copy(best, idx)
		}
	}
	for _, i := range best {
		procs = append(procs, all[i].proc)
		sigmas = append(sigmas, all[i].sigma)
	}
	return procs, sigmas
}

// setPenalty counts the PairCutVulnerable pairs inside the replica set
// indexed by idx.
func (o *oracle) setPenalty(all []procSigma, idx []int) int {
	penalty := 0
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if o.vuln[all[idx[i]].proc][all[idx[j]].proc] {
				penalty++
			}
		}
	}
	return penalty
}

// memWriteProcs pins a mem's write half to the processors hosting its read
// half, in replica-index order, appending into the provided buffers.
func (o *oracle) memWriteProcs(t model.TaskID, procs []arch.ProcID, sigmas []float64) ([]arch.ProcID, []float64, float64, error) {
	task := o.tg.Task(t)
	for _, mp := range o.tg.MemPairs() {
		if mp.Write != t {
			continue
		}
		nReads := o.s.NumReplicas(mp.Read)
		if nReads == 0 {
			return nil, nil, 0, fmt.Errorf("%w: mem %q write before read", ErrInternal, task.Name)
		}
		for i := 0; i < nReads; i++ {
			rp := o.s.ReplicaProcAt(mp.Read, i)
			sig := Sigma(o.s, o.tails, t, rp)
			if math.IsInf(sig, 1) {
				return nil, nil, 0, fmt.Errorf("%w: mem %q write forbidden on %q",
					ErrNoProcessorChoice, task.Name, o.p.Arc.Proc(rp).Name)
			}
			procs = append(procs, rp)
			sigmas = append(sigmas, sig)
		}
		// Selection needs ascending sigma first; placement order must stay
		// index-aligned with the read half, so only the urgency is sorted.
		sort.Float64s(sigmas)
		return procs, sigmas, sigmas[0], nil
	}
	return nil, nil, 0, fmt.Errorf("%w: %q is not a mem write", ErrInternal, task.Name)
}

// placeMinimized is Minimize-start-time with the seed's undo: clone the
// schedule before each speculative duplication and swap the clone back
// on regression, then place the replica with a fresh plan.
func (o *oracle) placeMinimized(t model.TaskID, p arch.ProcID) error {
	pl, details, err := o.previewDetail(t, p)
	if err != nil {
		return err // step Ë: t cannot be scheduled on p
	}
	sWorst := pl.SWorst
	for {
		lip, ok := o.findLIP(details, p)
		if !ok {
			break
		}
		improved, newDetails := o.tryDuplication(t, p, lip, sWorst)
		if math.IsInf(improved, 1) {
			break // step Ï: the duplication was undone
		}
		sWorst = improved // step Ñ: improved; look for the new LIP
		details = newDetails
	}
	_, err = o.s.PlaceReplica(t, p) // step Ð: schedule at S_best
	return err
}

// tryDuplication clones the schedule, duplicates lip onto p, and swaps
// the clone back unless S_worst strictly improved. It returns the
// improved S_worst and arrival details, or +Inf after undoing a
// non-improving (or impossible) duplication.
func (o *oracle) tryDuplication(t model.TaskID, p arch.ProcID, lip model.TaskID,
	sWorst float64) (float64, []sched.EdgeArrival) {

	snapshot := o.s.Clone()
	if err := o.placeMinimized(lip, p); err != nil {
		o.s = snapshot
		return math.Inf(1), nil
	}
	newPl, newDetails, err := o.previewDetail(t, p)
	if err != nil || newPl.SWorst >= sWorst-timeEps {
		o.s = snapshot // step Ï: undo all replications of Í
		return math.Inf(1), nil
	}
	return newPl.SWorst, newDetails
}

// previewDetail plans (t, p) without committing and returns the
// placement with a copy of its per-edge arrival breakdown.
func (o *oracle) previewDetail(t model.TaskID, p arch.ProcID) (sched.Placement, []sched.EdgeArrival, error) {
	tok, err := o.s.PlanPlacement(t, p)
	if err != nil {
		return sched.Placement{}, nil, err
	}
	details := append([]sched.EdgeArrival(nil), tok.Details()...)
	pl := tok.Placement()
	tok.Discard()
	return pl, details, nil
}

// findLIP locates the Latest Immediate Predecessor of the previewed
// placement: the source of the in-edge whose worst-case arrival constrains
// S_worst. Duplication cannot help when that edge is already local, and is
// refused when the predecessor is forbidden on the processor, already
// replicated there, or a mem half.
func (o *oracle) findLIP(details []sched.EdgeArrival, p arch.ProcID) (model.TaskID, bool) {
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
	task := o.tg.Task(lip)
	if task.Kind == model.Mem {
		return -1, false
	}
	if !o.p.Exec.Allowed(task.Op, p) {
		return -1, false
	}
	if o.s.HasReplicaOn(lip, p) {
		return -1, false
	}
	return lip, true
}
