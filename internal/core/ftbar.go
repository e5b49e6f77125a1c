// Package core implements FTBAR, the paper's contribution: a greedy list
// scheduling heuristic that actively replicates every operation on Npf+1
// processors and every inter-processor data-dependency on parallel media,
// so the resulting static schedule masks up to Npf fail-silent processor
// failures without timeouts or detection.
//
// The cost function is the schedule pressure calibrated against the worked
// example of the paper (Section 4.3): the pressures 9.73 / 10.53 / 9.23 the
// paper reports for operation C on P1/P2/P3 are reproduced exactly by
//
//	σ(o,p) = S_worst(o,p) + Exe(o,p) + S̄(o)    [− R(n−1), constant, dropped]
//
// where S̄(o) is the longest downstream path from the end of o summing mean
// execution times only, and the candidate selected at each step is the one
// whose best (minimum) pressure is largest — the classical SynDEx most
// urgent rule, which uniquely selects C at step 3 like the paper does.
package core

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

// Errors returned by the scheduler.
var (
	ErrNoProcessorChoice = errors.New("core: not enough processors for required replicas")
	ErrInternal          = errors.New("core: internal scheduling inconsistency")
)

// Options tunes the heuristic. The zero value is the paper's FTBAR.
type Options struct {
	// NoDuplication disables Minimize-start-time (the Ahmad-Kwok
	// predecessor duplication of micro-step Â). The paper's "basic"
	// SynDEx-style heuristic is FTBAR with Npf = 0 and NoDuplication.
	NoDuplication bool
	// TailsWithComms adds mean communication times to the S̄ tails. The
	// paper's calibration excludes them (see the package comment); this
	// knob exists for the ablation benchmarks.
	TailsWithComms bool
}

// Step records one scheduling decision for inspection, tests and the
// cross-run decision records (record.go, hence the JSON tags).
type Step struct {
	Task model.TaskID `json:"task"`
	// Procs are the chosen processors in placement order: ascending
	// pressure, except under a combined budget where slots beyond the
	// first are crash-separated first and pressure-ordered second
	// (DESIGN.md Section 12).
	Procs   []arch.ProcID `json:"procs"`
	Sigmas  []float64     `json:"sigmas"`  // pressures of the chosen processors
	Urgency float64       `json:"urgency"` // best pressure, the selection key
}

// Result is the outcome of a scheduling run.
type Result struct {
	Schedule *sched.Schedule
	// MeetsRtc reports whether the fault-free schedule satisfies the
	// problem's real-time constraints; RtcViolation carries the first
	// violation when it does not (the paper's "warning to the designer").
	MeetsRtc     bool
	RtcViolation string
	// Steps is the decision log, one entry per scheduled task.
	Steps []Step
	// ExtraReplicas counts replicas beyond the mandatory Npf+1, i.e. the
	// predecessor duplications Minimize-start-time kept.
	ExtraReplicas int
	// Planner is the run's planner-work breakdown for the observability
	// layer (internal/obsv): how many σ previews were actually computed
	// versus screened away, and how often the σ cache answered without a
	// preview. The counters are plain integers collected alongside state
	// the planner already maintains — no atomics, no allocations — so
	// instrumented runs stay bit-identical and the hot-path alloc gates
	// are unaffected.
	Planner PlannerStats
}

// PlannerStats summarises the work profile of one scheduling run. Every
// field is observational: none of them feeds back into any decision.
type PlannerStats struct {
	// Rounds counts the prepare/select rounds of the run, one per searched
	// decision: len(Steps) − ReplayedDecisions.
	Rounds int `json:"rounds"`
	// PreviewsComputed counts the σ previews actually computed — the
	// dominant cost of a run.
	PreviewsComputed int `json:"previews_computed"`
	// PreviewsScreened counts the candidates the cache-aware screen ruled
	// out from still-valid cached pressures, whose cold previews were
	// never paid for. Skips never change the decision log; they only
	// avoid work.
	PreviewsScreened int `json:"previews_screened"`
	// SigmaReuses counts σ-cache entries revalidated against the live
	// schedule and reused without recomputation.
	SigmaReuses int `json:"sigma_reuses"`
	// BatchedCommits and BatchFallbacks are retired and always 0: the
	// engine settles every decision in its own round. The fields stay for
	// readers of the JSON document that still expect them.
	BatchedCommits int `json:"batched_commits"`
	BatchFallbacks int `json:"batch_fallbacks"`
	// The remaining counters are the cross-run reuse profile (arena.go,
	// DESIGN.md Section 15). WarmStarts counts runs that started from a
	// recorded decision log instead of an empty schedule;
	// ReplayedDecisions counts the decisions taken by replaying that log
	// rather than searching; ReplayFallbacks counts replays abandoned
	// because a recorded decision failed its validity check (the run then
	// restarted cold); SigmaRowsCarried counts the σ vectors carried into
	// the warm run's decision log verbatim from the parent run.
	WarmStarts        int `json:"warm_starts"`
	ReplayedDecisions int `json:"replayed_decisions"`
	ReplayFallbacks   int `json:"replay_fallbacks"`
	SigmaRowsCarried  int `json:"sigma_rows_carried"`
}

// Run schedules the problem with FTBAR and returns the fault-tolerant
// static schedule. The problem's Npf selects the replication level;
// Npf = 0 degenerates to a plain (non-fault-tolerant) list scheduling.
func Run(p *spec.Problem, opts Options) (*Result, error) {
	s, err := sched.NewSchedule(p)
	if err != nil {
		return nil, err
	}
	return runOn(p, opts, s)
}

// runOn runs the heuristic on an existing empty (possibly
// donor-recycled) schedule.
func runOn(p *spec.Problem, opts Options, s *sched.Schedule) (*Result, error) {
	tg := s.Tasks()
	sch := &scheduler{
		s:     s,
		tg:    tg,
		p:     p,
		fm:    p.FaultModel(),
		opts:  opts,
		tails: Tails(p, tg, opts.TailsWithComms),
		done:  make([]bool, tg.NumTasks()),
		rq:    newReadyQueue(tg),
	}
	sch.cache = newSigmaCache(sch)
	if sch.fm.Nmf > 0 {
		// Crash-separated replica placement (DESIGN.md Section 12): under
		// a combined budget, prefer replica sets no single in-budget
		// (processor, medium) crash can wipe out or strand.
		sch.vuln = p.Arc.PairCutMatrix()
	}
	if err := sch.run(); err != nil {
		return nil, err
	}
	res := newResult(sch.s, sch.steps, sch.fm)
	res.Planner.PreviewsComputed = int(sch.cache.computed)
	res.Planner.PreviewsScreened = int(sch.cache.skipped)
	res.Planner.SigmaReuses = int(sch.cache.reused)
	res.Planner.Rounds = sch.rounds
	return res, nil
}

// newResult wraps a finished schedule and its decision log, counting the
// extra replicas and checking the real-time constraints.
func newResult(s *sched.Schedule, steps []Step, fm spec.FaultModel) *Result {
	res := &Result{Schedule: s, Steps: steps, ExtraReplicas: extraReplicasOf(s, fm)}
	ok, rtcErr := s.MeetsRtc()
	res.MeetsRtc = ok
	if rtcErr != nil {
		res.RtcViolation = rtcErr.Error()
	}
	return res
}

// Basic runs the paper's non-fault-tolerant baseline (Section 4.4): the
// SynDEx-style pressure heuristic, i.e. FTBAR downgraded to a zero fault
// budget with predecessor duplication disabled. The input problem is not
// modified.
func Basic(p *spec.Problem) (*Result, error) {
	q := p.Clone()
	q.SetFaults(spec.FaultModel{})
	return Run(q, Options{NoDuplication: true})
}

// NonFT runs FTBAR with a zero fault budget, the baseline the performance
// evaluation divides by (Section 6.2: "the non FTSL is produced by FTBAR
// with Npf = 0"). The input problem is not modified.
func NonFT(p *spec.Problem) (*Result, error) {
	q := p.Clone()
	q.SetFaults(spec.FaultModel{})
	return Run(q, Options{})
}

// Tails computes the S̄ term of the schedule pressure for every task: the
// longest downstream path measured from the end of the task, summing mean
// execution times (and mean communication times when withComms is set).
func Tails(p *spec.Problem, tg *model.TaskGraph, withComms bool) []float64 {
	return tg.Tails(tailsCostModel(p, tg, withComms))
}

// tailsCostModel is the paper's S̄ calibration: mean execution times over
// the allowed processors, and mean communication times over the media only
// when withComms is set (the paper's own calibration excludes them).
func tailsCostModel(p *spec.Problem, tg *model.TaskGraph, withComms bool) model.CostModel {
	return model.CostModel{
		TaskCost: func(t model.TaskID) float64 {
			return p.Exec.MeanTime(tg.Task(t).Op)
		},
		EdgeCost: func(e model.TaskEdgeID) float64 {
			if !withComms {
				return 0
			}
			return p.Comm.MeanTime(tg.Edge(e).Orig)
		},
	}
}

// Sigma computes the schedule pressure of placing task t on processor p
// against the current partial schedule, using precomputed tails. It returns
// +Inf for impossible placements.
func Sigma(s *sched.Schedule, tails []float64, t model.TaskID, p arch.ProcID) float64 {
	pl, err := s.Preview(t, p)
	if err != nil {
		return math.Inf(1)
	}
	exec := s.Problem().Exec.Time(s.Tasks().Task(t).Op, p)
	return pl.SWorst + exec + tails[t]
}

// sigma returns the schedule pressure of (t, p): the cached value when the
// σ cache holds a valid entry, a fresh computation otherwise.
func (sch *scheduler) sigma(t model.TaskID, p arch.ProcID) float64 {
	if sig, ok := sch.cache.get(t, p); ok {
		return sig
	}
	return Sigma(sch.s, sch.tails, t, p)
}

// scheduler carries the mutable state of one run: the ready queue and σ
// cache of the incremental planner (incremental.go) around the paper's
// selection and placement rules.
type scheduler struct {
	s     *sched.Schedule
	tg    *model.TaskGraph
	p     *spec.Problem
	fm    spec.FaultModel
	opts  Options
	tails []float64
	done  []bool
	steps []Step
	rq    *readyQueue
	cache *sigmaCache
	// vuln is the PairCutMatrix of the architecture when the
	// crash-separated placement bias is active (Nmf >= 1), nil otherwise.
	// The architecture memoises it for every run: read-only.
	vuln [][]bool
	// rounds feeds Result.Planner: the prepare/select rounds run.
	rounds int
	// checkpoints is the reusable buffer stack of Minimize-start-time's
	// in-place speculation undo (speculation nests).
	checkpoints []*sched.Checkpoint
	// evalBuf, procsBuf and sigmasBuf are scratch for candidate
	// evaluation, the per-step hot path: bestProcs results only live
	// until the next call (selectCandidate copies the winner's into the
	// decision log). Two buffer pairs alternate so the best candidate's
	// result survives while the next candidate is evaluated.
	evalBuf   []procSigma
	procsBuf  [2][]arch.ProcID
	sigmasBuf [2][]float64
}

// procSigma is one (processor, pressure) evaluation.
type procSigma struct {
	proc  arch.ProcID
	sigma float64
}

func (sch *scheduler) run() error {
	for remaining := len(sch.done); remaining > 0; remaining-- {
		cands := sch.rq.candidates()
		if len(cands) == 0 {
			return fmt.Errorf("%w: %d tasks unschedulable", ErrInternal, remaining)
		}
		sch.rounds++
		sch.cache.prepare(cands)
		best, procs, sigmas, urgency, err := sch.selectCandidate(cands)
		if err != nil {
			return err
		}
		if err := sch.commitStep(best, procs, sigmas, urgency); err != nil {
			return err
		}
	}
	return nil
}

// commitStep places the round winner's replicas, marks it done, updates
// the ready queue and appends the decision log entry.
func (sch *scheduler) commitStep(best model.TaskID, procs []arch.ProcID, sigmas []float64, urgency float64) error {
	for _, proc := range procs {
		var err error
		if sch.opts.NoDuplication {
			_, err = sch.s.PlaceReplica(best, proc)
		} else {
			err = sch.placeMinimized(best, proc)
		}
		if errors.Is(err, sched.ErrNoDisjointDelivery) {
			// The diversity gate refused a placement the round's pressures
			// did not rule out. Surface it as the planner's typed refusal,
			// keeping the gate's cause matchable.
			return fmt.Errorf("%w: task %q on %q: %w", ErrNoProcessorChoice,
				sch.tg.Task(best).Name, sch.p.Arc.Proc(proc).Name, err)
		}
		if err != nil {
			return err
		}
	}
	sch.done[best] = true
	sch.rq.commit(best)
	sch.steps = append(sch.steps, Step{
		Task: best, Procs: procs, Sigmas: sigmas, Urgency: urgency,
	})
	return nil
}

// selectCandidate performs micro-steps À and Á: for every candidate keep
// the Npf+1 processors of minimum pressure, then pick the candidate whose
// best pressure is maximal (most urgent). Ties break towards the smaller
// task id; candidate order makes this deterministic. The winner's
// processors and pressures are copied out of the scratch buffers for the
// decision log.
//
// A candidate whose still-valid cached pressures already prove it cannot
// beat the running winner is skipped before its stale previews are
// recomputed (cache-aware selection). The skip is exact — the
// candidate's selection key can only be at or below a valid cached
// pressure, and the strict > comparison would have rejected it anyway —
// so the decision log stays bit-identical to a full rescan's.
func (sch *scheduler) selectCandidate(cands []model.TaskID) (model.TaskID, []arch.ProcID, []float64, float64, error) {
	bestTask := model.TaskID(-1)
	bestUrgency := math.Inf(-1)
	var bestProcs []arch.ProcID
	var bestSigmas []float64
	cur := 0
	for _, t := range cands {
		if sch.tg.Task(t).Role != model.MemWrite {
			if sch.cache.screen(t, sch.fm.Replicas(), bestUrgency) {
				continue
			}
			sch.cache.ensure(t)
		}
		procs, sigmas, urgency, err := sch.bestProcs(t, sch.procsBuf[cur][:0], sch.sigmasBuf[cur][:0])
		if err != nil {
			return -1, nil, nil, 0, err
		}
		sch.procsBuf[cur], sch.sigmasBuf[cur] = procs, sigmas
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
// buffers, in ascending pressure order, returning slices that stay valid
// until the buffers are reused, plus the task's selection key (the
// minimum pressure over every usable processor — which under the
// crash-separated bias may belong to a processor the chosen set dropped,
// so the key is returned explicitly rather than read off sigmas[0]; the
// cache-aware screen depends on the key being that minimum). Ordinary
// tasks get the Npf+1 cheapest processors, crash-separated under a
// combined budget; mem write halves are pinned to their read half's
// processors, index-aligned, so the register state stays local across
// iterations.
func (sch *scheduler) bestProcs(t model.TaskID, procs []arch.ProcID, sigmas []float64) ([]arch.ProcID, []float64, float64, error) {
	task := sch.tg.Task(t)
	if task.Role == model.MemWrite {
		return sch.memWriteProcs(t, procs, sigmas)
	}
	all := sch.evalBuf[:0]
	for p := 0; p < sch.p.Arc.NumProcs(); p++ {
		sig := sch.sigma(t, arch.ProcID(p))
		if !math.IsInf(sig, 1) {
			all = append(all, procSigma{arch.ProcID(p), sig})
		}
	}
	sch.evalBuf = all
	need := sch.fm.Replicas()
	if len(all) < need {
		return nil, nil, 0, fmt.Errorf("%w: task %q has %d usable processors, need %d",
			ErrNoProcessorChoice, task.Name, len(all), need)
	}
	// Insertion sort on (sigma, proc): a total order, so the result is
	// the one the previous sort.Slice produced, without its allocations
	// (the processor count keeps the quadratic cost trivial).
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].sigma < all[j-1].sigma ||
			(all[j].sigma == all[j-1].sigma && all[j].proc < all[j-1].proc)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	urgency := all[0].sigma
	if sch.vuln != nil {
		procs, sigmas = sch.survivableProcs(all, need, procs, sigmas)
		return procs, sigmas, urgency, nil
	}
	for i := 0; i < need; i++ {
		procs = append(procs, all[i].proc)
		sigmas = append(sigmas, all[i].sigma)
	}
	return procs, sigmas, urgency, nil
}

// survivableProcs is the crash-separated variant of the Npf+1 pick under
// a combined budget (DESIGN.md Section 12): among all replica sets of the
// required size, take the one with the fewest PairCutVulnerable pairs,
// breaking ties towards the (sigma, proc) order — the first combination
// in that order is exactly the unbiased pick, so the bias only moves
// replicas when it strictly buys survivability. On a ring this steers a
// replica pair onto non-adjacent processors, which no single in-budget
// (processor, medium) crash can jointly kill or strand — the placement
// half of the joint masking the combined sweep measures — even when
// distribution constraints forbid the pressure-optimal partner. The
// selection key (the minimum pressure over all usable processors) is
// unaffected, so candidate ordering and the cache-aware screen reason
// about the same quantity as the unbiased heuristic. With Nmf = 0 the
// bias is off and the pick is bit-identical to the seed's.
//
// The sets are walked depth first in lexicographic order. A prefix whose
// penalty already reaches the best complete set's is skipped — a further
// replica can only add vulnerable pairs — and the walk stops at penalty
// 0. No skipped set could strictly improve, so the walk returns the first
// minimum in lexicographic order, as the test oracle's exhaustive
// enumeration does.
func (sch *scheduler) survivableProcs(all []procSigma, need int, procs []arch.ProcID, sigmas []float64) ([]arch.ProcID, []float64) {
	idx := make([]int, need)
	best := make([]int, need)
	sch.extendPick(all, idx, best, 0, 0, math.MaxInt)
	for _, i := range best {
		procs = append(procs, all[i].proc)
		sigmas = append(sigmas, all[i].sigma)
	}
	return procs, sigmas
}

// extendPick walks the completions of the prefix idx[:depth], whose
// penalty is pen, in lexicographic order. Every complete set whose
// penalty is strictly below bestPenalty is copied into best; the lowest
// penalty reached is returned.
func (sch *scheduler) extendPick(all []procSigma, idx, best []int, depth, pen, bestPenalty int) int {
	if depth == len(idx) {
		copy(best, idx)
		return pen
	}
	from := 0
	if depth > 0 {
		from = idx[depth-1] + 1
	}
	for i := from; i <= len(all)-len(idx)+depth && bestPenalty > 0; i++ {
		p := pen
		for _, j := range idx[:depth] {
			if sch.vuln[all[j].proc][all[i].proc] {
				p++
			}
		}
		if p < bestPenalty {
			idx[depth] = i
			bestPenalty = sch.extendPick(all, idx, best, depth+1, p, bestPenalty)
		}
	}
	return bestPenalty
}

// memWriteProcs pins a mem's write half to the processors hosting its read
// half, in replica-index order, appending into the provided buffers.
func (sch *scheduler) memWriteProcs(t model.TaskID, procs []arch.ProcID, sigmas []float64) ([]arch.ProcID, []float64, float64, error) {
	task := sch.tg.Task(t)
	for _, mp := range sch.tg.MemPairs() {
		if mp.Write != t {
			continue
		}
		nReads := sch.s.NumReplicas(mp.Read)
		if nReads == 0 {
			return nil, nil, 0, fmt.Errorf("%w: mem %q write before read", ErrInternal, task.Name)
		}
		for i := 0; i < nReads; i++ {
			rp := sch.s.ReplicaProcAt(mp.Read, i)
			sig := sch.sigma(t, rp)
			if math.IsInf(sig, 1) {
				return nil, nil, 0, fmt.Errorf("%w: mem %q write forbidden on %q",
					ErrNoProcessorChoice, task.Name, sch.p.Arc.Proc(rp).Name)
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
