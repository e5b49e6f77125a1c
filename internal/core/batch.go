package core

import (
	"fmt"
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// This file implements batch commits and lazy candidate pricing
// (DESIGN.md Section 13): after the incremental engine commits a
// round's winner, it keeps committing the winners of the following
// rounds straight from the σ-cache and the previous selection's
// records, for as long as each follow-on round is PROVABLY identical
// to what the sequential engine would decide. A batched round costs
// revision-stamp walks plus only the previews no engine could have
// avoided — it never pays for prepare()'s full validity sweep or the
// stale previews of candidates whose selection keys are already
// pinned or bounded.
//
// The proof obligations rest on two facts:
//
//   - Cache exactness: a σ-cache entry whose recorded revision stamps
//     still match the schedule would recompute to the same value, so a
//     valid entry pins its pressure exactly (incremental.go).
//   - Monotonicity: committing replicas and comms only grows procEnd
//     and mediumEnd, so every candidate pressure σ(t, p) weakly
//     increases — candidates are never successors of the tasks being
//     committed (they were ready together), so no commit shortens their
//     data arrivals, UNLESS a Minimize-start-time duplication slipped a
//     predecessor replica in. Any commit that grew the schedule beyond
//     the winner's own replicas therefore ends the batch.
//
// Together they settle a round with one ascending-id scan maintaining a
// running maximum, exactly like selection. Each candidate contributes
// either an exact key or a skip-proof:
//
//   - an evaluated candidate whose recorded argmin entry is still valid
//     has an unchanged key (its other pressures only rose, so the min
//     still sits at the argmin) — exact, for free;
//   - otherwise lazyKey prices it: any valid or freshly computed entry
//     at or below the running maximum proves the candidate cannot
//     displace it (its key is at most that entry, and displacement
//     needs strictly more) — the remaining stale previews are never
//     paid for;
//   - only a candidate that stays above the bar gets its full row
//     brought up to date, which is exactly the work ensure() would
//     have done for it in a sequential round — including candidates a
//     commit just released, which have no usable entries at all.
//
// By induction the running maximum equals the sequential round's at
// every position, so the winner — and, by the same strict-> tie-break,
// the log entry — is identical. The few unprovable cases (a mem write
// in the candidate set, a candidate left infeasible) abort the batch
// and fall back to a normal prepare/select round; aborts cost
// correctness nothing.

// candEval records how the last round priced one candidate, keyed by
// task id and stamped with the σ-cache's step counter. Any recorded
// kind also proves the candidate has enough usable processors — a
// static property — which is what licenses skipping it on a bound
// without risking to hide the error a full evaluation would raise.
type candEval struct {
	round uint64
	kind  uint8
	// proc is the argmin processor of an evaluated candidate, or the
	// processor of the valid bound entry a skip relied on.
	proc arch.ProcID
	// sigma is the selection key of an evaluated candidate, or an
	// upper bound on it.
	sigma float64
}

const (
	evalNone uint8 = iota
	evalEvaluated
	evalScreened
	evalMemWrite
)

// batchEnabled reports whether follow-on rounds may be batch-committed:
// the per-candidate records exist, i.e. the incremental engine without
// the crash-separated placement bias (the survivable pick drops
// processors from the (sigma, proc) order, so the recorded procs[0] is
// not the argmin the proofs need; combined budgets are rare enough that
// batching sits this out).
func (sch *scheduler) batchEnabled() bool {
	return sch.evals != nil
}

// batchCommits keeps committing provably-identical round winners after
// the current round's commit, whose duplication outcome is passed in.
// Returns the number of batched commits.
func (sch *scheduler) batchCommits(dup bool) (int, error) {
	committed := 0
	for !dup && len(sch.rq.ready) > 0 {
		w, urg, ok := sch.nextBatchWinner()
		if !ok {
			// The proof failed; the next decision replans through a full
			// prepare/select round. Counted for Result.Planner only.
			sch.batchFallbacks++
			break
		}
		procs, sigmas, urgency, err := sch.bestProcs(w, sch.procsBuf[0][:0], sch.sigmasBuf[0][:0])
		if err != nil {
			return committed, err
		}
		sch.procsBuf[0], sch.sigmasBuf[0] = procs, sigmas
		if urgency != urg {
			// The scan and the replayed evaluation disagree — the proof
			// machinery is broken, do not risk a divergent log.
			return committed, fmt.Errorf("%w: batch urgency drift on task %d", ErrInternal, w)
		}
		_, dup, err = sch.commitStep(w,
			append([]arch.ProcID(nil), procs...),
			append([]float64(nil), sigmas...), urgency)
		if err != nil {
			return committed, err
		}
		committed++
	}
	sch.batched += committed
	return committed, nil
}

// nextBatchWinner settles the next round's winner, or reports that it
// cannot be proven. On success the winner's full σ-cache row is valid
// and vetted against the current schedule, so bestProcs replays its
// evaluation from cache.get without reading anything stale.
//
// The scan runs in two phases. Phase one collects the free exact keys:
// evaluated candidates whose recorded argmin entry is still valid have
// an unchanged key (their other pressures only rose, so the min still
// sits at the argmin). Phase two prices the rest in descending order of
// their recorded keys, so the running maximum is near its final value
// when the expensive candidates are scanned and the bound skips most of
// them after few (often zero) previews. Scan order is a cost knob only:
// the winner is the lexicographic maximum of (key, smaller id), exactly
// the ascending scan's strict-> displacement outcome.
func (sch *scheduler) nextBatchWinner() (model.TaskID, float64, bool) {
	c := sch.cache
	c.syncStamps()
	best := model.TaskID(-1)
	bestUrg := math.Inf(-1)
	pendingSkips := 0
	rest := sch.phaseBuf[:0]
	for _, t := range sch.rq.ready {
		if sch.tg.Task(t).Role == model.MemWrite {
			sch.phaseBuf = rest
			return -1, 0, false // priced off-cache; needs a normal round
		}
		e := &sch.evals[t]
		// The argmin shortcut needs monotonicity since the record was
		// written: records older than this outer round's prepare may
		// straddle a duplication (selection refreshes every candidate's
		// record, so this only guards against future restructurings).
		// revalidate may repair the argmin entry to a grown value, in
		// which case the key is merely bracketed, not pinned — hence the
		// equality check against the recorded key.
		if e.round >= sch.roundStart && e.kind == evalEvaluated && c.revalidate(t, e.proc) &&
			c.entries[int(t)*c.nProcs+int(e.proc)].sigma == e.sigma {
			if e.sigma > bestUrg || (e.sigma == bestUrg && t < best) {
				best, bestUrg = t, e.sigma
			}
			continue
		}
		rest = append(rest, t)
	}
	sch.orderByEstimate(rest)
	for _, t := range rest {
		skip, k, feasible := sch.lazyKey(t, bestUrg, best, false)
		if skip {
			pendingSkips++
			continue
		}
		if !feasible {
			// Fewer usable processors than replicas: the sequential
			// round fails here; let it produce the error.
			sch.phaseBuf = rest
			return -1, 0, false
		}
		if k > bestUrg || (k == bestUrg && t < best) {
			best, bestUrg = t, k
		}
	}
	sch.phaseBuf = rest
	if best < 0 {
		return -1, 0, false
	}
	// The winner may have won through the argmin shortcut or the lazy
	// deferral with part of its row stale; bring the row up to date (the
	// sequential round would recompute exactly these entries before
	// evaluating it) and cross-check the key against the scan.
	if _, min, feasible := sch.fillRow(best); !feasible || min != bestUrg {
		return -1, 0, false
	}
	c.skipped += uint64(pendingSkips)
	return best, bestUrg, true
}

// orderByEstimate sorts candidates in descending order of their recorded
// selection keys, unknown candidates (no record) last. The estimates
// steer only how fast the scan's running maximum rises — stale records
// and screened upper bounds are fine — never which candidate wins, so
// any deterministic order is sound; a heapsort over once-computed keys
// keeps the per-round cost at k·log k comparisons without allocating.
func (sch *scheduler) orderByEstimate(ts []model.TaskID) {
	if len(ts) < 2 {
		return
	}
	keys := sch.estBuf[:0]
	for _, t := range ts {
		k := math.Inf(-1)
		if e := &sch.evals[t]; e.kind != evalNone {
			k = e.sigma
		}
		keys = append(keys, k)
	}
	sch.estBuf = keys
	// Max-heap on (-key, id): siftDown orders the heap so the pop loop
	// leaves ts ascending in that order, i.e. descending by key. The input
	// (ascending ids) is deterministic, so the output is too.
	less := func(i, j int) bool {
		return keys[i] > keys[j] || (keys[i] == keys[j] && ts[i] < ts[j])
	}
	swap := func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
		ts[i], ts[j] = ts[j], ts[i]
	}
	var siftDown func(root, hi int)
	siftDown = func(root, hi int) {
		for {
			child := 2*root + 1
			if child >= hi {
				return
			}
			if child+1 < hi && less(child, child+1) {
				child++
			}
			if !less(root, child) {
				return
			}
			swap(root, child)
			root = child
		}
	}
	n := len(ts)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for i := n - 1; i > 0; i-- {
		swap(0, i)
		siftDown(0, i)
	}
}

// lazyKey prices candidate t against the running maximum: bar is its
// value and barT the candidate holding it (-1 for none). lazyKey either
// proves t cannot end up the round's winner (skip, having computed as
// few stale previews as possible) or returns t's exact selection key.
// The winner is the lexicographic maximum of (key, smaller id), so t is
// ruled out by any upper bound on its key strictly under bar — or at
// bar exactly when barT's smaller id wins the tie. trustChecked selects
// how a still-valid entry is recognised: selection rounds run right
// after prepare() vetted every entry (checked == step), batch scans
// must re-walk the dependency record. The outcome is recorded in
// sch.evals[t] for the following rounds.
//
// Invalid entries split by why they went stale. When the replica-set
// stamps still match, only busy-ends grew since the entry was computed,
// so its σ only grew (the same monotonicity batch commits rest on): the
// old value is a lower bound on the current one, and the entry's error
// status — structural, stamp-decided — is still current. Such entries
// are recomputed only while their lower bound could still dip under
// the row minimum, in ascending lower-bound order; once the smallest
// remaining bound is at or above the minimum, none of them can move
// it, and the key is exact without touching them. Entries whose stamps
// changed (a predecessor replica appeared) moved in an unknown
// direction and are recomputed unconditionally.
func (sch *scheduler) lazyKey(t model.TaskID, bar float64, barT model.TaskID, trustChecked bool) (skip bool, key float64, feasible bool) {
	c := sch.cache
	base := int(t) * c.nProcs
	e := &sch.evals[t]
	// Any prior pricing proved feasibility; without one, enough finite
	// entries must accumulate before a bound may skip.
	feasKnown := e.kind == evalEvaluated || e.kind == evalScreened
	need := sch.fm.Replicas()
	min := math.Inf(1)
	minProc := arch.ProcID(-1)
	finite := 0
	stale := sch.staleBuf[:0]
	deferred := sch.deferBuf[:0]
	for p := 0; p < c.nProcs; p++ {
		ent := &c.entries[base+p]
		ok := ent.checked == c.step
		if !ok && !trustChecked && c.revalidate(t, arch.ProcID(p)) {
			ent.checked = c.step // memoise the dependency walk for this scan
			ok = true
		}
		switch {
		case ok:
			if !math.IsInf(ent.sigma, 1) {
				finite++
				if ent.sigma < min {
					min, minProc = ent.sigma, arch.ProcID(p)
				}
			}
		case c.stampsValid(t, arch.ProcID(p)):
			// Monotone-stale: σ only grew; the error status is current,
			// so the entry already settles its feasibility vote.
			if !math.IsInf(ent.sigma, 1) {
				finite++
			}
			deferred = append(deferred, int32(p))
		default:
			stale = append(stale, int32(p))
		}
	}
	sch.staleBuf, sch.deferBuf = stale, deferred
	bounded := func() bool {
		if !(feasKnown || finite >= need) {
			return false
		}
		return min < bar || (min == bar && barT >= 0 && barT < t)
	}
	// The recorded processor held the previous minimum — the likeliest
	// entry to dip under the bar — so recompute it first.
	if e.kind != evalNone {
		for i, p := range stale {
			if arch.ProcID(p) == e.proc {
				stale[0], stale[i] = stale[i], stale[0]
				break
			}
		}
	}
	for _, p32 := range stale {
		if bounded() {
			*e = candEval{round: c.step, kind: evalScreened, proc: minProc, sigma: min}
			return true, 0, true
		}
		p := arch.ProcID(p32)
		c.compute(base + int(p))
		ent := &c.entries[base+int(p)]
		if !math.IsInf(ent.sigma, 1) {
			finite++
			if ent.sigma < min {
				min, minProc = ent.sigma, p
			}
		}
	}
	// Deferred entries in ascending lower-bound order: the first bound
	// at or above the minimum proves the rest cannot lower it either —
	// their stale values also cannot corrupt rowKey, sitting at or above
	// the exact minimum.
	for i := 1; i < len(deferred); i++ {
		for j := i; j > 0 && c.entries[base+int(deferred[j])].sigma < c.entries[base+int(deferred[j-1])].sigma; j-- {
			deferred[j], deferred[j-1] = deferred[j-1], deferred[j]
		}
	}
	for _, p32 := range deferred {
		if bounded() {
			*e = candEval{round: c.step, kind: evalScreened, proc: minProc, sigma: min}
			return true, 0, true
		}
		p := arch.ProcID(p32)
		if c.entries[base+int(p)].sigma >= min {
			break
		}
		c.compute(base + int(p))
		if ent := &c.entries[base+int(p)]; !math.IsInf(ent.sigma, 1) && ent.sigma < min {
			min, minProc = ent.sigma, p
		}
	}
	if bounded() {
		*e = candEval{round: c.step, kind: evalScreened, proc: minProc, sigma: min}
		return true, 0, true
	}
	if finite < need {
		return false, 0, false
	}
	// Exact: every entry that could hold the minimum is valid now.
	// Re-derive the argmin in ascending processor order so ties resolve
	// like (sigma, proc); an argmin misattributed to a skipped stale
	// entry that ties the minimum costs a shortcut next round (the entry
	// can never revalidate — stamps and busy-ends never revert), never
	// correctness.
	argmin, exact := sch.rowKey(t)
	*e = candEval{round: c.step, kind: evalEvaluated, proc: argmin, sigma: exact}
	return false, exact, true
}

// rowKey reads the minimum pressure and its argmin off a fully valid
// σ-cache row, ties resolving to the smallest processor id.
func (sch *scheduler) rowKey(t model.TaskID) (arch.ProcID, float64) {
	c := sch.cache
	base := int(t) * c.nProcs
	min := math.Inf(1)
	argmin := arch.ProcID(-1)
	for p := 0; p < c.nProcs; p++ {
		if s := c.entries[base+p].sigma; s < min {
			min, argmin = s, arch.ProcID(p)
		}
	}
	return argmin, min
}

// fillRow brings every σ-cache entry of t up to date — recomputing
// exactly the stale ones — vets the row for cache.get, and returns the
// row's key. feasible is false when fewer processors are usable than
// replicas required.
func (sch *scheduler) fillRow(t model.TaskID) (arch.ProcID, float64, bool) {
	c := sch.cache
	base := int(t) * c.nProcs
	finite := 0
	for p := 0; p < c.nProcs; p++ {
		ent := &c.entries[base+p]
		if ent.checked != c.step {
			if c.revalidate(t, arch.ProcID(p)) {
				ent.checked = c.step
			} else {
				c.compute(base + p)
			}
		}
		if !math.IsInf(ent.sigma, 1) {
			finite++
		}
	}
	argmin, min := sch.rowKey(t)
	if finite < sch.fm.Replicas() {
		return argmin, min, false
	}
	sch.evals[t] = candEval{round: c.step, kind: evalEvaluated, proc: argmin, sigma: min}
	return argmin, min, true
}
