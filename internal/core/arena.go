// This file implements the cross-run reuse layer (DESIGN.md Section 15):
// RunArena, an owner of retired schedule slabs and recorded decision
// logs that warm-starts runs whose problem is one known mutation away
// from a recorded one. The hard constraint throughout is bit-identity —
// a warm-started run must produce exactly the decision log and schedule
// a cold run would — so every reuse path either proves its decisions
// (replay validity stamps, the media-touch mask) or verifies them
// placement by placement and falls back to a cold run on the first
// deviation.
package core

import (
	"sync"

	"ftbar/internal/model"
	"ftbar/internal/sched"
	"ftbar/internal/spec"
)

const (
	// arenaDefaultRecords bounds the record store when NewRunArena is
	// given no capacity.
	arenaDefaultRecords = 16
	// arenaMaxDonors bounds the retired-schedule pool: donors are a slab
	// capacity optimisation, not a correctness feature, so a small pool
	// suffices.
	arenaMaxDonors = 4
	// arenaDiffProbe bounds how many recent records RunAuto diffs an
	// unrecognised problem against before giving up and running cold.
	arenaDiffProbe = 4
)

// RunArena owns the cross-run reuse state: a bounded, LRU-evicted store
// of decision records keyed by (problem content address, options
// fingerprint), and a bounded pool of retired schedules whose slab
// capacity warm runs recycle. All methods are safe for concurrent use —
// records are immutable once stored, and the mutable stores are guarded
// — so one arena may back a whole worker pool.
//
// The zero value is not usable; a nil *RunArena degrades every call to a
// plain cold Run, which lets callers thread an optional arena without
// branching.
type RunArena struct {
	mu     sync.Mutex
	max    int
	recs   []*RunRecord // most recently used first
	donors []*sched.Schedule
}

// NewRunArena returns an arena retaining at most maxRecords decision
// records (<= 0 picks the default).
func NewRunArena(maxRecords int) *RunArena {
	if maxRecords <= 0 {
		maxRecords = arenaDefaultRecords
	}
	return &RunArena{max: maxRecords}
}

// Len returns the number of retained decision records.
func (a *RunArena) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.recs)
}

// Recycle returns a retired schedule's storage to the donor pool. The
// caller must own the schedule exclusively and never touch it again:
// the next warm run steals its slab. Only recycle schedules produced by
// this arena's runs (their construction guarantees an unshared stamp
// counter).
func (a *RunArena) Recycle(s *sched.Schedule) {
	if a == nil || s == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.donors) < arenaMaxDonors {
		a.donors = append(a.donors, s)
	}
}

// takeDonor removes and returns a pool schedule matching p's shape, nil
// when none fits. The final authority on shape is NewScheduleReusing;
// this pre-filter just avoids wasting donors on obvious mismatches.
func (a *RunArena) takeDonor(p *spec.Problem) *sched.Schedule {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, d := range a.donors {
		dp := d.Problem()
		if dp.Alg.NumOps() == p.Alg.NumOps() &&
			dp.Arc.NumProcs() == p.Arc.NumProcs() &&
			dp.Arc.NumMedia() == p.Arc.NumMedia() {
			a.donors = append(a.donors[:i], a.donors[i+1:]...)
			return d
		}
	}
	return nil
}

// lookup returns the record for (key, okey), refreshing its LRU
// position.
func (a *RunArena) lookup(key, okey string) *RunRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, r := range a.recs {
		if r.Key == key && r.OptsKey == okey {
			if i > 0 {
				copy(a.recs[1:i+1], a.recs[:i])
				a.recs[0] = r
			}
			return r
		}
	}
	return nil
}

// insert stores a finished record at the front, evicting the least
// recently used record beyond the bound. Incomplete records (a run that
// was never recorded) are dropped.
func (a *RunArena) insert(rec *RunRecord) {
	if !rec.complete() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, r := range a.recs {
		if r.Key == rec.Key && r.OptsKey == rec.OptsKey {
			copy(a.recs[1:i+1], a.recs[:i])
			a.recs[0] = rec
			return
		}
	}
	a.recs = append(a.recs, nil)
	copy(a.recs[1:], a.recs[:len(a.recs)-1])
	a.recs[0] = rec
	if len(a.recs) > a.max {
		a.recs = a.recs[:a.max]
	}
}

// diffRecent probes the most recent records for one whose problem is a
// single recognised mutation away from p (spec.Diff).
func (a *RunArena) diffRecent(p *spec.Problem, okey string) (*RunRecord, spec.Delta) {
	a.mu.Lock()
	cands := make([]*RunRecord, 0, arenaDiffProbe)
	for _, r := range a.recs {
		if r.OptsKey == okey {
			cands = append(cands, r)
			if len(cands) == arenaDiffProbe {
				break
			}
		}
	}
	a.mu.Unlock()
	for _, r := range cands {
		if d, ok := spec.Diff(r.Problem, p); ok {
			return r, d
		}
	}
	return nil, spec.Delta{}
}

// Run schedules p through the arena, reusing whatever recorded state
// applies: an exact record replays in full, a problem one recognised
// mutation away from a recent record warm-starts (RunAuto semantics),
// and everything else runs cold — on a recycled slab when one fits —
// and is recorded for the future. The result is always bit-identical to
// core.Run(p, opts).
func (a *RunArena) Run(p *spec.Problem, opts Options) (*Result, error) {
	if a == nil {
		return Run(p, opts)
	}
	key, err := p.ContentKey()
	if err != nil {
		return Run(p, opts)
	}
	okey := optionsKey(opts)
	if rec := a.lookup(key, okey); rec != nil {
		return a.replay(rec, p, len(rec.Steps), key, okey, opts)
	}
	if rec, d := a.diffRecent(p, okey); rec != nil {
		return a.runDelta(rec, p, d, key, okey, opts)
	}
	return a.coldRun(p, opts, key, okey, 0)
}

// RunDerived schedules a problem built by spec.Derive, using the Delta
// to find the parent record and pick the reuse strategy directly —
// no content diffing needed. Falls back to a recorded cold run when the
// parent is unknown.
func (a *RunArena) RunDerived(p *spec.Problem, d spec.Delta, opts Options) (*Result, error) {
	if a == nil {
		return Run(p, opts)
	}
	// The child's key is cheap: Derive pre-computed it structurally from
	// the parent's, so no marshal happens here.
	key, err := p.ContentKey()
	if err != nil {
		return Run(p, opts)
	}
	okey := optionsKey(opts)
	if d.Kind == spec.MutIdentical {
		// The child's content equals the parent's: an exact record may
		// already exist under the child's own key.
		if rec := a.lookup(key, okey); rec != nil {
			return a.replay(rec, p, len(rec.Steps), key, okey, opts)
		}
	}
	if rec := a.lookup(d.ParentKey, okey); rec != nil {
		return a.runDelta(rec, p, d, key, okey, opts)
	}
	return a.coldRun(p, opts, key, okey, 0)
}

// runDelta picks the reuse strategy for a problem one known mutation
// away from a recorded parent. The matrix (DESIGN.md Section 15):
//
//   - identical / rtc: full replay. The decision procedure never reads
//     Rtc (it is checked post hoc), so the parent's entire log holds.
//   - forbid-medium: prefix replay up to the first decision whose
//     media-touch mask included the medium, then resume the live search.
//     Sound only when the mask was tracked, the budget has no medium
//     failures (the Nmf planner's fan tie-breaks resist the mask
//     argument) and the tails exclude comm times (otherwise forbidding
//     a medium shifts every S̄, hence every σ).
//   - crash-proc / faults: no replay. Crashing a processor changes mean
//     execution times, which shifts the S̄ tails globally; changing the
//     budget changes every replica count. Both invalidate the log from
//     decision one — the honest account — so only the slab is reused.
func (a *RunArena) runDelta(rec *RunRecord, p *spec.Problem, d spec.Delta, key, okey string, opts Options) (*Result, error) {
	switch d.Kind {
	case spec.MutIdentical, spec.MutRtc:
		return a.replay(rec, p, len(rec.Steps), key, okey, opts)
	case spec.MutForbidMedium:
		if rec.Masked && p.FaultModel().Nmf == 0 && !opts.TailsWithComms {
			return a.replay(rec, p, rec.prefixFor(d.Medium), key, okey, opts)
		}
	}
	return a.coldRun(p, opts, key, okey, 0)
}

// coldRun is the no-reuse path: a full search, on a recycled slab when
// one fits, recorded for future warm starts. fallbacks counts replays
// that were abandoned on the way here.
func (a *RunArena) coldRun(p *spec.Problem, opts Options, key, okey string, fallbacks int) (*Result, error) {
	s, err := sched.NewScheduleReusing(p, a.takeDonor(p))
	if err != nil {
		return nil, err
	}
	return a.coldRunOn(s, p, opts, key, okey, fallbacks)
}

// coldRunOn is coldRun on an already-built empty schedule (the replay
// fallback rebuilds its abandoned schedule into one).
func (a *RunArena) coldRunOn(s *sched.Schedule, p *spec.Problem, opts Options, key, okey string, fallbacks int) (*Result, error) {
	rec := &RunRecord{Key: key, OptsKey: okey, Problem: p}
	res, err := runOn(p, opts, s, nil, rec)
	if err != nil {
		return nil, err
	}
	res.Planner.ReplayFallbacks = fallbacks
	a.insert(rec)
	return res, nil
}

// replay warm-starts a run from the first k decisions of a recorded
// parent: it re-commits the recorded placements of those steps in slab
// commit order, verifying each against its recorded times, and — when
// k covers the whole log — returns the rebuilt schedule with the
// recorded decision log, or otherwise resumes the live search from the
// cut. Any verification failure abandons the replay entirely and falls
// back to a cold run (no partial trust in a stale log). k = 0 is the
// cold path with slab reuse.
func (a *RunArena) replay(rec *RunRecord, p *spec.Problem, k int, key, okey string, opts Options) (*Result, error) {
	if k <= 0 {
		return a.coldRun(p, opts, key, okey, 0)
	}
	s, err := sched.NewScheduleReusing(p, a.takeDonor(p))
	if err != nil {
		// The problem itself is unbuildable; a cold run would fail the
		// same way.
		return nil, err
	}
	nPlace := int(rec.StepPlaces[k-1])
	for i := 0; i < nPlace; i++ {
		pr := &rec.Places[i]
		r, perr := s.PlaceReplica(pr.Task, pr.Proc)
		if perr != nil || r.Start != pr.Start || r.End != pr.End {
			// Stale log: a decision failed its validity check mid-replay.
			// Abandon the whole replay and restart cold, recycling the
			// half-built schedule's slab.
			s2, serr := sched.NewScheduleReusing(p, s)
			if serr != nil {
				return nil, serr
			}
			return a.coldRunOn(s2, p, opts, key, okey, 1)
		}
	}
	if k == len(rec.Steps) {
		// Full replay: the schedule is rebuilt and the decision log is
		// the record's, verbatim. Only the Rtc check re-runs — it is the
		// one output that may differ under an Rtc-only derivation.
		res := &Result{
			Schedule:      s,
			Steps:         rec.Steps,
			ExtraReplicas: extraReplicasOf(s, p.FaultModel()),
		}
		res.Planner.WarmStarts = 1
		res.Planner.ReplayedDecisions = k
		res.Planner.SigmaRowsCarried = rec.sigmaRows(k)
		ok, rtcErr := s.MeetsRtc()
		res.MeetsRtc = ok
		if rtcErr != nil {
			res.RtcViolation = rtcErr.Error()
		}
		if key != rec.Key {
			a.insert(rec.aliasFor(key, p))
		}
		return res, nil
	}
	// Prefix replay: seed the child's media mask with the parent's at the
	// cut (the replay re-committed only surviving plans, not the rejected
	// previews the first k decisions were weighed against), then resume
	// the live search. The suffix is provably the cold run's: the prefix
	// state is bit-identical and the engine machinery is exact.
	s.OrMediaTouched(rec.MaskAfter[k-1])
	childRec := &RunRecord{
		Key:        key,
		OptsKey:    okey,
		Problem:    p,
		StepPlaces: append(make([]int32, 0, len(rec.Steps)), rec.StepPlaces[:k]...),
		MaskAfter:  append(make([]uint64, 0, len(rec.Steps)), rec.MaskAfter[:k]...),
	}
	res, err := runOn(p, opts, s, rec.Steps[:k], childRec)
	if err != nil {
		return nil, err
	}
	res.Planner.WarmStarts = 1
	res.Planner.ReplayedDecisions = k
	res.Planner.SigmaRowsCarried = rec.sigmaRows(k)
	a.insert(childRec)
	return res, nil
}

// ExportRecords snapshots the record store, most recently used first.
// Records are immutable, so the snapshot shares them with the arena; it
// is safe to marshal concurrently with further runs.
func (a *RunArena) ExportRecords() []*RunRecord {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*RunRecord(nil), a.recs...)
}

// ImportRecords restores previously exported records (oldest last, as
// ExportRecords emits them), dropping incomplete entries and anything
// beyond the bound. Records whose keys lie (a corrupted snapshot) are
// harmless: replay verification rejects them at first use.
func (a *RunArena) ImportRecords(recs []*RunRecord) int {
	if a == nil {
		return 0
	}
	n := 0
	// Insert in reverse so the first exported record ends up most recent.
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].complete() {
			a.insert(recs[i])
			n++
		}
	}
	return n
}

// extraReplicasOf counts replicas beyond the mandatory Npf+1 (the kept
// Minimize-start-time duplications) of a finished schedule.
func extraReplicasOf(s *sched.Schedule, fm spec.FaultModel) int {
	extra := 0
	for t := 0; t < s.Tasks().NumTasks(); t++ {
		if n := s.NumReplicas(model.TaskID(t)); n > fm.Replicas() {
			extra += n - fm.Replicas()
		}
	}
	return extra
}
