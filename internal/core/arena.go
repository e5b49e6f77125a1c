// This file implements the cross-run reuse layer (DESIGN.md Section 15):
// RunArena, an owner of retired schedule slabs and recorded decision
// logs. It has one reuse rule: a problem equal to a recorded one up to
// its real-time constraints replays that record whole, and every other
// problem runs cold on a recycled slab and is recorded. The hard
// constraint is bit-identity — a warm-started run must produce exactly
// the decision log and schedule a cold run would — so a replay verifies
// every placement and falls back to a cold run on the first deviation.
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
	// arenaProbe bounds how many recent records Run compares an unknown
	// problem against (spec.SameExceptRtc) before running it cold.
	arenaProbe = 4
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
// the next warm run steals its slab.
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

// insert stores a record at the front, evicting the least recently used
// record beyond the bound.
func (a *RunArena) insert(rec *RunRecord) {
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

// probe returns one of the most recent records whose problem equals p up
// to its real-time constraints, nil when none does.
func (a *RunArena) probe(p *spec.Problem, okey string) *RunRecord {
	a.mu.Lock()
	cands := make([]*RunRecord, 0, arenaProbe)
	for _, r := range a.recs {
		if r.OptsKey == okey {
			cands = append(cands, r)
			if len(cands) == arenaProbe {
				break
			}
		}
	}
	a.mu.Unlock()
	for _, r := range cands {
		if spec.SameExceptRtc(r.Problem, p) {
			return r
		}
	}
	return nil
}

// Run schedules p through the arena: a problem equal to a recorded one up
// to its real-time constraints — found by content key, or by comparing
// it with the most recent records — replays that record whole, and
// everything else runs cold, on a recycled slab when one fits, and is
// recorded for the future. The result is always bit-identical to
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
	rec := a.lookup(key, okey)
	if rec == nil {
		rec = a.probe(p, okey)
	}
	if rec != nil {
		return a.replay(rec, p, key, okey, opts)
	}
	return a.coldRun(p, a.takeDonor(p), opts, key, okey, 0)
}

// RunDerived schedules a problem built by spec.Derive. An identical or
// Rtc-only derivation replays its parent's record, found by the Delta's
// parent key without comparing problems; every other mutation — and a
// parent the arena does not know — runs cold and is recorded. A crashed
// processor shifts the mean-time tails of every task, and a forbidden
// medium or a new fault budget changes what every decision may choose,
// so none of their parent's decisions is known to hold.
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
	if d.Kind == spec.MutIdentical || d.Kind == spec.MutRtc {
		if rec := a.lookup(d.ParentKey, okey); rec != nil {
			return a.replay(rec, p, key, okey, opts)
		}
	}
	return a.coldRun(p, a.takeDonor(p), opts, key, okey, 0)
}

// coldRun is the no-reuse path: a full search on a schedule that
// recycles donor's slab when it fits, recorded for future warm starts.
// fallbacks counts replays that were abandoned on the way here.
func (a *RunArena) coldRun(p *spec.Problem, donor *sched.Schedule, opts Options, key, okey string, fallbacks int) (*Result, error) {
	s, err := sched.NewScheduleReusing(p, donor)
	if err != nil {
		return nil, err
	}
	res, err := runOn(p, opts, s)
	if err != nil {
		return nil, err
	}
	res.Planner.ReplayFallbacks = fallbacks
	a.insert(newRecord(key, okey, p, res))
	return res, nil
}

// replay warm-starts a run from a whole recorded log: it re-commits the
// recorded placements in slab commit order, verifying each against its
// recorded times, and returns the rebuilt schedule with the recorded
// decision log verbatim. Only the Rtc check re-runs — it is the one
// output that may differ between problems equal up to Rtc. Any
// verification failure abandons the replay and falls back to a cold run
// on the salvaged slab (no partial trust in a stale log).
func (a *RunArena) replay(rec *RunRecord, p *spec.Problem, key, okey string, opts Options) (*Result, error) {
	s, err := sched.NewScheduleReusing(p, a.takeDonor(p))
	if err != nil {
		// The problem itself is unbuildable; a cold run would fail the
		// same way.
		return nil, err
	}
	if !replayPlaces(s, rec.Places) {
		// Stale log: a decision failed its validity check mid-replay.
		// Restart cold, recycling the half-built schedule's slab.
		return a.coldRun(p, s, opts, key, okey, 1)
	}
	res := newResult(s, rec.Steps, p.FaultModel())
	res.Planner.WarmStarts = 1
	res.Planner.ReplayedDecisions = len(rec.Steps)
	res.Planner.SigmaRowsCarried = rec.sigmaRows()
	if key != rec.Key {
		a.insert(rec.aliasFor(key, p))
	}
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
// ExportRecords emits them), keeping at most the bound, and returns how
// many it stored. Imported records come from outside the process — a
// snapshot file, a peer's drain handoff — so each must first rebuild a
// valid schedule of its own problem (trusted); the rest are dropped, and
// their problems start cold.
func (a *RunArena) ImportRecords(recs []*RunRecord) int {
	if a == nil {
		return 0
	}
	n := 0
	// Insert in reverse so the first exported record ends up most recent.
	for i := len(recs) - 1; i >= 0; i-- {
		if rec := trusted(recs[i]); rec != nil {
			a.insert(rec)
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
