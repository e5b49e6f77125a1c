package core

import (
	"fmt"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
	"ftbar/internal/spec"
)

// RunRecord is the replayable snapshot of one finished scheduling run:
// the decision log and the surviving placements in slab commit order
// (DESIGN.md Section 15). A record is immutable once built; replayers only
// read it, so one record may serve concurrent warm starts. The JSON tags
// make records persistable alongside the service's schedule cache.
type RunRecord struct {
	// Key is the content address of Problem (spec.ContentKey) and OptsKey
	// the fingerprint of the decision-relevant options — a record may only
	// replay under the exact same pair.
	Key     string        `json:"key"`
	OptsKey string        `json:"opts_key"`
	Problem *spec.Problem `json:"problem"`
	// Steps is the run's decision log (aliased, never copied: Step slices
	// are immutable by convention).
	Steps []Step `json:"steps"`
	// Places lists the surviving replicas in slab commit order. Replaying
	// them through PlaceReplica onto an empty schedule of an equal problem
	// reproduces the schedule bit for bit: each plan is deterministic in
	// the schedule state, and rollback-discarded speculation left no trace
	// in the surviving state (sched.Rollback restores it exactly).
	Places []PlaceRec `json:"places"`
}

// PlaceRec is one recorded replica placement: where it went and the
// fault-free times the replay must reproduce. A replayed placement whose
// recomputed Start or End deviates proves the record stale — the replay
// is abandoned and the run restarts cold.
type PlaceRec struct {
	Task  model.TaskID `json:"task"`
	Proc  arch.ProcID  `json:"proc"`
	Start float64      `json:"start"`
	End   float64      `json:"end"`
}

// optionsKey fingerprints the options that influence decisions, which is
// every field of Options.
func optionsKey(opts Options) string {
	// The literal "legacy=false" stays: persisted v3 arena snapshots and
	// drain handoffs key their records on these exact bytes.
	return fmt.Sprintf("nodup=%t|tails=%t|legacy=false",
		opts.NoDuplication, opts.TailsWithComms)
}

// newRecord builds the record of a finished cold run from its result.
func newRecord(key, okey string, p *spec.Problem, res *Result) *RunRecord {
	s := res.Schedule
	places := make([]PlaceRec, s.TotalReplicas())
	for i := range places {
		r := s.ReplicaByOrder(i)
		places[i] = PlaceRec{Task: r.Task, Proc: r.Proc, Start: r.Start, End: r.End}
	}
	return &RunRecord{Key: key, OptsKey: okey, Problem: p, Steps: res.Steps, Places: places}
}

// replayPlaces re-commits recorded placements onto s in order and reports
// whether every one reproduced its recorded times.
func replayPlaces(s *sched.Schedule, places []PlaceRec) bool {
	for i := range places {
		pr := &places[i]
		r, err := s.PlaceReplica(pr.Task, pr.Proc)
		if err != nil || r.Start != pr.Start || r.End != pr.End {
			return false
		}
	}
	return true
}

// trusted returns rec keyed by its problem's recomputed content address,
// or nil when rec does not rebuild a valid schedule of that problem. It
// guards the records that cross a trust boundary (ImportRecords: snapshot
// files, drain handoffs): every task and processor index a replay would
// follow is range-checked, the log must decide each task exactly once,
// and one replay onto the record's own problem must pass Validate. A
// corrupt or forged record is dropped, so its problem starts cold instead
// of panicking a replay or serving a broken schedule.
func trusted(rec *RunRecord) *RunRecord {
	if rec == nil || rec.Problem == nil {
		return nil
	}
	p := rec.Problem
	tg, err := p.Compile()
	if err != nil {
		return nil
	}
	key, err := p.ContentKey()
	if err != nil {
		return nil
	}
	nTasks, nProcs := tg.NumTasks(), p.Arc.NumProcs()
	if len(rec.Steps) != nTasks {
		return nil
	}
	decided := make([]bool, nTasks)
	for _, st := range rec.Steps {
		if st.Task < 0 || int(st.Task) >= nTasks || decided[st.Task] {
			return nil
		}
		decided[st.Task] = true
		for _, q := range st.Procs {
			if q < 0 || int(q) >= nProcs {
				return nil
			}
		}
	}
	for _, pr := range rec.Places {
		if pr.Task < 0 || int(pr.Task) >= nTasks || pr.Proc < 0 || int(pr.Proc) >= nProcs {
			return nil
		}
	}
	s, err := sched.NewSchedule(p)
	if err != nil || !replayPlaces(s, rec.Places) || s.Validate() != nil {
		return nil
	}
	if rec.Key != key {
		rec = rec.aliasFor(key, p)
	}
	return rec
}

// sigmaRows counts the σ vectors of the recorded decisions — the rows a
// replay carries over instead of recomputing.
func (rec *RunRecord) sigmaRows() int {
	n := 0
	for i := range rec.Steps {
		n += len(rec.Steps[i].Sigmas)
	}
	return n
}

// aliasFor returns a record for a problem whose decision data is shared
// with rec — identical content, or a problem equal up to Rtc, which the
// decision procedure never reads. Only the identity changes; the log
// columns are aliased.
func (rec *RunRecord) aliasFor(key string, p *spec.Problem) *RunRecord {
	return &RunRecord{Key: key, OptsKey: rec.OptsKey, Problem: p, Steps: rec.Steps, Places: rec.Places}
}
