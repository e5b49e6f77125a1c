package core

import (
	"fmt"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
	"ftbar/internal/spec"
)

// RunRecord is the replayable snapshot of one finished scheduling run:
// the decision log, the surviving placements in slab commit order, and
// the per-step validity data the delta-invalidation rule consults
// (DESIGN.md Section 15). A record is immutable once finished; replayers
// only read it, so one record may serve concurrent warm starts. The JSON
// tags make records persistable alongside the service's schedule cache.
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
	// them through PlaceReplica against an identical prefix reproduces the
	// schedule bit for bit: each plan is deterministic in the schedule
	// state, and rollback-discarded speculation left no trace in the
	// surviving state (sched.Rollback restores it exactly).
	Places []PlaceRec `json:"places"`
	// StepPlaces[i] is the total placement count after step i — the cut a
	// prefix replay stops at. MaskAfter[i] is the media-touch mask after
	// step i (monotone, so it covers every preview that priced rounds up
	// to and including i); Masked reports whether the mask was tracked at
	// all (at most 64 media).
	StepPlaces []int32  `json:"step_places"`
	MaskAfter  []uint64 `json:"mask_after"`
	Masked     bool     `json:"masked"`
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

// finish freezes the record of a completed run: the decision log, the
// surviving placement log and the mask-tracking flag. The per-step
// columns (StepPlaces, MaskAfter) were captured live by commitStep.
func (rec *RunRecord) finish(s *sched.Schedule, res *Result) {
	rec.Steps = res.Steps
	n := s.TotalReplicas()
	rec.Places = make([]PlaceRec, n)
	for i := 0; i < n; i++ {
		r := s.ReplicaByOrder(i)
		rec.Places[i] = PlaceRec{Task: r.Task, Proc: r.Proc, Start: r.Start, End: r.End}
	}
	rec.Masked = s.MediaMaskTracked()
}

// complete reports whether the record carries a replayable run.
func (rec *RunRecord) complete() bool {
	return rec != nil && len(rec.Steps) > 0 &&
		len(rec.StepPlaces) == len(rec.Steps) && len(rec.MaskAfter) == len(rec.Steps)
}

// prefixFor returns how many leading decisions stay valid when medium m
// is forbidden: the longest prefix of steps whose media-touch mask never
// included m. No plan arithmetic in those rounds read m's busy-end as a
// claim, and a rejected medium only loses its comparisons harder once
// forbidden, so the first prefixFor decisions of a cold run on the
// mutated problem are provably identical (DESIGN.md Section 15). The
// mask is monotone, hence the binary search.
func (rec *RunRecord) prefixFor(m arch.MediumID) int {
	if !rec.Masked || int(m) >= 64 {
		return 0
	}
	bit := uint64(1) << uint(m)
	lo, hi := 0, len(rec.MaskAfter)
	for lo < hi {
		mid := (lo + hi) / 2
		if rec.MaskAfter[mid]&bit == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sigmaRows counts the σ vectors of the first k recorded decisions — the
// rows a replay carries over instead of recomputing.
func (rec *RunRecord) sigmaRows(k int) int {
	n := 0
	for i := 0; i < k; i++ {
		n += len(rec.Steps[i].Sigmas)
	}
	return n
}

// aliasFor returns a record for a problem whose decision data is shared
// with rec — the full-replay case (identical content or an Rtc-only
// derivation, which the decision procedure never reads). Only the
// identity changes; every log column is aliased.
func (rec *RunRecord) aliasFor(key string, p *spec.Problem) *RunRecord {
	return &RunRecord{
		Key:        key,
		OptsKey:    rec.OptsKey,
		Problem:    p,
		Steps:      rec.Steps,
		Places:     rec.Places,
		StepPlaces: rec.StepPlaces,
		MaskAfter:  rec.MaskAfter,
		Masked:     rec.Masked,
	}
}
