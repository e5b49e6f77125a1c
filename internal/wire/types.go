package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ftbar/internal/core"
	"ftbar/internal/sched"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
)

// RequestOptions is the wire form of core.Options.
type RequestOptions struct {
	// NoDuplication disables Minimize-start-time (the paper's basic
	// heuristic when combined with Npf = 0).
	NoDuplication bool `json:"no_duplication,omitempty"`
	// TailsWithComms adds mean communication times to the S̄ tails.
	TailsWithComms bool `json:"tails_with_comms,omitempty"`
}

// CoreOptions translates the wire options.
func (o RequestOptions) CoreOptions() core.Options {
	return core.Options{
		NoDuplication:  o.NoDuplication,
		TailsWithComms: o.TailsWithComms,
	}
}

// Include selects the optional derived artefacts of a response. Each flag
// is part of the cache key: a response is cached with exactly the
// artefacts its first computation produced.
type Include struct {
	// Gantt includes the textual Gantt chart.
	Gantt bool `json:"gantt,omitempty"`
	// Stats includes the schedule statistics.
	Stats bool `json:"stats,omitempty"`
	// Sweep includes the worst-case single-failure sweep.
	Sweep bool `json:"sweep,omitempty"`
}

// ScheduleRequest asks the service for one fault-tolerant schedule.
type ScheduleRequest struct {
	Problem *spec.Problem  `json:"problem"`
	Options RequestOptions `json:"options"`
	Include Include        `json:"include"`
}

// CacheKey returns the content address of the request: a SHA-256 over the
// canonical JSON of the problem and the semantically relevant options.
// Identical problems submitted by different clients therefore share one
// cache entry, whatever object identities the decoded requests have. The
// cluster routes on the same address, so a problem's cache entry, arena
// records and queue slot all live on the one worker that owns it.
func (r *ScheduleRequest) CacheKey() (string, error) {
	if r.Problem == nil {
		return "", fmt.Errorf("%w: missing problem", ErrBadRequest)
	}
	// MarshalJSON's output is already compact and HTML-escaped: the same
	// bytes json.Marshal would produce, without its compaction pass.
	pb, err := r.Problem.MarshalJSON()
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	h := sha256.New()
	h.Write(pb)
	// The literal "engine=incremental" stays: persisted v2/v3 cache
	// snapshots and drain handoffs are keyed on these exact bytes.
	fmt.Fprintf(h, "|nodup=%t|tails=%t|engine=incremental|gantt=%t|stats=%t|sweep=%t",
		r.Options.NoDuplication, r.Options.TailsWithComms,
		r.Include.Gantt, r.Include.Stats, r.Include.Sweep)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ScheduleResponse is the immutable, cacheable outcome of one request.
type ScheduleResponse struct {
	Length        float64           `json:"length"`
	MeetsRtc      bool              `json:"meets_rtc"`
	RtcViolation  string            `json:"rtc_violation,omitempty"`
	Steps         int               `json:"steps"`
	ExtraReplicas int               `json:"extra_replicas"`
	Schedule      json.RawMessage   `json:"schedule"`
	Gantt         string            `json:"gantt,omitempty"`
	Stats         *sched.Stats      `json:"stats,omitempty"`
	Sweep         []sim.CrashReport `json:"sweep,omitempty"`
}

// ScheduleReply wraps a response with per-delivery metadata: Cached is
// true when the response came from the content-addressed cache (or from a
// coalesced in-flight computation) without running the scheduler.
type ScheduleReply struct {
	*ScheduleResponse
	Cached bool `json:"cached"`
}

// BatchRequest fans several schedule requests across the worker pool.
type BatchRequest struct {
	Requests []ScheduleRequest `json:"requests"`
}

// BatchItem is the outcome of one batch element: a reply or an error.
type BatchItem struct {
	*ScheduleResponse
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// BatchResponse mirrors the batch request, index-aligned.
type BatchResponse struct {
	Responses []BatchItem `json:"responses"`
}

// SweepRequest schedules one problem at several replication levels, the
// every-Npf-variant workload the paper implies. Variants fan across the
// worker pool and hit the same content-addressed cache as single requests.
type SweepRequest struct {
	Problem *spec.Problem  `json:"problem"`
	Options RequestOptions `json:"options"`
	Include Include        `json:"include"`
	// Npfs lists the replication levels to schedule, e.g. [0, 1, 2].
	Npfs []int `json:"npfs"`
}

// SweepVariant is the outcome of one replication level.
type SweepVariant struct {
	Npf int `json:"npf"`
	*ScheduleResponse
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Overhead is the paper's Section 6.2 formula against the sweep's own
	// Npf = 0 variant, when the sweep includes one.
	Overhead float64 `json:"overhead,omitempty"`
}

// SweepResponse mirrors the sweep request, index-aligned with Npfs.
type SweepResponse struct {
	Variants []SweepVariant `json:"variants"`
}
