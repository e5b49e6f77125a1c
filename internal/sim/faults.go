// Package sim executes a static schedule in virtual time under fail-silent
// processor failures (permanent and intermittent), reproducing the run-time
// behaviour of the paper's Section 5: replicas start on their first complete
// input set, replicated comms from dead processors simply never happen, and
// the schedule re-flows without any timeout.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"ftbar/internal/arch"
)

// Errors reported by scenario validation.
var (
	ErrBadFailure    = errors.New("sim: invalid failure window")
	ErrBadIteration  = errors.New("sim: iterations must be >= 1")
	ErrUnknownProc   = errors.New("sim: failure names unknown processor")
	ErrUnknownMedium = errors.New("sim: failure names unknown medium")
)

// Failure is one fail-silent failure window of a processor's computation
// unit: the processor produces nothing during [At, Until). A permanent
// failure has Until = +Inf.
type Failure struct {
	Proc  arch.ProcID
	At    float64
	Until float64
}

// Permanent returns a crash of p at time at that never recovers.
func Permanent(p arch.ProcID, at float64) Failure {
	return Failure{Proc: p, At: at, Until: math.Inf(1)}
}

// Intermittent returns a transient failure of p during [from, to).
func Intermittent(p arch.ProcID, from, to float64) Failure {
	return Failure{Proc: p, At: from, Until: to}
}

// MediumFailure is a fail-silent failure window of a communication medium:
// transmissions that would occupy the medium during [At, Until) are lost.
// Link failures are the extension the paper's conclusion announces as
// future work; FTBAR's comm replication over parallel media masks a single
// link failure whenever the Npf+1 senders reach the receiver over disjoint
// media (always the case for direct point-to-point links between distinct
// processors).
type MediumFailure struct {
	Medium arch.MediumID
	At     float64
	Until  float64
}

// PermanentLink returns a failure of medium m at time at that never
// recovers.
func PermanentLink(m arch.MediumID, at float64) MediumFailure {
	return MediumFailure{Medium: m, At: at, Until: math.Inf(1)}
}

// IntermittentLink returns a transient failure of medium m during
// [from, to).
func IntermittentLink(m arch.MediumID, from, to float64) MediumFailure {
	return MediumFailure{Medium: m, At: from, Until: to}
}

// DetectionMode selects the failure-detection option of the paper's
// Section 5.
type DetectionMode int

const (
	// DetectionNone is option 1: no detection at all. Healthy processors
	// keep sending to dead ones; an intermittently-failed processor can
	// rejoin later iterations.
	DetectionNone DetectionMode = iota
	// DetectionExpected is option 2: each processor knows when every comm
	// addressed to it is supposed to happen; a comm that never arrives
	// marks its sender faulty, and from the next iteration on the healthy
	// processors drop their comms towards it. Intermittent failures can
	// then never rejoin (the paper's stated drawback).
	DetectionExpected
)

// Scenario is one simulated execution: processor and medium failure sets,
// a detection mode and a number of iterations of the data-flow graph.
type Scenario struct {
	Failures       []Failure
	MediumFailures []MediumFailure
	Detection      DetectionMode
	Iterations     int // 0 means 1
}

// Validate checks the scenario against an architecture.
func (sc Scenario) Validate(a *arch.Architecture) error {
	if sc.Iterations < 0 {
		return fmt.Errorf("%w: %d", ErrBadIteration, sc.Iterations)
	}
	for _, f := range sc.Failures {
		if f.Proc < 0 || int(f.Proc) >= a.NumProcs() {
			return fmt.Errorf("%w: id %d", ErrUnknownProc, f.Proc)
		}
		if !validWindow(f.At, f.Until) {
			return fmt.Errorf("%w: [%g,%g) on proc %d", ErrBadFailure, f.At, f.Until, f.Proc)
		}
	}
	for _, f := range sc.MediumFailures {
		if f.Medium < 0 || int(f.Medium) >= a.NumMedia() {
			return fmt.Errorf("%w: medium id %d", ErrUnknownMedium, f.Medium)
		}
		if !validWindow(f.At, f.Until) {
			return fmt.Errorf("%w: [%g,%g) on medium %d", ErrBadFailure, f.At, f.Until, f.Medium)
		}
	}
	return nil
}

// validWindow reports 0 <= at < until. Written as one positive
// comparison chain, it refuses a NaN bound on either side: a NaN recovery
// time would otherwise pass an "until <= at" test and cancel the failure.
func validWindow(at, until float64) bool {
	return 0 <= at && at < until
}

// buildMediumDown turns the medium failures into per-medium down
// intervals, reusing the processor machinery.
func buildMediumDown(nMedia int, failures []MediumFailure) []downIntervals {
	procLike := make([]Failure, 0, len(failures))
	for _, f := range failures {
		procLike = append(procLike, Failure{Proc: arch.ProcID(f.Medium), At: f.At, Until: f.Until})
	}
	return buildDownIntervals(nMedia, procLike)
}

// upWindows turns the failure list into, per processor, a sorted list of
// disjoint down intervals.
type downIntervals [][2]float64

func buildDownIntervals(nProcs int, failures []Failure) []downIntervals {
	out := make([]downIntervals, nProcs)
	for _, f := range failures {
		out[f.Proc] = append(out[f.Proc], [2]float64{f.At, f.Until})
	}
	for p := range out {
		iv := out[p]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		merged := iv[:0]
		for _, w := range iv {
			if n := len(merged); n > 0 && w[0] <= merged[n-1][1] {
				if w[1] > merged[n-1][1] {
					merged[n-1][1] = w[1]
				}
				continue
			}
			merged = append(merged, w)
		}
		out[p] = merged
	}
	return out
}

// window returns the earliest t >= t0 such that the processor is up during
// the whole [t, t+d), or ok=false when no such window exists (permanent
// failure).
func (iv downIntervals) window(t0, d float64) (float64, bool) {
	t := t0
	for _, w := range iv {
		if t+d <= w[0] {
			return t, true
		}
		if math.IsInf(w[1], 1) {
			return 0, false
		}
		if t < w[1] && t+d > w[0] {
			t = w[1]
		}
	}
	return t, true
}
