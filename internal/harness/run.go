package harness

import (
	"errors"
	"fmt"
	"strings"

	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
)

// Outcome is the measured result of one scenario: the population's
// validation split, the masked fractions of the three crash sweeps over
// the validated schedules, and the mean fault-free makespan.
type Outcome struct {
	Name   string `json:"name"`
	Graphs int    `json:"graphs"`
	// SpecRejected counts problems the spec validator refused up front;
	// SchedRejected counts problems the planner's diversity gate (or the
	// defensive post-run validation) refused. The rest are Validated and
	// carry the masking guarantee.
	SpecRejected  int `json:"spec_rejected"`
	SchedRejected int `json:"sched_rejected"`
	Validated     int `json:"validated"`
	// JointValidated counts the validated schedules that also carry the
	// joint-survivability certificate (sched.ValidateJoint).
	JointValidated int `json:"joint_validated"`
	// ValidatedRate through JointRate mirror the Floors fields; the two
	// validation rates are over Graphs, the masked fractions over the
	// sweep scenarios of the validated schedules.
	ValidatedRate  float64 `json:"validated_rate"`
	LinkMasked     float64 `json:"link_masked"`
	ProcMasked     float64 `json:"proc_masked"`
	CombinedMasked float64 `json:"combined_masked"`
	JointRate      float64 `json:"joint_rate"`
	// MakespanMean is the mean fault-free schedule length over the
	// validated runs (0 when none validated).
	MakespanMean float64 `json:"makespan_mean"`
}

// Run executes the scenario's population and measures the outcome. Spec
// and scheduler rejections are counted, not fatal; generator misuse and
// sweep failures are errors.
func Run(s *Spec) (*Outcome, error) {
	opts := s.CoreOptions()
	out := &Outcome{Name: s.Name}
	linkScen, linkMasked := 0, 0
	procScen, procMasked := 0, 0
	combScen, combMasked := 0, 0
	lengthSum := 0.0
	for i := 0; i < s.Graphs; i++ {
		params, err := s.Params(i)
		if err != nil {
			return nil, err
		}
		problem, err := gen.Generate(params)
		if err != nil {
			return nil, fmt.Errorf("%s graph %d: %w", s.Name, i, err)
		}
		out.Graphs++
		res, err := core.Run(problem, opts)
		if err != nil {
			switch {
			case errors.Is(err, spec.ErrMediaDiversity), errors.Is(err, spec.ErrTooFewprocs):
				out.SpecRejected++
				continue
			case errors.Is(err, core.ErrNoProcessorChoice):
				out.SchedRejected++
				continue
			}
			return nil, fmt.Errorf("%s graph %d: %w", s.Name, i, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			out.SchedRejected++
			continue
		}
		out.Validated++
		if res.Schedule.ValidateJoint() == nil {
			out.JointValidated++
		}
		lengthSum += res.Schedule.Length()
		links, err := sim.SingleLinkFailureSweep(res.Schedule)
		if err != nil {
			return nil, fmt.Errorf("%s graph %d link sweep: %w", s.Name, i, err)
		}
		for _, r := range links {
			linkScen++
			if r.Masked {
				linkMasked++
			}
		}
		procs, err := sim.SingleFailureSweep(res.Schedule)
		if err != nil {
			return nil, fmt.Errorf("%s graph %d proc sweep: %w", s.Name, i, err)
		}
		for _, r := range procs {
			procScen++
			if r.Masked {
				procMasked++
			}
		}
		combined, err := sim.CombinedFailureSweep(res.Schedule)
		if err != nil {
			return nil, fmt.Errorf("%s graph %d combined sweep: %w", s.Name, i, err)
		}
		for _, r := range combined {
			combScen++
			if r.Masked {
				combMasked++
			}
		}
	}
	out.ValidatedRate = rate(out.Validated, out.Graphs)
	out.LinkMasked = rate(linkMasked, linkScen)
	out.ProcMasked = rate(procMasked, procScen)
	out.CombinedMasked = rate(combMasked, combScen)
	out.JointRate = rate(out.JointValidated, out.Graphs)
	if out.Validated > 0 {
		out.MakespanMean = lengthSum / float64(out.Validated)
	}
	return out, nil
}

func rate(hit, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// Check compares an outcome against the scenario's floors and ceiling
// and returns one error naming every violated bound, or nil.
func Check(s *Spec, out *Outcome) error {
	var fails []string
	bound := func(name string, got, floor float64) {
		if floor > 0 && got < floor {
			fails = append(fails, fmt.Sprintf("%s %.3f < floor %.3f", name, got, floor))
		}
	}
	bound("validated_rate", out.ValidatedRate, s.Floors.ValidatedRate)
	bound("joint_rate", out.JointRate, s.Floors.JointRate)
	// Mask floors only bind once something validated: with zero validated
	// schedules there are no sweep scenarios, and the validated_rate floor
	// is the bound that must speak to that.
	if out.Validated > 0 {
		bound("link_masked", out.LinkMasked, s.Floors.LinkMasked)
		bound("proc_masked", out.ProcMasked, s.Floors.ProcMasked)
		bound("combined_masked", out.CombinedMasked, s.Floors.CombinedMasked)
		if c := s.MakespanCeiling; c > 0 && out.MakespanMean > c {
			fails = append(fails, fmt.Sprintf("makespan_mean %.3f > ceiling %.3f",
				out.MakespanMean, c))
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("%s: %s", s.Name, strings.Join(fails, "; "))
	}
	return nil
}
