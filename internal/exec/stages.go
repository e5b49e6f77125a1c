package exec

// Staged arrival-rate load generation (DESIGN.md Section 14). A staged
// profile is a sequence of stages, each holding the arrival rate constant
// or ramping it linearly from the previous stage's end rate; a
// StagedRunner walks the profile open-loop — arrivals are paced by the
// profile clock, not by completions, so a slow target accumulates
// in-flight work instead of silently throttling the offered load. That is
// the property the service benchmarks need: tail latency under a *shaped*
// offered rate, with backpressure visible as queue depth and 429s rather
// than as a quietly slower generator.

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Errors reported by staged execution.
var (
	// ErrNilIteration is returned when Run is given a nil iteration func.
	ErrNilIteration = errors.New("exec: iteration function is nil")
	// ErrNoStages is returned when a profile defines no stages.
	ErrNoStages = errors.New("exec: no stages defined")
	// ErrInvalidRate is returned for a zero or negative arrival rate.
	ErrInvalidRate = errors.New("exec: invalid rate: must be positive")
	// ErrInvalidDuration is returned for a zero or negative stage duration.
	ErrInvalidDuration = errors.New("exec: invalid stage duration: must be positive")
	// ErrAlreadyRunning is returned when Run is called on a running runner.
	ErrAlreadyRunning = errors.New("exec: staged runner is already running")
)

// Stage is one segment of an arrival profile.
type Stage struct {
	// Name labels the stage in reports; empty is allowed.
	Name string `json:"name,omitempty"`
	// Rate is the arrival rate in iterations per second at the *end* of
	// the stage. A constant stage holds Rate throughout; a ramping stage
	// interpolates linearly from the previous stage's end rate (or the
	// profile's StartRate for the first stage) to Rate.
	Rate float64 `json:"rate"`
	// Duration is the length of the stage on the profile clock.
	Duration time.Duration `json:"duration"`
	// Ramp selects linear interpolation instead of a constant rate.
	Ramp bool `json:"ramp,omitempty"`
}

// StageConfig is a full arrival profile.
type StageConfig struct {
	// StartRate is the rate a ramping first stage starts from; 0 defaults
	// to the first stage's Rate (so a constant first stage is unaffected).
	StartRate float64 `json:"start_rate,omitempty"`
	// Stages are walked in order.
	Stages []Stage `json:"stages"`
	// MaxInFlight bounds concurrently running iterations. Beyond the
	// bound the dispatcher blocks — the loop degrades to closed at
	// saturation instead of spawning unbounded goroutines. 0 means
	// unbounded (pure open loop).
	MaxInFlight int `json:"max_in_flight,omitempty"`
}

// Validate checks the profile.
func (c StageConfig) Validate() error {
	if len(c.Stages) == 0 {
		return ErrNoStages
	}
	if c.StartRate < 0 {
		return ErrInvalidRate
	}
	for _, st := range c.Stages {
		if st.Rate <= 0 {
			return ErrInvalidRate
		}
		if st.Duration <= 0 {
			return ErrInvalidDuration
		}
	}
	return nil
}

// Duration returns the total profile length.
func (c StageConfig) Duration() time.Duration {
	var d time.Duration
	for _, st := range c.Stages {
		d += st.Duration
	}
	return d
}

// rateAt returns the instantaneous arrival rate at profile time t and the
// index of the stage containing t; ok is false past the end of the
// profile. The profile is right-open: t exactly at a stage boundary
// belongs to the next stage.
func (c StageConfig) rateAt(t time.Duration) (rate float64, stage int, ok bool) {
	base := c.StartRate
	if base == 0 {
		base = c.Stages[0].Rate
	}
	var off time.Duration
	for i, st := range c.Stages {
		if t < off+st.Duration {
			if !st.Ramp {
				return st.Rate, i, true
			}
			frac := float64(t-off) / float64(st.Duration)
			return base + (st.Rate-base)*frac, i, true
		}
		off += st.Duration
		base = st.Rate
	}
	return 0, len(c.Stages), false
}

// IterationFunc is one unit of generated load: stage is the index of the
// stage the arrival belongs to, iter the global arrival ordinal.
type IterationFunc func(stage, iter int)

// StagedRunner drives an IterationFunc through a StageConfig profile.
// A runner runs one profile at a time.
type StagedRunner struct {
	cfg StageConfig

	mu      sync.Mutex
	running bool
}

// NewStagedRunner validates the profile and returns a runner for it.
func NewStagedRunner(cfg StageConfig) (*StagedRunner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StagedRunner{cfg: cfg}, nil
}

// Run walks the profile, invoking fn once per arrival in its own
// goroutine, and blocks until every launched iteration returns (or ctx
// is cancelled, which stops launching and waits for the in-flight ones).
// It returns the number of iterations launched per stage.
func (r *StagedRunner) Run(ctx context.Context, fn IterationFunc) ([]int, error) {
	if fn == nil {
		return nil, ErrNilIteration
	}
	if err := r.cfg.Validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.running {
		r.mu.Unlock()
		return nil, ErrAlreadyRunning
	}
	r.running = true
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.running = false
		r.mu.Unlock()
	}()

	var sem chan struct{}
	if r.cfg.MaxInFlight > 0 {
		sem = make(chan struct{}, r.cfg.MaxInFlight)
	}
	launched := make([]int, len(r.cfg.Stages))
	var wg sync.WaitGroup
	defer wg.Wait()

	start := time.Now()
	var profile time.Duration // virtual stage clock
	var runErr error
	for iter := 0; ; iter++ {
		rate, stage, ok := r.cfg.rateAt(profile)
		if !ok {
			break
		}
		// Pace against the wall clock so scheduling jitter does not
		// compound across arrivals.
		if wait := time.Until(start.Add(profile)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				runErr = ctx.Err()
			}
		}
		if runErr != nil {
			break
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				runErr = ctx.Err()
			}
			if runErr != nil {
				break
			}
		}
		launched[stage]++
		wg.Add(1)
		go func(stage, iter int) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			fn(stage, iter)
		}(stage, iter)
		// Advance the profile clock by the interarrival gap at the
		// current instantaneous rate.
		profile += time.Duration(float64(time.Second) / rate)
	}
	return launched, runErr
}
