package exec

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestStageConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  StageConfig
		want error
	}{
		{"empty", StageConfig{}, ErrNoStages},
		{"zero rate", StageConfig{Stages: []Stage{{Rate: 0, Duration: time.Second}}}, ErrInvalidRate},
		{"negative rate", StageConfig{Stages: []Stage{{Rate: -1, Duration: time.Second}}}, ErrInvalidRate},
		{"negative start", StageConfig{StartRate: -1, Stages: []Stage{{Rate: 1, Duration: time.Second}}}, ErrInvalidRate},
		{"zero duration", StageConfig{Stages: []Stage{{Rate: 1}}}, ErrInvalidDuration},
		{"ok", StageConfig{Stages: []Stage{{Rate: 1, Duration: time.Second}}}, nil},
	}
	for _, c := range cases {
		if got := c.cfg.Validate(); !errors.Is(got, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, got, c.want)
		}
		if _, err := NewStagedRunner(c.cfg); !errors.Is(err, c.want) {
			t.Errorf("%s: NewStagedRunner = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestStageConfigRateAt(t *testing.T) {
	cfg := StageConfig{Stages: []Stage{
		{Rate: 100, Duration: time.Second},
		{Rate: 300, Duration: 2 * time.Second, Ramp: true},
	}}
	if d := cfg.Duration(); d != 3*time.Second {
		t.Fatalf("Duration = %v", d)
	}
	probe := []struct {
		t     time.Duration
		rate  float64
		stage int
		ok    bool
	}{
		{0, 100, 0, true},
		{500 * time.Millisecond, 100, 0, true},
		{time.Second, 100, 1, true}, // ramp starts at previous end rate
		{2 * time.Second, 200, 1, true},
		{3*time.Second - time.Millisecond, 299.9, 1, true},
		{3 * time.Second, 0, 2, false},
	}
	for _, p := range probe {
		rate, stage, ok := cfg.rateAt(p.t)
		if ok != p.ok || stage != p.stage || math.Abs(rate-p.rate) > 0.2 {
			t.Errorf("rateAt(%v) = (%.2f, %d, %v), want (%.2f, %d, %v)",
				p.t, rate, stage, ok, p.rate, p.stage, p.ok)
		}
	}
	// An explicit StartRate anchors the first ramp.
	ramp := StageConfig{StartRate: 10, Stages: []Stage{{Rate: 110, Duration: time.Second, Ramp: true}}}
	if rate, _, _ := ramp.rateAt(500 * time.Millisecond); math.Abs(rate-60) > 0.2 {
		t.Errorf("mid-ramp rate = %.2f, want 60", rate)
	}
}

func TestStagedRunnerCounts(t *testing.T) {
	r, err := NewStagedRunner(StageConfig{Stages: []Stage{
		{Rate: 400, Duration: 100 * time.Millisecond},
		{Rate: 800, Duration: 100 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	var badStage atomic.Int64
	launched, err := r.Run(context.Background(), func(stage, iter int) {
		calls.Add(1)
		if stage < 0 || stage > 1 {
			badStage.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if badStage.Load() != 0 {
		t.Errorf("%d iterations saw an out-of-range stage", badStage.Load())
	}
	if got := int(calls.Load()); got != launched[0]+launched[1] {
		t.Errorf("fn ran %d times, launched reports %v", got, launched)
	}
	// Open-loop pacing: ~40 then ~80 arrivals. Generous bounds for CI.
	if launched[0] < 20 || launched[0] > 80 {
		t.Errorf("stage 0 launched %d, want ~40", launched[0])
	}
	if launched[1] < 40 || launched[1] > 160 {
		t.Errorf("stage 1 launched %d, want ~80", launched[1])
	}
	if launched[1] <= launched[0] {
		t.Errorf("doubled rate did not launch more: %v", launched)
	}
}

func TestStagedRunnerCancel(t *testing.T) {
	r, err := NewStagedRunner(StageConfig{Stages: []Stage{{Rate: 100, Duration: 10 * time.Second}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	nested := make(chan error, 1)
	_, err = r.Run(ctx, func(stage, iter int) {
		if iter == 0 {
			// A second Run on the running runner is rejected.
			_, err := r.Run(ctx, func(int, int) {})
			nested <- err
		}
	})
	if got := <-nested; !errors.Is(got, ErrAlreadyRunning) {
		t.Errorf("concurrent Run = %v, want ErrAlreadyRunning", got)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want DeadlineExceeded", err)
	}
	if since := time.Since(t0); since > 5*time.Second {
		t.Fatalf("cancelled run took %v", since)
	}
}

func TestStagedRunnerMaxInFlight(t *testing.T) {
	r, err := NewStagedRunner(StageConfig{
		Stages:      []Stage{{Rate: 2000, Duration: 50 * time.Millisecond}},
		MaxInFlight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, peak atomic.Int64
	if _, err := r.Run(context.Background(), func(stage, iter int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Errorf("in-flight peak %d exceeds MaxInFlight 2", p)
	}
}

func TestStagedRunnerNilIteration(t *testing.T) {
	r, err := NewStagedRunner(StageConfig{Stages: []Stage{{Rate: 1, Duration: time.Second}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), nil); !errors.Is(err, ErrNilIteration) {
		t.Fatalf("Run(nil) = %v, want ErrNilIteration", err)
	}
}
