package sim

import (
	"errors"
	"reflect"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/sched"
)

func sweepSchedule(tb testing.TB, n, procs int, seed int64) *sched.Schedule {
	tb.Helper()
	p, err := gen.Generate(gen.Params{N: n, CCR: 1, Procs: procs, Npf: 1, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := core.Run(p, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Schedule
}

// TestSingleFailureSweepWorkerInvariance pins that the parallel sweep is a
// pure speedup: every worker count produces the serial outcomes, field for
// field.
func TestSingleFailureSweepWorkerInvariance(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		s := sweepSchedule(t, 25, 4, seed)
		serial, err := sweep(s, procCells(s), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 0} {
			got, err := sweep(s, procCells(s), workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("seed %d workers=%d: outcomes diverge\nserial:   %+v\nparallel: %+v",
					seed, workers, serial, got)
			}
		}
	}
}

// TestSweepReturnsSimulationError pins the engine's error path: a cell
// naming an unknown processor fails its simulations, and the sweep
// returns that error instead of outcomes for every worker count.
func TestSweepReturnsSimulationError(t *testing.T) {
	s := sweepSchedule(t, 10, 4, 1)
	cells := append(procCells(s), crashCell{procs: []arch.ProcID{99}, probes: []float64{0, 1}})
	for _, workers := range []int{1, 2, 0} {
		if out, err := sweep(s, cells, workers); !errors.Is(err, ErrUnknownProc) || out != nil {
			t.Errorf("workers=%d: sweep = %v, %v; want nil, ErrUnknownProc", workers, out, err)
		}
	}
}

// BenchmarkSingleFailureSweep compares the serial sweep engine with the
// bounded pool on the processor sweep's cells.
func BenchmarkSingleFailureSweep(b *testing.B) {
	s := sweepSchedule(b, 40, 4, 2003)
	cells := procCells(s)
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"workers2", 2},
		{"workers4", 4},
		{"gomaxprocs", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweep(s, cells, bench.workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
