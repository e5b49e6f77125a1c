package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean returns the geometric mean of the positive values of xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func share(hit, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var runtimeSamples = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() (live, allocs, cycles uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// window measures the process over the measured part of a run: CPU time,
// bytes allocated, GC cycles, and the live heap sampled every 50 ms.
type window struct {
	start         time.Time
	cpu0          time.Duration
	allocs0, gcs0 uint64
	stop, done    chan struct{}
	mu            sync.Mutex
	peakLive      uint64
}

func openWindow() *window {
	w := &window{stop: make(chan struct{}), done: make(chan struct{})}
	// Collect first, so the first sample is exactly the live heap set-up
	// left behind: the inputs and the running system.
	runtime.GC()
	live, allocs, gcs := readRuntime()
	w.peakLive, w.allocs0, w.gcs0 = live, allocs, gcs
	go func() {
		defer close(w.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				live, _, _ := readRuntime()
				w.mu.Lock()
				w.peakLive = max(w.peakLive, live)
				w.mu.Unlock()
			}
		}
	}()
	w.cpu0 = cpuTime()
	w.start = time.Now()
	return w
}

// windowResult is what a closed window measured, normalised per op.
type windowResult struct {
	elapsed         time.Duration
	cpuMsPerOp      float64
	heapPeakMB      float64
	allocBytesPerOp float64
	gcCyclesPerOp   float64
}

func (w *window) close(ops int) windowResult {
	elapsed := time.Since(w.start)
	cpu := cpuTime() - w.cpu0
	close(w.stop)
	<-w.done
	live, allocs, gcs := readRuntime()
	peak := max(w.peakLive, live)
	n := float64(max(ops, 1))
	return windowResult{
		elapsed:         elapsed,
		cpuMsPerOp:      ms(cpu) / n,
		heapPeakMB:      float64(peak) / (1 << 20),
		allocBytesPerOp: float64(allocs-w.allocs0) / n,
		gcCyclesPerOp:   float64(gcs-w.gcs0) / n,
	}
}

// timeSetup runs setup reps times, keeping the last result, and returns
// the median wall time. Earlier results are torn down with teardown, so
// each repetition starts from nothing, as a user's first run would.
func timeSetup[T any](reps int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for r := 0; r < reps; r++ {
		if r > 0 {
			teardown(last)
		}
		// Start every repetition from a collected heap, so one
		// repetition's garbage is not billed to the next.
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}
