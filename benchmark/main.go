// Command benchmark measures the ftbar pipeline end to end, and layer by
// layer, on four workloads:
//
//   - plan-cold: the `ftbar -spec` path, JSON problem to validated and
//     marshalled schedule, one caller in a closed loop;
//   - verify-sweep: plan, validate, the three crash sweeps and the
//     reschedule family through one run arena, one caller in a closed loop;
//   - serve-mixed: a standalone scheduling service over loopback HTTP,
//     open-loop arrivals mixing cache hits, warm-start variants and cold
//     solves;
//   - cluster-hits: the same load shape through a master and two
//     in-process workers, almost all cache hits.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload plan-cold --seed 2003 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, timed
// by spans the benchmark records around each layer call, and the spans
// are written as a Chrome trace-event file. --repeat N re-runs the
// untraced benchmark in N fresh processes and summarises the spread;
// --smoke runs every workload briefly. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"plan-cold", runPlanCold},
	{"verify-sweep", runVerifySweep},
	{"serve-mixed", runServeMixed},
	{"cluster-hits", runClusterHits},
}

// runConfig is everything a workload run needs.
type runConfig struct {
	seed     int64
	duration time.Duration
	tracer   *tracer // nil when untraced
	scale    scale
	// saturate sends the open-loop mix as fast as nproc senders can, to
	// measure the capacity the phase rates are calibrated against.
	saturate bool
	log      io.Writer
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	// mismatches lists outputs that disagreed with their check; any entry
	// makes the run incorrect.
	mismatches []string
	e2e        map[string]float64
	layer      map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// errInvalidPhase marks an open-loop phase whose generator ran too late
// for its latencies to mean anything; such a run reports no metrics.
var errInvalidPhase = errors.New("phase invalid")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 2003, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 records per-layer spans, prints the per-layer metrics and writes a Chrome trace")
	traceDir := fs.String("trace-dir", ".bench_build", "directory for Chrome trace files (trace-<workload>-<seed>.json)")
	repeat := fs.Int("repeat", 0, "re-run the untraced benchmark in N fresh processes per workload and summarise the spread")
	smoke := fs.Bool("smoke", false, "run every workload briefly, traced, and check the outputs")
	capacity := fs.Bool("capacity", false, "send an open-loop workload's mix back to back and print the capacity its rates are calibrated against")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: want --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	switch {
	case *smoke:
		return runSmoke(*seed, *traceDir, stdout, stderr)
	case *repeat > 0:
		return runRepeat(*repeat, *name, *seed, *seconds, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		scale:    fullScale,
		log:      stdout,
		saturate: *capacity,
	}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	return runOne(w, cfg, *traceDir, stdout, stderr)
}

// runOne runs one workload, prints its metrics, writes its trace, and
// returns the exit code: 0 when every output checked out.
func runOne(w workload, cfg runConfig, traceDir string, stdout, stderr io.Writer) int {
	printEnv(stdout, w.name, cfg)
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	values := res.e2e
	if cfg.tracer != nil {
		defs, values = perLayer, res.layer
		path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
		if err := writeTraceFile(path, cfg.tracer); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", len(cfg.tracer.spans), path)
	}
	for _, m := range res.mismatches {
		fmt.Fprintf(stdout, "MISMATCH %s\n", m)
	}
	out := runOutput{
		Correct:   res.failed == 0 && len(res.mismatches) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricJSON{},
	}
	fmt.Fprintf(stdout, "%s: attempted %d, failed %d\n", w.name, res.attempted, res.failed)
	if cfg.tracer != nil {
		// The traced run's own end-to-end values: set against an untraced
		// run they give the tracing overhead (--repeat prints it).
		e2e, err := json.Marshal(res.e2e)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s%s\n", tracedPrefix, e2e)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && cfg.tracer == nil {
			fmt.Fprintf(stderr, "benchmark: %s did not measure %s\n", w.name, d.name)
			return 1
		}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeTraceFile(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, tr.spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// printEnv prints the environment block a result has to be read against.
func printEnv(w io.Writer, name string, cfg runConfig) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %t\n",
		name, cfg.seed, cfg.duration.Seconds(), cfg.tracer != nil)
	fmt.Fprintf(w, "env: %s %s/%s GOMAXPROCS %d nproc %d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// runSmoke runs every workload briefly with tracing on, so the trace
// writer and every layer call are exercised, and fails on any mismatch.
func runSmoke(seed int64, traceDir string, stdout, stderr io.Writer) int {
	for _, w := range workloads {
		cfg := runConfig{seed: seed, duration: 700 * time.Millisecond, tracer: newTracer(), scale: smokeScale, log: stdout}
		if code := runOne(w, cfg, traceDir, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}
