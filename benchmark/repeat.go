package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchFileMetric is one metric entry of BENCHMARK.json.
type benchFileMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []benchFileMetric `json:"end_to_end"`
	PerLayer []benchFileMetric `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runOutput is the result line a run prints last.
type runOutput struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// runRepeat re-executes the untraced benchmark n times per workload in
// fresh processes, on seeds seed, seed+1, ..., then once traced on seed.
// For each end-to-end metric it prints the median, the quartiles (as
// Python's statistics.quantiles computes them), the spread — the
// interquartile range over the median — and FLAG when the spread exceeds
// the metric's bound in BENCHMARK.json; and the tracing overhead, the
// traced run's end-to-end value against the untraced median.
func runRepeat(n int, name string, seed int64, seconds float64, stdout, stderr io.Writer) int {
	bf, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	names := []string{name}
	if name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, wname := range names {
		if _, ok := findWorkload(wname); !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", wname)
			return 2
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			out, _, err := runChild(self, wname, seed+int64(i), seconds, 0)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s run %d: %v\n", wname, i+1, err)
				return 1
			}
			for k, m := range out.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		_, traced, err := runChild(self, wname, seed, seconds, 1)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s traced run: %v\n", wname, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %d untraced runs, seeds %d..%d, %g s each\n", wname, n, seed, seed+int64(n-1), seconds)
		fmt.Fprintf(stdout, "  %-18s %12s %12s %12s %8s %7s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "tracing overhead")
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			if len(xs) == 0 {
				fmt.Fprintf(stderr, "benchmark: %s printed no %s\n", wname, m.Name)
				return 1
			}
			med := median(append([]float64(nil), xs...))
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / med
			flag := ""
			if spread > m.Bound && m.Name != "setup_s" {
				flag = "  FLAG spread exceeds bound"
			}
			overhead := "n/a"
			if v, ok := traced[m.Name]; ok && med != 0 {
				overhead = fmt.Sprintf("%+.1f%%", (v-med)/med*100)
			}
			fmt.Fprintf(stdout, "  %-18s %12.6g %12.6g %12.6g %7.1f%% %6.0f%%  %s%s\n",
				m.Name, med, q1, q3, spread*100, m.Bound*100, overhead, flag)
		}
	}
	return 0
}

// runChild runs one benchmark process and returns its result line and,
// for a traced run, the end-to-end values it printed alongside.
func runChild(self, name string, seed int64, seconds float64, trace int) (*runOutput, map[string]float64, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if runErr != nil {
		return nil, nil, fmt.Errorf("%w; last output: %s", runErr, strings.Join(lines[max(0, len(lines)-3):], " | "))
	}
	var out runOutput
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	traced := map[string]float64{}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, tracedPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &traced); err != nil {
				return nil, nil, fmt.Errorf("traced end-to-end line: %w", err)
			}
		}
	}
	return &out, traced, nil
}

// tracedPrefix starts the line on which a traced run prints its own
// end-to-end values, for the tracing-overhead comparison.
const tracedPrefix = "traced end-to-end: "

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method).
func quartiles(xs []float64) (float64, float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
