// Command ftbench regenerates the paper's performance evaluation.
//
// Usage:
//
//	ftbench -experiment example          # Sect. 4.4 + Fig. 8 table
//	ftbench -experiment fig9             # overhead vs N (Figure 9)
//	ftbench -experiment fig10            # overhead vs CCR (Figure 10)
//	ftbench -experiment fig9 -topology bus   # the sweep on a shared bus
//	ftbench -experiment npf              # overhead vs Npf (Sect. 7)
//	ftbench -experiment sweepreuse       # warm (RunArena) vs cold solves
//	ftbench -experiment corpus           # scenario corpus floors + warm timing
//	ftbench -experiment corpus -json     # machine-readable (BENCH_*.json)
//	ftbench -experiment fig9 -graphs 60  # the paper's full 60-graph runs
//	ftbench -experiment fig10 -csv       # CSV series for plotting
//
// -json and -csv are refused by the experiments that do not emit them.
// The service and cluster load measurements live in benchmark/
// (workloads serve-mixed and cluster-hits); fault masking across
// topologies is measured by the scenario corpus (testdata/scenarios).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"ftbar/internal/bench"
	"ftbar/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
}

// jsonExperiments and csvExperiments are the experiments that honour
// -json and -csv.
var (
	jsonExperiments = []string{"sweepreuse", "corpus"}
	csvExperiments  = []string{"fig9", "fig10"}
)

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "example", "example | fig9 | fig10 | npf | sweepreuse | corpus")
	scenarios := fs.String("scenarios", "testdata/scenarios", "corpus experiment: scenario directory")
	graphs := fs.Int("graphs", 0, "random graphs per point (0 = the paper's default)")
	seed := fs.Int64("seed", 2003, "base seed")
	csv := fs.Bool("csv", false, "emit CSV instead of a table ("+strings.Join(csvExperiments, ", ")+")")
	jsonOut := fs.Bool("json", false, "emit JSON instead of a table ("+strings.Join(jsonExperiments, ", ")+")")
	topology := fs.String("topology", "full", "architecture shape for fig9/fig10: full | bus | ring | star | dualbus")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file after the experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && !slices.Contains(jsonExperiments, *experiment) {
		return fmt.Errorf("-json is not supported by experiment %q (only %s)",
			*experiment, strings.Join(jsonExperiments, ", "))
	}
	if *csv && !slices.Contains(csvExperiments, *experiment) {
		return fmt.Errorf("-csv is not supported by experiment %q (only %s)",
			*experiment, strings.Join(csvExperiments, ", "))
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	topo, err := gen.ParseTopology(*topology)
	if err != nil {
		return err
	}
	switch *experiment {
	case "example":
		rep, err := bench.Example()
		if err != nil {
			return err
		}
		return bench.RenderExample(out, rep)
	case "fig9":
		cfg := bench.DefaultFig9()
		cfg.Seed = *seed
		cfg.Topology = topo
		if *graphs > 0 {
			cfg.Graphs = *graphs
		}
		pts, err := bench.Fig9(cfg)
		if err != nil {
			return err
		}
		if *csv {
			return bench.RenderPointsCSV(out, "N", pts)
		}
		fmt.Fprintf(out, "Figure 9: overhead vs N (CCR=%g, P=%d, Npf=1, topology=%s, %d graphs/point)\n",
			cfg.CCR, cfg.Procs, cfg.Topology, cfg.Graphs)
		return bench.RenderPoints(out, "N", pts)
	case "fig10":
		cfg := bench.DefaultFig10()
		cfg.Seed = *seed
		cfg.Topology = topo
		if *graphs > 0 {
			cfg.Graphs = *graphs
		}
		pts, err := bench.Fig10(cfg)
		if err != nil {
			return err
		}
		if *csv {
			return bench.RenderPointsCSV(out, "CCR", pts)
		}
		fmt.Fprintf(out, "Figure 10: overhead vs CCR (N=%d, P=%d, Npf=1, topology=%s, %d graphs/point)\n",
			cfg.N, cfg.Procs, cfg.Topology, cfg.Graphs)
		return bench.RenderPoints(out, "CCR", pts)
	case "sweepreuse":
		cfg := bench.DefaultSweepReuse()
		cfg.Seed = *seed
		if *graphs > 0 {
			cfg.Graphs = *graphs
		}
		rep, err := bench.SweepReuse(cfg)
		if err != nil {
			return err
		}
		if *jsonOut {
			return bench.RenderSweepReuseJSON(out, rep)
		}
		fmt.Fprintf(out, "Sweep reuse: warm (RunArena) vs cold solves over derived-problem families (N=%d, P=%d, Npf=%d, %d graphs/cell)\n",
			cfg.Tasks, cfg.Procs, cfg.Npf, cfg.Graphs)
		return bench.RenderSweepReuse(out, rep)
	case "corpus":
		cfg := bench.DefaultCorpus()
		cfg.Dir = *scenarios
		rep, err := bench.Corpus(cfg)
		if err != nil {
			return err
		}
		if *jsonOut {
			err = bench.RenderCorpusJSON(out, rep)
		} else {
			fmt.Fprintf(out, "Corpus: %d scenarios from %s (floors + cold/warm timing)\n",
				len(rep.Cells), cfg.Dir)
			err = bench.RenderCorpus(out, rep)
		}
		if err != nil {
			return err
		}
		// Exit non-zero on violations so CI fails without parsing.
		if !rep.AllFloorsMet {
			return fmt.Errorf("corpus: floor violations")
		}
		return nil
	case "npf":
		cfg := bench.DefaultNpf()
		cfg.Seed = *seed
		if *graphs > 0 {
			cfg.Graphs = *graphs
		}
		pts, err := bench.NpfSweep(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "Npf sweep (N=%d, CCR=%g, P=%d, heterogeneity=%g, %d graphs/point)\n",
			cfg.N, cfg.CCR, cfg.Procs, cfg.Heterogeneity, cfg.Graphs)
		return bench.RenderNpf(out, pts)
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

// startProfiles starts a CPU profile and arranges a heap snapshot, either
// path may be empty. The returned stop runs after the experiment: deferred
// from run, it stops the CPU profile and writes the heap profile, warning
// on stderr rather than failing a finished experiment.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ftbench: cpuprofile:", err)
			}
		}
		if mem != "" {
			memF, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ftbench: memprofile:", err)
				return
			}
			runtime.GC() // settle accounting so the profile shows live heap
			if err := pprof.WriteHeapProfile(memF); err != nil {
				fmt.Fprintln(os.Stderr, "ftbench: memprofile:", err)
			}
			if err := memF.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "ftbench: memprofile:", err)
			}
		}
	}, nil
}
