package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/core"
	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/paperex"
	"ftbar/internal/sched"
	"ftbar/internal/spec"
)

// oracleTopos are the generated architectures the differential tests
// schedule on, with their processor counts.
var oracleTopos = []struct {
	topo  gen.Topology
	procs int
}{
	{gen.TopoFull, 4}, {gen.TopoRing, 6}, {gen.TopoDualBus, 4}, {gen.TopoMesh, 6},
	{gen.TopoTorus, 9}, {gen.TopoHypercube, 8}, {gen.TopoGeom, 8},
}

// oracleSchedules returns the paper example at {1,0} and {1,1} plus one
// generated schedule per topology and budget {1,0}, {1,1}, {2,1}, each
// named; problems the planner refuses are left out.
func oracleSchedules(tb testing.TB, n int) (names []string, out []*sched.Schedule) {
	tb.Helper()
	for _, b := range []spec.FaultModel{{Npf: 1}, {Npf: 1, Nmf: 1}} {
		p := paperex.Problem()
		p.SetFaults(b)
		res, err := core.Run(p, core.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, fmt.Sprintf("paper{%d,%d}", b.Npf, b.Nmf))
		out = append(out, res.Schedule)
	}
	for i, tp := range oracleTopos {
		for _, b := range []spec.FaultModel{{Npf: 1}, {Npf: 1, Nmf: 1}, {Npf: 2, Nmf: 1}} {
			p, err := gen.Generate(gen.Params{N: n, CCR: 1, Procs: tp.procs, Topology: tp.topo,
				Npf: b.Npf, Nmf: b.Nmf, Seed: int64(31 + i)})
			if err != nil {
				tb.Fatal(err)
			}
			res, err := core.Run(p, core.Options{})
			if err != nil {
				continue
			}
			names = append(names, fmt.Sprintf("%s{%d,%d}", tp.topo, b.Npf, b.Nmf))
			out = append(out, res.Schedule)
		}
	}
	if len(out) < 16 {
		tb.Fatalf("only %d schedules built", len(out))
	}
	return names, out
}

// randomScenario mixes permanent and intermittent processor and medium
// windows over the schedule's horizon, both detection modes and 1 to 3
// iterations.
func randomScenario(rng *rand.Rand, s *sched.Schedule) Scenario {
	a := s.Problem().Arc
	sc := Scenario{Detection: DetectionMode(rng.Intn(2)), Iterations: 1 + rng.Intn(3)}
	horizon := s.Length() * float64(sc.Iterations)
	window := func() (float64, float64) {
		at := rng.Float64() * horizon
		if rng.Intn(2) == 0 {
			return at, math.Inf(1)
		}
		return at, at + 1e-3 + rng.Float64()*horizon/3
	}
	for i := rng.Intn(3); i > 0; i-- {
		at, until := window()
		sc.Failures = append(sc.Failures, Failure{Proc: arch.ProcID(rng.Intn(a.NumProcs())), At: at, Until: until})
	}
	for i := rng.Intn(3); i > 0; i-- {
		at, until := window()
		sc.MediumFailures = append(sc.MediumFailures,
			MediumFailure{Medium: arch.MediumID(rng.Intn(a.NumMedia())), At: at, Until: until})
	}
	return sc
}

// sameError reports whether two errors are both nil or carry the same
// text and the same sentinel.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	for _, sentinel := range []error{ErrBadFailure, ErrBadIteration, ErrUnknownProc, ErrUnknownMedium, ErrStalled} {
		if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
			return false
		}
	}
	return got.Error() == want.Error()
}

// checkRunMatchesOracle runs one scenario on both executors and compares
// the error, every IterationResult field, every op completion and
// replica window, and the JSON document.
func checkRunMatchesOracle(t *testing.T, s *sched.Schedule, sc Scenario) {
	t.Helper()
	got, gotErr := Run(s, sc)
	want, wantErr := oracleRun(s, sc)
	if !sameError(gotErr, wantErr) {
		t.Fatalf("scenario %+v: err = %v, oracle %v", sc, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario %+v: result diverges\n got:    %+v\n oracle: %+v", sc, got, want)
	}
	tg := s.Tasks()
	for k := range want.Iterations {
		g, w := &got.Iterations[k], &want.Iterations[k]
		for op := 0; op < s.Problem().Alg.NumOps(); op++ {
			if a, b := g.OpCompletion(model.OpID(op)), w.OpCompletion(model.OpID(op)); a != b {
				t.Fatalf("scenario %+v iteration %d: op %d completes at %g, oracle %g", sc, k, op, a, b)
			}
		}
		for task := 0; task < tg.NumTasks(); task++ {
			for _, r := range s.Replicas(model.TaskID(task)) {
				gs, ge, gok := g.ReplicaWindow(r.Task, r.Index)
				ws, we, wok := w.ReplicaWindow(r.Task, r.Index)
				if gs != ws || ge != we || gok != wok {
					t.Fatalf("scenario %+v iteration %d: replica %d#%d window (%g,%g,%v), oracle (%g,%g,%v)",
						sc, k, r.Task, r.Index, gs, ge, gok, ws, we, wok)
				}
			}
		}
	}
	gj, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wj, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("scenario %+v: JSON diverges\n got:    %s\n oracle: %s", sc, gj, wj)
	}
}

// TestExecutorMatchesOracle pins the flat executor to the map-keyed one
// it replaced: random scenarios through Run, the three sweeps' cells
// through the sweep engine, every crash set at time 0 through
// CrashSetsMasked, the error values of invalid scenarios and cells, and
// one processor stuck across iterations.
func TestExecutorMatchesOracle(t *testing.T) {
	// The 16-task layered ring8 {1,0} seed-2 schedule with P4 dead from
	// the start, over two iterations: both copies of op009→op012 into
	// op012#0 on P3 relay through P4, so iteration 0 masks the crash and
	// P3, stuck on that receive, runs nothing in iteration 1. A stuck
	// processor carries across items and iterations.
	p, err := gen.Generate(gen.Params{N: 16, CCR: 1, Procs: 8, Topology: gen.TopoRing, Npf: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p4, _ := p.Arc.ProcByName("P4")
	stuck := Scenario{Iterations: 2, Failures: []Failure{Permanent(p4.ID, 0)}}
	checkRunMatchesOracle(t, res.Schedule, stuck)
	if got, err := Run(res.Schedule, stuck); err != nil || !got.Iterations[0].OutputsOK || got.Iterations[1].OutputsOK {
		t.Fatalf("ring8 {1,0} seed 2, P4 dead: %+v, %v; want outputs in iteration 0 only", got, err)
	}

	names, schedules := oracleSchedules(t, 10)
	for si, s := range schedules {
		a := s.Problem().Arc
		rng := rand.New(rand.NewSource(int64(si)))
		for i := 0; i < 40; i++ {
			checkRunMatchesOracle(t, s, randomScenario(rng, s))
		}
		for _, sc := range []Scenario{
			{},
			{Iterations: -1},
			{Failures: []Failure{Permanent(arch.ProcID(a.NumProcs()), 0)}},
			{MediumFailures: []MediumFailure{PermanentLink(arch.MediumID(a.NumMedia()), 1)}},
			{Failures: []Failure{Permanent(0, 1), Intermittent(1, 2, math.NaN())}},
			{MediumFailures: []MediumFailure{IntermittentLink(0, 3, 3)}},
		} {
			checkRunMatchesOracle(t, s, sc)
		}

		if !reflect.DeepEqual(combinedCells(s), oracleCombinedCells(s)) {
			t.Fatalf("%s: combined cells diverge from the oracle's", names[si])
		}
		for _, cells := range [][]crashCell{procCells(s), linkCells(s), strided(combinedCells(s), 1000)} {
			want, wantErr := oracleSweep(s, cells, 1)
			for _, workers := range []int{1, 0} {
				got, err := sweep(s, cells, workers)
				if !sameError(err, wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s workers=%d: sweep diverges from the oracle\n got:    %+v %v\n oracle: %+v %v",
						names[si], workers, got, err, want, wantErr)
				}
			}
		}
		// Serial sweeps fail on the first bad probe in job order.
		for _, bad := range []crashCell{
			{procs: []arch.ProcID{0, arch.ProcID(a.NumProcs())}, probes: []float64{0, 1}},
			{procs: []arch.ProcID{0}, media: []arch.MediumID{-1}, probes: []float64{2}},
			{procs: []arch.ProcID{1}, media: []arch.MediumID{0}, probes: []float64{1, -1}},
			{media: []arch.MediumID{0}, probes: []float64{math.NaN()}},
		} {
			cells := append(linkCells(s), bad)
			got, err := sweep(s, cells, 1)
			want, wantErr := oracleSweep(s, cells, 1)
			if wantErr == nil || !sameError(err, wantErr) || got != nil || want != nil {
				t.Fatalf("%s: bad cell %+v: sweep = %v, oracle %v", names[si], bad, err, wantErr)
			}
		}

		nU := a.NumProcs() + a.NumMedia()
		if nU > 10 {
			continue
		}
		units := func(mask int, procs []arch.ProcID, media []arch.MediumID) ([]arch.ProcID, []arch.MediumID) {
			for u := 0; u < nU; u++ {
				switch {
				case mask&(1<<u) == 0:
				case u < a.NumProcs():
					procs = append(procs, arch.ProcID(u))
				default:
					media = append(media, arch.MediumID(u-a.NumProcs()))
				}
			}
			return procs, media
		}
		masked, err := CrashSetsMasked(s, 1<<nU, units)
		if err != nil {
			t.Fatal(err)
		}
		for mask := range masked {
			procs, media := units(mask, nil, nil)
			res, err := oracleRun(s, crashScenario(procs, media, 0))
			if err != nil {
				t.Fatal(err)
			}
			if masked[mask] != res.Iterations[0].OutputsOK {
				t.Fatalf("%s: crash set %v %v masked %v, oracle %v",
					names[si], procs, media, masked[mask], res.Iterations[0].OutputsOK)
			}
		}
	}
}

// TestUnorderedWiringStalls pins the deadlock guard: a wiring with no
// dependency order — a hop-0 comm whose sender is missing, or a delivery
// whose comm reads the replica it feeds — stalls every iteration with
// ErrStalled instead of indexing past the plan.
func TestUnorderedWiringStalls(t *testing.T) {
	s := paperSchedule(t)
	for _, corrupt := range []func(ix *sched.DeliveryIndex, c int){
		func(ix *sched.DeliveryIndex, c int) { ix.Sender[c] = -1 },
		func(ix *sched.DeliveryIndex, c int) {
			comm := ix.Comms[c]
			ix.Sender[c] = ix.RepStart[s.Tasks().Edge(comm.Edge).Dst] + int32(comm.DstIndex)
		},
	} {
		pl := newPlan(s)
		c := slices.IndexFunc(pl.comms, func(pc planComm) bool { return pc.direct })
		corrupt(pl.ix, c)
		if pl.order = pl.ix.Order(); pl.order != nil {
			t.Fatalf("corrupted comm %d: the wiring still has an order", c)
		}
		st := pl.newState()
		st.reset(DetectionNone)
		if err := st.iterate(0); !errors.Is(err, ErrStalled) {
			t.Fatalf("corrupted comm %d: iterate = %v, want ErrStalled", c, err)
		}
	}
}

// strided keeps every k-th cell, k chosen to keep about limit probes, so
// the oracle's share of the test stays small on the {2,1} grids of the
// larger topologies.
func strided(cells []crashCell, limit int) []crashCell {
	total := 0
	for _, c := range cells {
		total += len(c.probes)
	}
	k := total/limit + 1
	var out []crashCell
	for i := 0; i < len(cells); i += k {
		out = append(out, cells[i])
	}
	return out
}

// TestCrashSetsMaskedRejectsUnknownUnits pins the evaluation's error
// path: an out-of-range unit fails with Validate's error value.
func TestCrashSetsMaskedRejectsUnknownUnits(t *testing.T) {
	s := paperSchedule(t)
	_, err := CrashSetsMasked(s, 4, func(i int, procs []arch.ProcID, media []arch.MediumID) ([]arch.ProcID, []arch.MediumID) {
		if i == 3 {
			media = append(media, 7)
		}
		return procs, media
	})
	want := crashScenario(nil, []arch.MediumID{7}, 0).Validate(s.Problem().Arc)
	if !errors.Is(err, ErrUnknownMedium) || err.Error() != want.Error() {
		t.Errorf("err = %v, want %v", err, want)
	}
}

var fuzzSchedules struct {
	once sync.Once
	list []*sched.Schedule
}

// FuzzSimulate decodes the input into a scenario on one of three fixed
// schedules — the paper example at {1,0} and {1,1} and a relayed {1,1}
// ring — and checks the executor against the oracle. Byte 0 picks the
// schedule, byte 1 the detection mode and iteration count (-1 to 3);
// every further 4 bytes add one window: kind (processor or medium,
// permanent or intermittent), unit (one past the last id is unknown),
// start and length, with reserved start bytes for a negative and a NaN
// instant.
func FuzzSimulate(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 2},
		{1, 3, 0, 1, 40, 0},
		{2, 4, 1, 2, 10, 30, 2, 5, 90, 0, 3, 0, 20, 60},
		{2, 1, 0, 3, 251, 0, 1, 0, 252, 9},
		{0, 0, 1, 0, 5, 0},
		{1, 5, 3, 1, 0, 255, 0, 0, 100, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzSchedules.once.Do(func() {
			for _, fm := range []spec.FaultModel{{Npf: 1}, {Npf: 1, Nmf: 1}} {
				paper := paperex.Problem()
				paper.SetFaults(fm)
				res, err := core.Run(paper, core.Options{})
				if err != nil {
					panic(err)
				}
				fuzzSchedules.list = append(fuzzSchedules.list, res.Schedule)
			}
			p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 6, Topology: gen.TopoRing, Npf: 1, Nmf: 1, Seed: 5})
			if err != nil {
				panic(err)
			}
			res, err := core.Run(p, core.Options{})
			if err != nil {
				panic(err)
			}
			fuzzSchedules.list = append(fuzzSchedules.list, res.Schedule)
		})
		if len(data) < 2 {
			return
		}
		s := fuzzSchedules.list[int(data[0])%len(fuzzSchedules.list)]
		checkRunMatchesOracle(t, s, decodeScenario(data[1:], s))
	})
}

// decodeScenario is FuzzSimulate's byte format; at most eight windows.
func decodeScenario(data []byte, s *sched.Schedule) Scenario {
	a := s.Problem().Arc
	sc := Scenario{Detection: DetectionMode(data[0] & 1), Iterations: int(data[0]>>1)%5 - 1}
	horizon := s.Length() * 3
	for w := data[1:]; len(w) >= 4 && len(sc.Failures)+len(sc.MediumFailures) < 8; w = w[4:] {
		var at float64
		switch w[2] {
		case 251:
			at = -1
		case 252:
			at = math.NaN()
		default:
			at = float64(w[2]) / 250 * horizon
		}
		until := math.Inf(1)
		if w[0]&1 != 0 {
			until = at + float64(w[3])/255*horizon/3
		}
		if w[0]&2 == 0 {
			sc.Failures = append(sc.Failures, Failure{Proc: arch.ProcID(int(w[1]) % (a.NumProcs() + 1)), At: at, Until: until})
		} else {
			sc.MediumFailures = append(sc.MediumFailures,
				MediumFailure{Medium: arch.MediumID(int(w[1]) % (a.NumMedia() + 1)), At: at, Until: until})
		}
	}
	return sc
}

// TestSweepAllocs gates the sweep engine's allocation per scenario: a
// serial combined sweep of a 16-task {1,1} schedule on each of the six
// verify-sweep topologies, cells and plan included, allocates at most one
// object and 512 bytes per simulated scenario.
func TestSweepAllocs(t *testing.T) {
	for i, tp := range []struct {
		topo  gen.Topology
		procs int
	}{
		{gen.TopoGeom, 8}, {gen.TopoRing, 8}, {gen.TopoTorus, 9},
		{gen.TopoMesh, 9}, {gen.TopoHypercube, 8}, {gen.TopoDualBus, 6},
	} {
		p, err := gen.Generate(gen.Params{N: 16, CCR: 1, Procs: tp.procs, Topology: tp.topo,
			Npf: 1, Nmf: 1, Seed: int64(2003 + i)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(p, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tp.topo, err)
		}
		s := res.Schedule
		scenarios := 0
		for _, c := range combinedCells(s) {
			scenarios += len(c.probes)
		}
		run := func() {
			if _, err := sweep(s, combinedCells(s), 1); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the schedule's materialised view
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < runs; r++ {
			run()
		}
		runtime.ReadMemStats(&after)
		objs := float64(after.Mallocs-before.Mallocs) / float64(runs*scenarios)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*scenarios)
		t.Logf("%s: %d scenarios, %.3f objects and %.0f B per scenario", tp.topo, scenarios, objs, bytes)
		if objs > 1 || bytes > 512 {
			t.Errorf("%s: %.3f objects and %.0f B per scenario, gate 1 and 512", tp.topo, objs, bytes)
		}
	}
}
