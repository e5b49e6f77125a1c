package core

// Differential suite for the cross-run reuse layer (DESIGN.md Section
// 15): every arena run — full replay or a cold run on a recycled slab —
// must be bit-identical to the cold run on the same problem. The property
// is exercised on the paper's worked example and seeded problems across
// every topology and fault budget, over the whole Derive mutation family,
// plus the mid-replay stale-log fallback and the
// zero-allocs-per-replayed-decision gate.

import (
	"fmt"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/paperex"
	"ftbar/internal/spec"
)

// assertWarmMatchesCold compares a reuse-layer result against a fresh
// cold Run of the same problem: identical decision log, length, replica
// profile and Rtc verdict, and a schedule that passes full validation.
func assertWarmMatchesCold(t *testing.T, p *spec.Problem, opts Options, warm *Result, label string) {
	t.Helper()
	cold, err := Run(p, opts)
	if err != nil {
		t.Fatalf("%s: cold run failed where the arena run succeeded: %v", label, err)
	}
	assertSameSteps(t, cold.Steps, warm.Steps)
	if cl, wl := cold.Schedule.Length(), warm.Schedule.Length(); cl != wl {
		t.Errorf("%s: schedule length: cold %g, warm %g", label, cl, wl)
	}
	if cold.ExtraReplicas != warm.ExtraReplicas {
		t.Errorf("%s: extra replicas: cold %d, warm %d", label, cold.ExtraReplicas, warm.ExtraReplicas)
	}
	if cold.MeetsRtc != warm.MeetsRtc {
		t.Errorf("%s: rtc verdict: cold %t, warm %t", label, cold.MeetsRtc, warm.MeetsRtc)
	}
	for task := 0; task < cold.Schedule.Tasks().NumTasks(); task++ {
		if c, w := cold.Schedule.NumReplicas(model.TaskID(task)), warm.Schedule.NumReplicas(model.TaskID(task)); c != w {
			t.Errorf("%s: task %d replica count: cold %d, warm %d", label, task, c, w)
		}
	}
	// Every emitted schedule must pass full validation. The planner
	// refuses placements whose deliveries cannot meet the medium budget
	// (sched.ErrNoDisjointDelivery), so a diversity-violating schedule can
	// no longer be produced — a run either validates or errors out.
	if cv := cold.Schedule.Validate(); cv != nil {
		t.Errorf("%s: cold schedule fails validation: %v", label, cv)
	}
	if wv := warm.Schedule.Validate(); wv != nil {
		t.Errorf("%s: warm schedule fails validation: %v", label, wv)
	}
}

// arenaCase is one base problem of the differential suite.
type arenaCase struct {
	name string
	make func() (*spec.Problem, error)
}

func arenaCases() []arenaCase {
	cases := []arenaCase{
		{"paper", func() (*spec.Problem, error) { return paperex.Problem(), nil }},
	}
	for _, topo := range []gen.Topology{gen.TopoFull, gen.TopoBus, gen.TopoRing, gen.TopoStar, gen.TopoDualBus} {
		for _, b := range []struct{ npf, nmf int }{{0, 0}, {1, 0}, {1, 1}} {
			topo, b := topo, b
			cases = append(cases, arenaCase{
				name: fmt.Sprintf("%s_npf%d_nmf%d", topo, b.npf, b.nmf),
				make: func() (*spec.Problem, error) {
					return gen.Generate(gen.Params{
						N: 14, CCR: 2, Procs: 4, Topology: topo,
						Npf: b.npf, Nmf: b.nmf, Seed: 41,
					})
				},
			})
		}
	}
	return cases
}

// TestArenaWarmBitIdentical: across every topology, fault budget and
// Derive mutation, the arena's result is bit-identical to a cold run.
func TestArenaWarmBitIdentical(t *testing.T) {
	for _, tc := range arenaCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.make()
			if err != nil {
				t.Skipf("problem not generable: %v", err)
			}
			opts := Options{}
			a := NewRunArena(8)

			base, err := a.Run(p, opts)
			if err != nil {
				if _, cerr := Run(p, opts); cerr == nil {
					t.Fatalf("arena cold run failed but plain run succeeded: %v", err)
				}
				t.Skipf("problem unschedulable: %v", err)
			}
			if base.Planner.WarmStarts != 0 {
				t.Errorf("first run claims a warm start")
			}
			assertWarmMatchesCold(t, p, opts, base, "cold")
			nSteps := len(base.Steps)
			baseLen := base.Schedule.Length()
			a.Recycle(base.Schedule)

			// Identical derivation: full replay of the whole log.
			c, d, err := p.Derive(spec.Mutation{Kind: spec.MutIdentical})
			if err != nil {
				t.Fatalf("identical Derive: %v", err)
			}
			w, err := a.RunDerived(c, d, opts)
			if err != nil {
				t.Fatalf("identical warm run: %v", err)
			}
			if w.Planner.WarmStarts != 1 || w.Planner.ReplayedDecisions != nSteps {
				t.Errorf("identical: warm=%d replayed=%d, want 1 and %d",
					w.Planner.WarmStarts, w.Planner.ReplayedDecisions, nSteps)
			}
			assertWarmMatchesCold(t, c, opts, w, "identical")
			a.Recycle(w.Schedule)

			// Rtc derivation: the log still replays in full; only the
			// post-hoc deadline check differs. A deadline below the cold
			// length must come back violated on both paths.
			c, d, err = p.Derive(spec.Mutation{Kind: spec.MutRtc, Rtc: spec.Rtc{Deadline: baseLen / 2}})
			if err != nil {
				t.Fatalf("rtc Derive: %v", err)
			}
			w, err = a.RunDerived(c, d, opts)
			if err != nil {
				t.Fatalf("rtc warm run: %v", err)
			}
			if w.Planner.WarmStarts != 1 || w.Planner.ReplayedDecisions != nSteps {
				t.Errorf("rtc: warm=%d replayed=%d, want 1 and %d",
					w.Planner.WarmStarts, w.Planner.ReplayedDecisions, nSteps)
			}
			if w.MeetsRtc {
				t.Errorf("rtc: a deadline of half the schedule length cannot be met")
			}
			assertWarmMatchesCold(t, c, opts, w, "rtc")
			a.Recycle(w.Schedule)

			// Forbid-medium derivations: a cold run on a recycled slab,
			// identical to a plain one. Try every medium that leaves a
			// valid problem.
			for m := 0; m < p.Arc.NumMedia(); m++ {
				c, d, err = p.Derive(spec.Mutation{Kind: spec.MutForbidMedium, Medium: arch.MediumID(m)})
				if err != nil {
					continue // the architecture cannot lose this medium
				}
				w, err = a.RunDerived(c, d, opts)
				if err != nil {
					if _, cerr := Run(c, opts); cerr == nil {
						t.Fatalf("medium %d: arena failed but cold run succeeded: %v", m, err)
					}
					continue
				}
				assertWarmMatchesCold(t, c, opts, w, fmt.Sprintf("forbid-medium-%d", m))
				a.Recycle(w.Schedule)
			}

			// Crash-proc derivations: the honest no-replay case — slab
			// reuse only, never a warm start.
			for q := 0; q < p.Arc.NumProcs(); q++ {
				c, d, err = p.Derive(spec.Mutation{Kind: spec.MutCrashProc, Proc: arch.ProcID(q)})
				if err != nil {
					continue // distribution constraints pin work to this proc
				}
				w, err = a.RunDerived(c, d, opts)
				if err != nil {
					if _, cerr := Run(c, opts); cerr == nil {
						t.Fatalf("crash %d: arena failed but cold run succeeded: %v", q, err)
					}
					continue
				}
				if w.Planner.WarmStarts != 0 {
					t.Errorf("crash %d: crash-proc must never replay (MeanTime tails shift)", q)
				}
				assertWarmMatchesCold(t, c, opts, w, fmt.Sprintf("crash-proc-%d", q))
				a.Recycle(w.Schedule)
			}
		})
	}
}

// TestArenaDiffPath: a problem submitted without its Delta (the service
// wire path) is recognised by content diffing against recent records and
// warm-starts all the same.
func TestArenaDiffPath(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 16, CCR: 1.5, Procs: 4, Npf: 1, Seed: 23})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts := Options{}
	a := NewRunArena(8)
	base, err := a.Run(p, opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	nSteps := len(base.Steps)
	deadline := base.Schedule.Length() * 2
	a.Recycle(base.Schedule)

	child, _, err := p.Derive(spec.Mutation{Kind: spec.MutRtc, Rtc: spec.Rtc{Deadline: deadline}})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	w, err := a.Run(child, opts) // no Delta: must be rediscovered by Diff
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if w.Planner.WarmStarts != 1 || w.Planner.ReplayedDecisions != nSteps {
		t.Errorf("diff path: warm=%d replayed=%d, want 1 and %d",
			w.Planner.WarmStarts, w.Planner.ReplayedDecisions, nSteps)
	}
	if !w.MeetsRtc {
		t.Errorf("a deadline of twice the length must be met")
	}
	assertWarmMatchesCold(t, child, opts, w, "diff-path")
}

// TestArenaStaleLogFallback: a record whose placement log no longer
// verifies is abandoned mid-replay; the run restarts cold on the salvaged
// slab, produces the bit-identical cold result, counts the fallback, and
// replaces the stale record so the next run replays cleanly.
func TestArenaStaleLogFallback(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 16, CCR: 1.5, Procs: 4, Npf: 1, Seed: 29})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts := Options{}
	a := NewRunArena(4)
	base, err := a.Run(p, opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	a.Recycle(base.Schedule)

	a.mu.Lock()
	rec := a.recs[0]
	a.mu.Unlock()
	// Corrupt a placement in the middle of the log: the replay must get
	// partway in before the verification trips.
	rec.Places[len(rec.Places)/2].Start += 0.125

	w, err := a.Run(p, opts)
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if w.Planner.ReplayFallbacks != 1 {
		t.Errorf("replay fallbacks = %d, want 1", w.Planner.ReplayFallbacks)
	}
	if w.Planner.WarmStarts != 0 || w.Planner.ReplayedDecisions != 0 {
		t.Errorf("an abandoned replay must not count as a warm start (got warm=%d replayed=%d)",
			w.Planner.WarmStarts, w.Planner.ReplayedDecisions)
	}
	assertWarmMatchesCold(t, p, opts, w, "stale-fallback")
	a.Recycle(w.Schedule)

	// The fallback's own record replaced the stale one.
	w2, err := a.Run(p, opts)
	if err != nil {
		t.Fatalf("post-fallback run: %v", err)
	}
	if w2.Planner.WarmStarts != 1 || w2.Planner.ReplayFallbacks != 0 {
		t.Errorf("post-fallback run: warm=%d fallbacks=%d, want 1 and 0",
			w2.Planner.WarmStarts, w2.Planner.ReplayFallbacks)
	}
	assertWarmMatchesCold(t, p, opts, w2, "post-fallback")
}

// TestArenaRecordsRoundTrip: exported records survive an import into a
// fresh arena and warm-start it immediately.
func TestArenaRecordsRoundTrip(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 14, CCR: 1, Procs: 4, Npf: 1, Seed: 31})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts := Options{}
	a := NewRunArena(4)
	base, err := a.Run(p, opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	a.Recycle(base.Schedule)

	recs := a.ExportRecords()
	if len(recs) != 1 {
		t.Fatalf("exported %d records, want 1", len(recs))
	}
	b := NewRunArena(4)
	if n := b.ImportRecords(recs); n != 1 {
		t.Fatalf("imported %d records, want 1", n)
	}
	w, err := b.Run(p, opts)
	if err != nil {
		t.Fatalf("warm run on imported record: %v", err)
	}
	if w.Planner.WarmStarts != 1 {
		t.Errorf("imported record did not warm-start (warm=%d)", w.Planner.WarmStarts)
	}
	assertWarmMatchesCold(t, p, opts, w, "imported")
}

// TestWarmReplayAllocs: the full-replay path allocates a small constant,
// not per replayed decision — the CI alloc gate (0 allocs per decision,
// amortised) rides on this.
func TestWarmReplayAllocs(t *testing.T) {
	p, err := gen.Generate(gen.Params{N: 60, CCR: 1, Procs: 4, Npf: 1, Seed: 11})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	opts := Options{}
	a := NewRunArena(4)
	base, err := a.Run(p, opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	decisions := len(base.Steps)
	if decisions < 50 {
		t.Fatalf("want at least 50 decisions to make the gate meaningful, got %d", decisions)
	}
	a.Recycle(base.Schedule)

	allocs := testing.AllocsPerRun(50, func() {
		res, rerr := a.Run(p, opts)
		if rerr != nil {
			t.Fatalf("warm run: %v", rerr)
		}
		if res.Planner.WarmStarts != 1 {
			t.Fatal("run was not a full replay")
		}
		a.Recycle(res.Schedule)
	})
	t.Logf("full replay of %d decisions: %.1f allocs/run", decisions, allocs)
	if allocs >= float64(decisions) {
		t.Errorf("replay allocates per decision: %.1f allocs for %d decisions", allocs, decisions)
	}
	if allocs > 32 {
		t.Errorf("replay allocates %.1f per run, want a small constant (<= 32)", allocs)
	}
}

// BenchmarkRunWarmVsCold: the headline number — a full cold search
// against an arena full replay of the same problem.
func BenchmarkRunWarmVsCold(b *testing.B) {
	p, err := gen.Generate(gen.Params{N: 40, CCR: 2, Procs: 4, Npf: 1, Seed: 5})
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	opts := Options{}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(p, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		a := NewRunArena(4)
		res, err := a.Run(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		a.Recycle(res.Schedule)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := a.Run(p, opts)
			if err != nil {
				b.Fatal(err)
			}
			a.Recycle(res.Schedule)
		}
	})
}

// TestOptionsKeyFormatPinned pins the record-store key byte for byte.
// Persisted v3 arena snapshots and drain handoffs key their records on
// these exact bytes (the retained "legacy=false" literal included), so a
// format change must fail here rather than silently cold-start every
// restored record.
func TestOptionsKeyFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{}, "nodup=false|tails=false|legacy=false"},
		{Options{NoDuplication: true, TailsWithComms: true}, "nodup=true|tails=true|legacy=false"},
	} {
		if got := optionsKey(tc.opts); got != tc.want {
			t.Errorf("optionsKey(%+v) = %q, want %q", tc.opts, got, tc.want)
		}
	}
}
