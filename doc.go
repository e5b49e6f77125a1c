// Package ftbar is a Go implementation of FTBAR — the Fault-Tolerance
// Based Active Replication scheduling heuristic of Girault, Kalla,
// Sighireanu and Sorel, "An Algorithm for Automatically Obtaining
// Distributed and Fault-Tolerant Static Schedules" (DSN 2003).
//
// Given an algorithm modelled as a data-flow graph (Alg), a distributed
// target architecture of processors and communication media (Arc),
// distribution constraints and heterogeneous execution/communication time
// tables (Exe/Dis), real-time constraints (Rtc) and a number Npf of
// fail-silent processor failures to tolerate, FTBAR produces a static
// distributed schedule in which
//
//   - every operation is actively replicated on at least Npf+1 distinct
//     processors,
//   - every inter-processor data-dependency is replicated on parallel
//     communication media,
//   - each replica starts as soon as its first complete input set arrives
//     and ignores later duplicates,
//
// so that up to Npf processor crashes are masked without timeouts and
// without any failure-detection mechanism, and the completion date of the
// schedule — with or without failures — is known before execution.
//
// # Quick start
//
//	g := ftbar.NewGraph()
//	in := g.MustAddOp("sensor", ftbar.ExtIO)
//	f := g.MustAddOp("filter", ftbar.Comp)
//	out := g.MustAddOp("actuator", ftbar.ExtIO)
//	g.MustAddEdge(in, f)
//	g.MustAddEdge(f, out)
//
//	arc := ftbar.FullyConnected(3)
//	exe, _ := ftbar.NewUniformExecTable(g, arc, 1.0)
//	com, _ := ftbar.NewUniformCommTable(g, arc, 0.5)
//	p := &ftbar.Problem{Alg: g, Arc: arc, Exec: exe, Comm: com, Npf: 1}
//
//	res, err := ftbar.Run(p, ftbar.Options{})
//	// res.Schedule masks any single processor crash.
//
// # Scheduling engine
//
// Run schedules with the incremental engine: it maintains an indegree
// ready queue, caches schedule pressures per (task, processor) until a
// predecessor gains a replica or a busy-end the preview read grows past
// its threshold, previews only the cold pairs of the
// candidates its screen cannot rule out, and undoes speculative
// duplications with in-place checkpoints. One run plans on one
// goroutine; independent runs may proceed in parallel.
// It is the only engine. The seed's reference implementation, which
// redoes every step from scratch, lives in the core package's tests as
// the oracle of the differential suite, which enforces bit-identical
// decision logs between the two.
//
// # Unified fault model: processor and link failures
//
// The fault budget generalises to FaultModel{Npf, Nmf}: beyond the Npf
// processor crashes, the schedule masks Nmf fail-silent medium (link or
// bus) failures. The spec validator requires Nmf+1 disjoint routes
// towards every receiver, the planner spreads the Npf+1 copies of each
// dependency over media not already carrying one, and Schedule.Validate
// rejects any schedule whose deliveries share a single point of failure
// (DESIGN.md Section 10). SingleLinkFailureSweep and
// CombinedFailureSweep verify the masking empirically, one iteration per
// crash scenario: a crash masked there can still lose outputs in a later
// iteration, because a processor stuck on a branch that feeds no output
// runs nothing more (Simulate over several iterations shows it); the scenario
// corpus (testdata/scenarios, `ftbench -experiment corpus`) measures
// the masked fractions per topology:
//
//	p.SetFaults(ftbar.FaultModel{Npf: 1, Nmf: 1})
//	res, _ := ftbar.Run(p, ftbar.Options{})
//	// res.Schedule masks any single processor crash AND any single
//	// link crash (res.Schedule.Validate() confirms the guarantee).
//
// Problem.Npf remains as a deprecation shim for processor-only budgets;
// cmd flags (-nmf on ftgen, ftbar, ftsim) and the service wire types
// carry the unified budget, and legacy npf-only JSON documents keep
// loading unchanged.
//
// # Combined processor+link masking and joint reliability
//
// Under a combined budget the planner additionally decorrelates chain
// survival from replica survival (DESIGN.md Section 12): the disjoint
// fan charges relay hops on processors hosting replicas of the
// delivery's endpoint tasks, and the Npf+1 replica pick prefers
// crash-separated processor sets — sets no single in-budget
// (processor, medium) crash can wipe out or strand (on a ring:
// non-adjacent pairs). Schedule.ValidateJoint checks the relays per
// delivery: no crash of at most Npf relay processors plus Nmf media
// disables every delivery chain (exact up to 16 chains, sound greedy
// beyond; void at Nmf = 0). Its attacks leave out sender and receiver
// processors, so passing it does not certify combined masking: on
// dualbus4 {1,1} all 40 planned schedules of one probe pass it, yet 37
// lose outputs under some (processor, medium) crash at time 0
// (DESIGN.md Section 12). CombinedFailureSweep measures the full grid —
// every processor subset up to Npf, every medium, every decisive crash
// instant — with worker-invariant reports. Every sweep indexes the
// schedule once and runs each crash scenario on reusable per-worker
// state, a few microseconds per scenario on a 2-vCPU VM, so the whole
// corpus suite (go test ./internal/harness) takes seconds; the sim
// package's TestSweepAllocs gates the allocations per scenario and
// FuzzSimulate checks the executor against its map-keyed reference.
// The corpus records each scenario's certificate rate beside its masked
// fractions; its ring4-layered-11-n20 scenario masks the entire grid at
// {Npf=1, Nmf=1}.
// With Nmf = 0 neither extension is consulted.
//
// Reliability — the second extension the paper's conclusion announces —
// is evaluated over the joint (processor, medium) crash lattice:
//
//	m := ftbar.UniformJointReliabilityModel(nProcs, nMedia, 0.01, 0.01)
//	rep, _ := ftbar.JointReliability(res.Schedule, m, ftbar.ReliabilityOptions{})
//	// rep.MaskedLattice[i][j] is the masked fraction with i processors
//	// and j media down; rep.GuaranteedNpf/GuaranteedNmf the certified axes.
//
// Evaluation is exact (every crash subset simulated) while processors
// plus modelled media fit ~20 units, and a seeded Monte-Carlo estimate
// with a 95% confidence interval beyond (Report.Method says which;
// ftbar -reliab, ftsim -reliability/-linkreliability/-combinedsweep
// expose it on the command line).
//
// # Scheduling service
//
// NewService wraps the engine in a concurrent scheduling service: a
// bounded worker pool behind a bounded request queue (backpressure:
// overflowing submissions are rejected, HTTP 429), with a
// content-addressed LRU cache keyed on a canonical hash of
// (problem, options) so repeated and coalesced requests are served from
// memory without running the scheduler. Service.Handler exposes the
// HTTP/JSON surface — schedule, batch, Npf-sweep, stats and health
// endpoints — that the long-running cmd/ftserved binary serves:
//
//	svc := ftbar.NewService(ftbar.ServiceConfig{})
//	defer svc.Close()
//	reply, _ := svc.Schedule(ctx, &ftbar.ScheduleRequest{Problem: p})
//	// reply.Cached reports whether the scheduler actually ran.
//
// Load against the service is measured by the end-to-end benchmark in
// benchmark/ (workloads serve-mixed and cluster-hits); the architecture
// is DESIGN.md Section 9.
//
// The packages under internal implement the substrates: the algorithm and
// architecture models, the time tables, the schedule structure, the FTBAR
// and HBP heuristics, the random workload generator of the paper's
// Section 6.1, a discrete-event executor with failure injection, a
// goroutine-based distributed executive, the scheduling service layer,
// and the benchmark harness that regenerates every table and figure of
// the paper's evaluation (see DESIGN.md; the experiment index is
// DESIGN.md Section 3).
package ftbar
