package ftbar

import (
	"fmt"
	"io"
	"net/http"

	"ftbar/internal/arch"
	"ftbar/internal/cluster"
	"ftbar/internal/core"
	"ftbar/internal/exec"
	"ftbar/internal/gen"
	"ftbar/internal/hbp"
	"ftbar/internal/model"
	"ftbar/internal/paperex"
	"ftbar/internal/reliab"
	"ftbar/internal/sched"
	"ftbar/internal/service"
	"ftbar/internal/sim"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// Algorithm model (paper Section 3.2).
type (
	// Graph is the algorithm model: a data-flow graph of operations and
	// data-dependencies, executed once per iteration.
	Graph = model.Graph
	// Kind classifies an operation: Comp, Mem or ExtIO.
	Kind = model.Kind
	// OpID identifies an operation inside its Graph.
	OpID = model.OpID
	// EdgeID identifies a data-dependency inside its Graph.
	EdgeID = model.EdgeID
	// TaskID identifies a schedulable task of the compiled graph.
	TaskID = model.TaskID
)

// Operation kinds.
const (
	Comp  = model.Comp
	Mem   = model.Mem
	ExtIO = model.ExtIO
)

// Architecture model (paper Section 3.3).
type (
	// Architecture is the target: processors and communication media.
	Architecture = arch.Architecture
	// ProcID identifies a processor.
	ProcID = arch.ProcID
	// MediumID identifies a communication medium.
	MediumID = arch.MediumID
)

// Problem specification (paper Section 3.4).
type (
	// Problem bundles Alg, Arc, Exe/Dis, Rtc and the fault budget.
	Problem = spec.Problem
	// FaultModel is the unified fault budget: Npf processor failures plus
	// Nmf medium failures to mask (DESIGN.md Section 10).
	FaultModel = spec.FaultModel
	// ExecTable holds execution times; Forbidden entries are the
	// distribution constraints Dis.
	ExecTable = spec.ExecTable
	// CommTable holds communication times per medium.
	CommTable = spec.CommTable
	// Rtc holds the real-time constraints.
	Rtc = spec.Rtc
)

// Forbidden is the ∞ marker of the tables.
var Forbidden = spec.Forbidden

// Scheduling.
type (
	// Schedule is a static distributed fault-tolerant schedule.
	Schedule = sched.Schedule
	// Replica is one placement of a task on a processor.
	Replica = sched.Replica
	// Comm is one scheduled data transmission.
	Comm = sched.Comm
	// GanttOptions controls schedule rendering.
	GanttOptions = sched.GanttOptions
	// Options tunes the FTBAR heuristic.
	Options = core.Options
	// Result is a scheduling outcome: the schedule, the Rtc verdict and
	// the decision log.
	Result = core.Result
	// HBPResult is the baseline scheduler's outcome.
	HBPResult = hbp.Result
)

// Simulation (paper Sections 4.3 and 5).
type (
	// Scenario describes failures, detection mode and iteration count.
	Scenario = sim.Scenario
	// Failure is one fail-silent processor failure window.
	Failure = sim.Failure
	// MediumFailure is one fail-silent link/bus failure window (the link
	// failures the paper's conclusion lists as future work).
	MediumFailure = sim.MediumFailure
	// DetectionMode selects the paper's failure-detection option.
	DetectionMode = sim.DetectionMode
	// SimResult is a simulated execution report.
	SimResult = sim.Result
	// CrashReport summarises a worst-case single-failure sweep.
	CrashReport = sim.CrashReport
	// LinkReport summarises a worst-case single-link-failure sweep.
	LinkReport = sim.LinkReport
	// CombinedReport is one (processor subset, medium) cell of the joint
	// combined sweep, probed over every decisive crash instant.
	CombinedReport = sim.CombinedReport
	// ReliabilityModel holds per-processor (and optionally per-medium)
	// failure probabilities.
	ReliabilityModel = reliab.Model
	// ReliabilityReport is the reliability evaluation of a schedule:
	// exact subset enumeration or a seeded Monte-Carlo estimate with a
	// confidence interval.
	ReliabilityReport = reliab.Report
	// ReliabilityOptions tunes the automatic exact/Monte-Carlo dispatch.
	ReliabilityOptions = reliab.Options
)

// Reliability evaluation methods recorded in ReliabilityReport.Method.
const (
	ReliabilityExact      = reliab.MethodExact
	ReliabilityMonteCarlo = reliab.MethodMonteCarlo
)

// Detection modes.
const (
	DetectionNone     = sim.DetectionNone
	DetectionExpected = sim.DetectionExpected
)

// Distributed executive.
type (
	// RunConfig configures a distributed execution.
	RunConfig = exec.RunConfig
	// Kill is a fault-injection directive for the executive.
	Kill = exec.Kill
	// ExecResult is a distributed execution outcome.
	ExecResult = exec.Result
	// Value is the datum flowing along data-dependencies.
	Value = exec.Value
)

// Workload generation (paper Section 6.1).
type (
	// GenParams configures the random problem generator.
	GenParams = gen.Params
	// Topology selects the generated architecture shape.
	Topology = gen.Topology
	// Family selects the generated task-graph family.
	Family = gen.Family
)

// Generated architecture shapes.
const (
	TopoFull      = gen.TopoFull
	TopoBus       = gen.TopoBus
	TopoRing      = gen.TopoRing
	TopoStar      = gen.TopoStar
	TopoDualBus   = gen.TopoDualBus
	TopoMesh      = gen.TopoMesh
	TopoTorus     = gen.TopoTorus
	TopoHypercube = gen.TopoHypercube
	TopoGeom      = gen.TopoGeom
)

// Generated task-graph families.
const (
	FamLayered  = gen.FamLayered
	FamForkJoin = gen.FamForkJoin
	FamMatmul   = gen.FamMatmul
	FamChain    = gen.FamChain
)

// Scheduling service (DESIGN.md Section 9). cmd/ftserved serves this
// in one of three roles: standalone (one process, the default), worker
// (one shard of a cluster) or master (admission and routing over the
// workers); the HTTP/JSON edge is identical in every role.
type (
	// Service is the concurrent scheduling service: a bounded worker
	// pool behind a bounded queue, with a content-addressed schedule
	// cache and an HTTP/JSON surface (cmd/ftserved).
	Service = service.Service
	// ServiceConfig sizes the service's pool, queue and cache.
	ServiceConfig = service.Config
	// ServiceStats is the observable state of a running service.
	ServiceStats = service.Stats
	// Scheduler is what serves the HTTP edge: a *Service (standalone
	// and worker roles) or a *ClusterMaster (master role).
	Scheduler = service.Scheduler
	// ScheduleRequest asks the service for one schedule.
	ScheduleRequest = service.ScheduleRequest
	// ScheduleReply is a response plus its cache provenance.
	ScheduleReply = service.ScheduleReply
	// ScheduleDoc is the exported JSON document shape of a Schedule.
	ScheduleDoc = sched.Doc
)

// Clustered deployment (DESIGN.md Section 16): a master routes each
// request by its problem's content address over a consistent hash ring
// of workers, so every worker's schedule cache and warm-start arenas
// hold one shard of the keyspace. Workers speak a versioned wire RPC
// (internal/wire); the REST/JSON edge stays byte-identical to the
// standalone role.
type (
	// ClusterMaster is the admission and routing layer; it implements
	// Scheduler, so NewServiceHandler(master) serves the standalone edge.
	ClusterMaster = cluster.Master
	// ClusterMasterConfig tunes the master's worker health probing.
	ClusterMasterConfig = cluster.MasterConfig
	// ClusterWorker exposes one Service as a cluster member over the
	// versioned RPC.
	ClusterWorker = cluster.Worker
	// ClusterRegistry tracks worker membership and health (up, down,
	// draining) and keeps the routing ring in sync.
	ClusterRegistry = cluster.Registry
	// ClusterRegistryConfig tunes worker health probing.
	ClusterRegistryConfig = cluster.RegistryConfig
	// ClusterRing is the consistent hash ring workers shard over.
	ClusterRing = cluster.Ring
	// WireError is the versioned API's structured error: a stable Code
	// plus a human-readable message, mapped deterministically to HTTP
	// statuses at the edge.
	WireError = wire.Error
	// WireCode enumerates the stable error codes.
	WireCode = wire.Code
)

// WireVersion is the cluster RPC protocol version; master and workers
// refuse to mix versions.
const WireVersion = wire.Version

// NewGraph returns an empty algorithm graph.
func NewGraph() *Graph { return model.NewGraph() }

// NewArchitecture returns an empty architecture.
func NewArchitecture() *Architecture { return arch.New() }

// FullyConnected builds n processors with one point-to-point link per pair
// (the paper's Figure 2 uses FullyConnected(3)).
func FullyConnected(n int) *Architecture { return arch.FullyConnected(n) }

// BusArchitecture builds n processors sharing one multi-point bus.
func BusArchitecture(n int) *Architecture { return arch.Bus(n) }

// DualBusArchitecture builds n processors sharing two redundant buses,
// the smallest layout on which a bus failure can be masked (Nmf = 1).
func DualBusArchitecture(n int) *Architecture { return arch.DualBus(n) }

// Ring builds n processors linked in a cycle.
func Ring(n int) *Architecture { return arch.Ring(n) }

// Star builds a hub processor linked to n-1 spokes.
func Star(n int) *Architecture { return arch.Star(n) }

// NewExecTable returns an all-Forbidden execution table to fill in.
func NewExecTable(g *Graph, a *Architecture) *ExecTable { return spec.NewExecTable(g, a) }

// NewUniformExecTable returns a homogeneous execution table.
func NewUniformExecTable(g *Graph, a *Architecture, d float64) (*ExecTable, error) {
	return spec.NewUniformExecTable(g, a, d)
}

// NewCommTable returns an all-Forbidden communication table to fill in.
func NewCommTable(g *Graph, a *Architecture) *CommTable { return spec.NewCommTable(g, a) }

// NewUniformCommTable returns a homogeneous communication table.
func NewUniformCommTable(g *Graph, a *Architecture, d float64) (*CommTable, error) {
	return spec.NewUniformCommTable(g, a, d)
}

// Run schedules the problem with FTBAR (the paper's heuristic).
func Run(p *Problem, opts Options) (*Result, error) { return core.Run(p, opts) }

// Basic runs the paper's non-fault-tolerant SynDEx-style baseline
// (Section 4.4): Npf = 0, no predecessor duplication.
func Basic(p *Problem) (*Result, error) { return core.Basic(p) }

// NonFT runs FTBAR at Npf = 0, the baseline of the paper's overhead
// formula (Section 6.2).
func NonFT(p *Problem) (*Result, error) { return core.NonFT(p) }

// RunHBP schedules the problem with the reconstructed HBP comparator
// (Hashimoto et al.; requires Npf = 1).
func RunHBP(p *Problem) (*HBPResult, error) { return hbp.Run(p) }

// Simulate executes a schedule in virtual time under a failure scenario.
func Simulate(s *Schedule, sc Scenario) (*SimResult, error) { return sim.Run(s, sc) }

// CrashAtZero simulates the schedule with one processor dead from time 0
// (the paper's Figure 8 experiment).
func CrashAtZero(s *Schedule, p ProcID) (*SimResult, error) { return sim.CrashAtZero(s, p) }

// PermanentFailure builds a crash of p at time at.
func PermanentFailure(p ProcID, at float64) Failure { return sim.Permanent(p, at) }

// IntermittentFailure builds a transient failure of p during [from, to).
func IntermittentFailure(p ProcID, from, to float64) Failure {
	return sim.Intermittent(p, from, to)
}

// PermanentLinkFailure builds a crash of medium m at time at.
func PermanentLinkFailure(m MediumID, at float64) MediumFailure {
	return sim.PermanentLink(m, at)
}

// IntermittentLinkFailure builds a transient failure of medium m during
// [from, to).
func IntermittentLinkFailure(m MediumID, from, to float64) MediumFailure {
	return sim.IntermittentLink(m, from, to)
}

// Reliability evaluates the probability that the schedule delivers every
// output under independent per-processor (and, when the model carries a
// media arm, per-medium) failure probabilities, by exact enumeration of
// crash subsets (the reliability extension the paper's conclusion
// announces, extended over the joint processor+medium lattice).
func Reliability(s *Schedule, m ReliabilityModel) (*ReliabilityReport, error) {
	return reliab.Evaluate(s, m)
}

// JointReliability evaluates reliability with automatic method dispatch:
// exact enumeration while processors plus modelled media fit the ~20-unit
// bound, a seeded Monte-Carlo estimate with a 95% confidence interval
// beyond it.
func JointReliability(s *Schedule, m ReliabilityModel, opts ReliabilityOptions) (*ReliabilityReport, error) {
	return reliab.EvaluateAuto(s, m, opts)
}

// UniformReliabilityModel gives every one of n processors failure
// probability q; media never fail.
func UniformReliabilityModel(n int, q float64) ReliabilityModel {
	return reliab.Uniform(n, q)
}

// UniformJointReliabilityModel gives every one of procs processors
// failure probability qp and every one of media media failure
// probability qm.
func UniformJointReliabilityModel(procs, media int, qp, qm float64) ReliabilityModel {
	return reliab.UniformJoint(procs, media, qp, qm)
}

// SingleFailureSweep probes every crash instant that can change the
// outcome, for every processor, and reports the worst makespans.
func SingleFailureSweep(s *Schedule) ([]CrashReport, error) { return sim.SingleFailureSweep(s) }

// WorstSingleFailureMakespan bounds the makespan under any single crash.
func WorstSingleFailureMakespan(s *Schedule) (float64, error) {
	return sim.WorstSingleFailureMakespan(s)
}

// SingleLinkFailureSweep probes every medium crash instant that can
// change the outcome and reports the worst makespans; schedules built
// with Nmf >= 1 that pass Validate mask every report.
func SingleLinkFailureSweep(s *Schedule) ([]LinkReport, error) {
	return sim.SingleLinkFailureSweep(s)
}

// CombinedFailureSweep simulates every (processor, medium) pair failed
// from time 0, the cross product of the unified fault budget.
func CombinedFailureSweep(s *Schedule) ([]CombinedReport, error) {
	return sim.CombinedFailureSweep(s)
}

// Execute runs the schedule's distributed programs on goroutine processors
// over channel media and checks the outputs against a sequential oracle.
// It returns once every processor has run its program or stopped, with no
// timeout, and refuses a schedule whose wiring has no dependency order.
func Execute(s *Schedule, cfg RunConfig) (*ExecResult, error) { return exec.Run(s, cfg) }

// Generate builds a random problem with the paper's Section 6.1 recipe.
func Generate(p GenParams) (*Problem, error) { return gen.Generate(p) }

// ParseTopology maps a topology's short name ("full", "ring", "mesh",
// "hypercube", ...) to its Topology.
func ParseTopology(s string) (Topology, error) { return gen.ParseTopology(s) }

// ParseFamily maps a task-graph family's short name ("layered",
// "forkjoin", "matmul", "chain") to its Family.
func ParseFamily(s string) (Family, error) { return gen.ParseFamily(s) }

// NewService starts a concurrent scheduling service; release its workers
// with Close. Service.Handler returns the HTTP surface cmd/ftserved
// serves.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewServiceHandler returns the HTTP/JSON edge over any Scheduler — a
// standalone *Service or a routing *ClusterMaster serve the same bytes.
func NewServiceHandler(s Scheduler) http.Handler { return service.NewHandler(s) }

// NewClusterMaster builds a routing master with no workers; register
// them with AddWorker, then Start health probing and serve
// NewServiceHandler(master).
func NewClusterMaster(cfg ClusterMasterConfig) *ClusterMaster { return cluster.NewMaster(cfg) }

// NewClusterWorker exposes svc as cluster member id; point it at a
// listener with Serve. The caller keeps ownership of svc.
func NewClusterWorker(id string, svc *Service) *ClusterWorker { return cluster.NewWorker(id, svc) }

// PaperExample returns the paper's worked example: the Figure 2 graphs,
// the Tables 1-2 time tables, Rtc = 16 and Npf = 1.
func PaperExample() *Problem { return paperex.Problem() }

// PaperExampleOn re-hosts the paper's worked example on another topology:
// Table 1 times on the first three processors, row means beyond, and each
// dependency's point-to-point time on every medium. At least three
// processors are required. It backs the ring-smoke CI configuration: the
// example on a 4-ring with Npf = 1, Nmf = 1 validates and masks every
// link crash.
func PaperExampleOn(topology Topology, procs int) (*Problem, error) {
	if procs < 3 {
		return nil, fmt.Errorf("paper example needs at least 3 processors, got %d", procs)
	}
	return paperex.ProblemOn(topology.Architecture(procs)), nil
}

// RenderGantt writes a textual Gantt chart of the schedule (the analogue
// of the paper's Figures 5-8).
func RenderGantt(w io.Writer, s *Schedule, opts GanttOptions) error {
	return s.Render(w, opts)
}
