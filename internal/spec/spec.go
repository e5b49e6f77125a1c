// Package spec bundles the inputs of the scheduling problem (paper
// Section 3.4): the execution-time table Exe for operations (whose ∞ entries
// encode the distribution constraints Dis), the communication-time table for
// data-dependencies on media, the real-time constraints Rtc, and the unified
// fault budget FaultModel — Npf fail-silent processor failures plus Nmf
// fail-silent medium failures to tolerate (DESIGN.md Section 10).
package spec

import (
	"errors"
	"fmt"
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// Forbidden is the ∞ marker: an operation cannot run on a processor, or a
// data-dependency cannot traverse a medium.
var Forbidden = math.Inf(1)

// Errors reported by table construction and validation.
var (
	ErrBadTime       = errors.New("spec: time must be non-negative")
	ErrOpUnplaceable = errors.New("spec: operation has no allowed processor")
	ErrTooFewprocs   = errors.New("spec: fewer allowed processors than Npf+1 replicas")
	ErrNegativeNpf   = errors.New("spec: Npf must be non-negative")
	ErrEdgeUntravel  = errors.New("spec: data-dependency cannot reach some allowed placement")
	ErrBadDeadline   = errors.New("spec: deadline must be positive")
	ErrUnknownForRtc = errors.New("spec: real-time constraint on unknown operation")
	ErrShape         = errors.New("spec: table shape does not match graph or architecture")
)

// ExecTable holds the execution time of every operation on every processor.
// Forbidden entries are the distribution constraints Dis.
type ExecTable struct {
	nOps   int
	nProcs int
	t      []float64 // op*nProcs + proc
}

// NewExecTable returns a table for the given graph and architecture with
// every entry set to Forbidden; callers then allow specific placements with
// Set or the bulk helpers.
func NewExecTable(g *model.Graph, a *arch.Architecture) *ExecTable {
	e := &ExecTable{nOps: g.NumOps(), nProcs: a.NumProcs()}
	e.t = make([]float64, e.nOps*e.nProcs)
	for i := range e.t {
		e.t[i] = Forbidden
	}
	return e
}

// NewUniformExecTable returns a table where every operation takes d time
// units on every processor (the homogeneous setting of the paper's
// Section 6 comparison).
func NewUniformExecTable(g *model.Graph, a *arch.Architecture, d float64) (*ExecTable, error) {
	if d < 0 || math.IsNaN(d) {
		return nil, fmt.Errorf("%w: %g", ErrBadTime, d)
	}
	e := NewExecTable(g, a)
	for i := range e.t {
		e.t[i] = d
	}
	return e, nil
}

// Set assigns the execution time of op on proc. Pass Forbidden to forbid
// the placement (a Dis constraint).
func (e *ExecTable) Set(op model.OpID, p arch.ProcID, d float64) error {
	if err := e.check(op, p); err != nil {
		return err
	}
	if d < 0 || math.IsNaN(d) {
		return fmt.Errorf("%w: %g for op %d on proc %d", ErrBadTime, d, op, p)
	}
	e.t[int(op)*e.nProcs+int(p)] = d
	return nil
}

// MustSet is Set that panics on error.
func (e *ExecTable) MustSet(op model.OpID, p arch.ProcID, d float64) {
	if err := e.Set(op, p, d); err != nil {
		panic(err)
	}
}

// Forbid marks op as not executable on p.
func (e *ExecTable) Forbid(op model.OpID, p arch.ProcID) error {
	if err := e.check(op, p); err != nil {
		return err
	}
	e.t[int(op)*e.nProcs+int(p)] = Forbidden
	return nil
}

// Time returns the execution time of op on p; Forbidden when disallowed.
func (e *ExecTable) Time(op model.OpID, p arch.ProcID) float64 {
	return e.t[int(op)*e.nProcs+int(p)]
}

// Allowed reports whether op may run on p.
func (e *ExecTable) Allowed(op model.OpID, p arch.ProcID) bool {
	return !math.IsInf(e.Time(op, p), 1)
}

// AllowedProcs returns the processors op may run on, in id order.
func (e *ExecTable) AllowedProcs(op model.OpID) []arch.ProcID {
	var out []arch.ProcID
	for p := 0; p < e.nProcs; p++ {
		if e.Allowed(op, arch.ProcID(p)) {
			out = append(out, arch.ProcID(p))
		}
	}
	return out
}

// MeanTime returns the mean execution time of op over its allowed
// processors, the averaging convention used for the S̄ tails (DESIGN.md
// Section 4). It returns Forbidden when no processor is allowed.
func (e *ExecTable) MeanTime(op model.OpID) float64 {
	sum, n := 0.0, 0
	for p := 0; p < e.nProcs; p++ {
		if v := e.Time(op, arch.ProcID(p)); !math.IsInf(v, 1) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return Forbidden
	}
	return sum / float64(n)
}

func (e *ExecTable) check(op model.OpID, p arch.ProcID) error {
	if int(op) < 0 || int(op) >= e.nOps || int(p) < 0 || int(p) >= e.nProcs {
		return fmt.Errorf("%w: op %d, proc %d (table %dx%d)", ErrShape, op, p, e.nOps, e.nProcs)
	}
	return nil
}

// Clone returns a deep copy of the table.
func (e *ExecTable) Clone() *ExecTable {
	c := *e
	c.t = append([]float64(nil), e.t...)
	return &c
}

// CommTable holds the transmission time of every data-dependency on every
// medium. Intra-processor communications always cost zero and are not
// stored (paper Section 3.4).
type CommTable struct {
	nEdges int
	nMedia int
	t      []float64 // edge*nMedia + medium
}

// NewCommTable returns a table with every entry set to Forbidden.
func NewCommTable(g *model.Graph, a *arch.Architecture) *CommTable {
	c := &CommTable{nEdges: g.NumEdges(), nMedia: a.NumMedia()}
	c.t = make([]float64, c.nEdges*c.nMedia)
	for i := range c.t {
		c.t[i] = Forbidden
	}
	return c
}

// NewUniformCommTable returns a table where every dependency takes d time
// units on every medium.
func NewUniformCommTable(g *model.Graph, a *arch.Architecture, d float64) (*CommTable, error) {
	if d < 0 || math.IsNaN(d) {
		return nil, fmt.Errorf("%w: %g", ErrBadTime, d)
	}
	c := NewCommTable(g, a)
	for i := range c.t {
		c.t[i] = d
	}
	return c, nil
}

// Set assigns the transmission time of edge on medium m.
func (c *CommTable) Set(edge model.EdgeID, m arch.MediumID, d float64) error {
	if err := c.check(edge, m); err != nil {
		return err
	}
	if d < 0 || math.IsNaN(d) {
		return fmt.Errorf("%w: %g for edge %d on medium %d", ErrBadTime, d, edge, m)
	}
	c.t[int(edge)*c.nMedia+int(m)] = d
	return nil
}

// MustSet is Set that panics on error.
func (c *CommTable) MustSet(edge model.EdgeID, m arch.MediumID, d float64) {
	if err := c.Set(edge, m, d); err != nil {
		panic(err)
	}
}

// Forbid marks edge as not transmittable on medium m.
func (c *CommTable) Forbid(edge model.EdgeID, m arch.MediumID) error {
	if err := c.check(edge, m); err != nil {
		return err
	}
	c.t[int(edge)*c.nMedia+int(m)] = Forbidden
	return nil
}

// Time returns the transmission time of edge on medium m.
func (c *CommTable) Time(edge model.EdgeID, m arch.MediumID) float64 {
	return c.t[int(edge)*c.nMedia+int(m)]
}

// Allowed reports whether edge may traverse medium m.
func (c *CommTable) Allowed(edge model.EdgeID, m arch.MediumID) bool {
	return !math.IsInf(c.Time(edge, m), 1)
}

// MeanTime returns the mean transmission time of edge over the media that
// allow it, or 0 when none does (the dependency can then only be satisfied
// by co-location; the tails treat it as local).
func (c *CommTable) MeanTime(edge model.EdgeID) float64 {
	sum, n := 0.0, 0
	for m := 0; m < c.nMedia; m++ {
		if v := c.Time(edge, arch.MediumID(m)); !math.IsInf(v, 1) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (c *CommTable) check(edge model.EdgeID, m arch.MediumID) error {
	if int(edge) < 0 || int(edge) >= c.nEdges || int(m) < 0 || int(m) >= c.nMedia {
		return fmt.Errorf("%w: edge %d, medium %d (table %dx%d)", ErrShape, edge, m, c.nEdges, c.nMedia)
	}
	return nil
}

// Clone returns a deep copy of the table.
func (c *CommTable) Clone() *CommTable {
	cp := *c
	cp.t = append([]float64(nil), c.t...)
	return &cp
}

// Rtc holds the real-time constraints: an optional deadline on the
// completion date of the whole schedule and optional per-operation
// deadlines (paper Section 3.1). A zero Rtc constrains nothing.
type Rtc struct {
	// Deadline bounds the completion date of the whole schedule;
	// +Inf or 0 means unconstrained.
	Deadline float64
	// OpDeadlines bounds the completion date of individual operations.
	OpDeadlines map[model.OpID]float64
}

// Unconstrained reports whether the Rtc imposes nothing.
func (r Rtc) Unconstrained() bool {
	return (r.Deadline == 0 || math.IsInf(r.Deadline, 1)) && len(r.OpDeadlines) == 0
}

// Validate checks deadlines are positive and reference known operations.
func (r Rtc) Validate(g *model.Graph) error {
	if r.Deadline < 0 || math.IsNaN(r.Deadline) {
		return fmt.Errorf("%w: %g", ErrBadDeadline, r.Deadline)
	}
	for op, d := range r.OpDeadlines {
		if int(op) < 0 || int(op) >= g.NumOps() {
			return fmt.Errorf("%w: id %d", ErrUnknownForRtc, op)
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: %g for %q", ErrBadDeadline, d, g.Op(op).Name)
		}
	}
	return nil
}

// Problem is the complete input of the distribution heuristic: Alg, Arc,
// Exe (with Dis folded in as ∞ entries), Rtc and the fault budget.
type Problem struct {
	Alg  *model.Graph
	Arc  *arch.Architecture
	Exec *ExecTable
	Comm *CommTable
	Rtc  Rtc
	// Faults is the unified fault budget: Npf processor failures plus Nmf
	// medium failures (DESIGN.md Section 10).
	Faults FaultModel
	// Npf is the legacy processor-only fault budget.
	//
	// Deprecated: set Faults instead. Npf is consulted only when Faults is
	// entirely zero, so documents and callers predating the unified fault
	// model keep working unchanged.
	Npf int

	tasks *model.TaskGraph // compiled lazily by Compile
	ckey  string           // content address, memoised by ContentKey
}

// FaultModel resolves the effective fault budget: Faults when set, the
// legacy Npf field otherwise (the deprecation shim). A problem whose
// budget is processor-only is canonically represented through the legacy
// field (SetFaults normalises to it), so pre-FaultModel code that mutates
// Npf directly keeps working; once a medium budget is set, change the
// budget through SetFaults, not by assigning Npf.
func (p *Problem) FaultModel() FaultModel {
	if p.Faults.IsZero() {
		return FaultModel{Npf: p.Npf}
	}
	return p.Faults
}

// SetFaults sets the unified fault budget, keeping the deprecated Npf
// field mirrored for legacy readers. Processor-only budgets are stored in
// the legacy field alone, the canonical form FaultModel() resolves.
func (p *Problem) SetFaults(f FaultModel) {
	p.Npf = f.Npf
	if f.Nmf != 0 {
		p.Faults = f
	} else {
		p.Faults = FaultModel{}
	}
}

// Compile validates the problem and returns its task graph, memoising the
// result.
func (p *Problem) Compile() (*model.TaskGraph, error) {
	if p.tasks != nil {
		return p.tasks, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tg, err := model.Compile(p.Alg)
	if err != nil {
		return nil, err
	}
	p.tasks = tg
	return tg, nil
}

// Validate checks the cross-cutting consistency rules:
//
//   - graph and architecture validate on their own;
//   - table shapes match the graph and architecture;
//   - the fault budget is well-formed (Npf ≥ 0, Nmf ≥ 0, Nmf ≤ Npf) and
//     every operation has at least Npf+1 allowed processors (otherwise the
//     required replication level is unreachable — the paper's "add more
//     hardware" case);
//   - when Nmf > 0, every data-dependency reaches each of its receivers
//     over at least Nmf+1 distinct allowed media (the media analogue of
//     the processor check, DESIGN.md Section 10);
//   - every data-dependency can travel between every pair of allowed
//     placements of its endpoints, either by co-location or along a route
//     whose media all allow the dependency;
//   - Rtc deadlines are positive and reference known operations.
func (p *Problem) Validate() error {
	if err := p.checkComponents(); err != nil {
		return err
	}
	if err := p.Alg.Validate(); err != nil {
		return err
	}
	if err := p.Arc.Validate(); err != nil {
		return err
	}
	if err := p.checkShape(); err != nil {
		return err
	}
	fm := p.FaultModel()
	if err := fm.Validate(); err != nil {
		return err
	}
	for _, op := range p.Alg.Ops() {
		allowed := p.Exec.AllowedProcs(op.ID)
		if len(allowed) == 0 {
			return fmt.Errorf("%w: %q", ErrOpUnplaceable, op.Name)
		}
		if len(allowed) < fm.Replicas() {
			return fmt.Errorf("%w: %q runs on %d processors, Npf+1 = %d",
				ErrTooFewprocs, op.Name, len(allowed), fm.Replicas())
		}
	}
	if err := p.validateMediaDiversity(fm); err != nil {
		return err
	}
	if err := p.validateEdgeReachability(); err != nil {
		return err
	}
	return p.Rtc.Validate(p.Alg)
}

// checkComponents reports a nil graph, architecture or table.
func (p *Problem) checkComponents() error {
	if p.Alg == nil || p.Arc == nil || p.Exec == nil || p.Comm == nil {
		return fmt.Errorf("%w: nil component", ErrShape)
	}
	return nil
}

// checkShape reports a nil component, or a table whose shape disagrees
// with the graph or architecture (a processor, medium, operation or
// dependency added after the tables were built).
func (p *Problem) checkShape() error {
	if err := p.checkComponents(); err != nil {
		return err
	}
	if p.Exec.nOps != p.Alg.NumOps() || p.Exec.nProcs != p.Arc.NumProcs() {
		return fmt.Errorf("%w: exec table is %dx%d, graph/arch are %d/%d",
			ErrShape, p.Exec.nOps, p.Exec.nProcs, p.Alg.NumOps(), p.Arc.NumProcs())
	}
	if p.Comm.nEdges != p.Alg.NumEdges() || p.Comm.nMedia != p.Arc.NumMedia() {
		return fmt.Errorf("%w: comm table is %dx%d, graph/arch are %d/%d",
			ErrShape, p.Comm.nEdges, p.Comm.nMedia, p.Alg.NumEdges(), p.Arc.NumMedia())
	}
	return nil
}

// validateEdgeReachability checks each dependency can be implemented for
// every allowed (src proc, dst proc) pair: either a direct medium allows
// it, or a multi-hop route exists over media that all allow it (a single
// forbidden link does not cut processors apart when a detour exists).
// Pairs with a direct allowed medium are settled by one table of direct
// media, so fully connected architectures — the paper's setting, and the
// service's common case — need nothing more. The other pairs of an edge
// are decided by the connected components of the media allowing it
// (arch.Components), built once for the edge on its first such pair.
//
// The planner routes a dependency along Dijkstra paths weighted by its
// times (EdgeRoutes), and a sum of finite times can overflow to +Inf,
// which leaves a connected pair without a route. That needs a finite time
// above MaxFloat64/(2·NumProcs): a path has fewer than NumProcs hops, so
// below that bound every sum stays under MaxFloat64/2 (DESIGN.md Section
// 2). Only an edge with such a time is decided by its route table, as the
// planner will see it.
func (p *Problem) validateEdgeReachability() error {
	nProcs := p.Arc.NumProcs()
	direct := p.Arc.DirectMedia()
	overflow := math.MaxFloat64 / float64(2*nProcs)
	allowed := make([][]arch.ProcID, p.Alg.NumOps())
	procsOf := func(op model.OpID) []arch.ProcID {
		if allowed[op] == nil {
			allowed[op] = p.Exec.AllowedProcs(op)
		}
		return allowed[op]
	}
	var comp []arch.ProcID
	for _, e := range p.Alg.Edges() {
		// Once built is set, rt decides e's pairs when it is non-nil and
		// comp otherwise.
		var rt *arch.RouteTable
		built := false
		for _, sp := range procsOf(e.Src) {
			for _, dp := range procsOf(e.Dst) {
				if sp == dp || p.anyAllowed(e.ID, direct[int(sp)*nProcs+int(dp)]) {
					continue
				}
				if !built {
					if p.maxCommTime(e.ID) > overflow {
						var err error
						if rt, err = p.EdgeRoutes(e.ID); err != nil {
							return err
						}
					} else {
						comp = p.Arc.Components(func(m arch.MediumID) bool { return p.Comm.Allowed(e.ID, m) }, comp)
					}
					built = true
				}
				var unreachable bool
				if rt != nil {
					_, err := rt.Route(sp, dp)
					unreachable = err != nil
				} else {
					unreachable = comp[sp] != comp[dp]
				}
				if unreachable {
					return fmt.Errorf("%w: %s from %q to %q",
						ErrEdgeUntravel, p.Alg.EdgeName(e.ID),
						p.Arc.Proc(sp).Name, p.Arc.Proc(dp).Name)
				}
			}
		}
	}
	return nil
}

// maxCommTime returns the largest finite transmission time of the
// dependency, or 0 when every medium forbids it.
func (p *Problem) maxCommTime(e model.EdgeID) float64 {
	most := 0.0
	for _, v := range p.Comm.t[int(e)*p.Comm.nMedia : (int(e)+1)*p.Comm.nMedia] {
		if v > most && !math.IsInf(v, 1) {
			most = v
		}
	}
	return most
}

// anyAllowed reports whether one of the media allows the dependency.
func (p *Problem) anyAllowed(e model.EdgeID, media []arch.MediumID) bool {
	for _, m := range media {
		if p.Comm.Allowed(e, m) {
			return true
		}
	}
	return false
}

// EdgeRoutes returns the routing table of one data-dependency: shortest
// paths weighted by that dependency's per-medium communication times, with
// forbidden media unusable. Schedulers consult it when no direct medium
// carries the dependency; validation needs it only for an edge whose path
// sums can overflow (validateEdgeReachability), and otherwise decides
// reachability from connected components without building it.
func (p *Problem) EdgeRoutes(e model.EdgeID) (*arch.RouteTable, error) {
	return p.Arc.ComputeRoutes(func(m arch.MediumID) float64 {
		return p.Comm.Time(e, m)
	})
}

// Clone returns a deep copy of the problem (without the memoised task
// graph, which is recompiled on demand).
func (p *Problem) Clone() *Problem {
	return &Problem{
		Alg:    p.Alg.Clone(),
		Arc:    p.Arc.Clone(),
		Exec:   p.Exec.Clone(),
		Comm:   p.Comm.Clone(),
		Rtc:    cloneRtc(p.Rtc),
		Faults: p.Faults,
		Npf:    p.Npf,
	}
}

func cloneRtc(r Rtc) Rtc {
	out := Rtc{Deadline: r.Deadline}
	if r.OpDeadlines != nil {
		out.OpDeadlines = make(map[model.OpID]float64, len(r.OpDeadlines))
		for k, v := range r.OpDeadlines {
			out.OpDeadlines[k] = v
		}
	}
	return out
}

// Homogenize returns a copy of the problem in which every operation's
// execution time is replaced by its mean over allowed processors on every
// processor, and every dependency's transmission time by its mean on every
// medium. This is the downgrade the paper applies to compare FTBAR with
// HBP, which assumes homogeneous systems (Section 6).
func (p *Problem) Homogenize() *Problem {
	c := p.Clone()
	for op := 0; op < c.Alg.NumOps(); op++ {
		mean := p.Exec.MeanTime(model.OpID(op))
		for proc := 0; proc < c.Arc.NumProcs(); proc++ {
			c.Exec.MustSet(model.OpID(op), arch.ProcID(proc), mean)
		}
	}
	for e := 0; e < c.Alg.NumEdges(); e++ {
		mean := p.Comm.MeanTime(model.EdgeID(e))
		for m := 0; m < c.Arc.NumMedia(); m++ {
			c.Comm.MustSet(model.EdgeID(e), arch.MediumID(m), mean)
		}
	}
	return c
}
