package spec

import (
	"errors"
	"fmt"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// Errors reported by fault-model validation.
var (
	ErrNegativeNmf = errors.New("spec: Nmf must be non-negative")
	// ErrFaultBudget reports an infeasible combined budget: the Npf+1
	// copies of a dependency cannot span Nmf+1 media when Nmf > Npf.
	ErrFaultBudget = errors.New("spec: Nmf exceeds Npf (Npf+1 comm copies cannot span Nmf+1 media)")
	// ErrMediaDiversity reports a data-dependency whose receivers cannot
	// be reached over Nmf+1 distinct media.
	ErrMediaDiversity = errors.New("spec: dependency lacks Nmf+1 media towards a receiver")
)

// FaultModel is the unified fault budget of a scheduling problem: the
// schedule must mask Npf fail-silent processor failures and Nmf fail-silent
// medium (link or bus) failures. Each operation keeps Npf+1 replicas on
// distinct processors, and the Npf+1 copies of every inter-processor
// dependency include at least Nmf+1 delivery chains over pairwise-disjoint
// media. A schedule passing sched.Validate under this budget masks any
// nmf <= Nmf medium crashes, and any npf <= Npf processor crashes where
// its copies do not share relays (DESIGN.md Sections 10–11). Mixed
// (processor + medium) crashes are measured, not guaranteed: the
// sched.ValidateJoint rule attacks relay processors and media but leaves
// sender and receiver processors out, so passing it does not certify
// combined masking either (DESIGN.md Section 12).
// The zero value (Npf = Nmf = 0) asks for a plain non-fault-tolerant
// schedule; Nmf may never exceed Npf, since there are only Npf+1 copies
// to spread.
type FaultModel struct {
	// Npf is the number of fail-silent processor failures to tolerate
	// (the paper's Npf).
	Npf int `json:"npf"`
	// Nmf is the number of fail-silent medium failures to tolerate (the
	// link-failure extension the paper's conclusion announces).
	Nmf int `json:"nmf,omitempty"`
}

// Replicas returns the replication level Npf+1: how many copies of every
// operation the schedule must place.
func (f FaultModel) Replicas() int { return f.Npf + 1 }

// MediaDiversity returns Nmf+1: over how many media with disjoint failure
// domains the copies of every inter-processor dependency must spread.
func (f FaultModel) MediaDiversity() int { return f.Nmf + 1 }

// IsZero reports whether the model tolerates no failure at all.
func (f FaultModel) IsZero() bool { return f == FaultModel{} }

// Validate checks the budget is well-formed on its own.
func (f FaultModel) Validate() error {
	if f.Npf < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeNpf, f.Npf)
	}
	if f.Nmf < 0 {
		return fmt.Errorf("%w: %d", ErrNegativeNmf, f.Nmf)
	}
	if f.Nmf > f.Npf {
		return fmt.Errorf("%w: Npf=%d Nmf=%d", ErrFaultBudget, f.Npf, f.Nmf)
	}
	return nil
}

// String renders the budget, e.g. "Npf=1 Nmf=1".
func (f FaultModel) String() string { return fmt.Sprintf("Npf=%d Nmf=%d", f.Npf, f.Nmf) }

// validateMediaDiversity is the media analogue of the Npf+1 processor
// check: when Nmf > 0, every data-dependency must be able to reach each of
// its receivers over at least Nmf+1 routes with disjoint failure domains.
// For every edge and every allowed destination processor dp:
//
//   - if some allowed source processor is dp itself, the receiver is
//     satisfiable by co-location — local data never touches a medium, so
//     no medium budget can cut it — and dp needs no further routes;
//   - otherwise the count is the maximum number of pairwise media-disjoint
//     routes from distinct allowed source processors to dp over media
//     that allow the edge (arch.MaxDisjointRoutes), which admits
//     multi-hop store-and-forward detours — the seed's direct-media-only
//     count falsely rejected sparse topologies like rings, where the two
//     disjoint routes exist but one of them is a relay chain.
//
// Fewer than Nmf+1 such routes means (by Menger's theorem on the
// processor/medium graph) some Nmf media form a cut between every source
// and dp, so no schedule on this architecture can honour the budget (the
// paper's "add more hardware" case, extended to media). This is a
// necessary condition on the inputs; the sufficient, per-schedule
// guarantee is sched.Validate's diversity rule over the comms actually
// placed.
func (p *Problem) validateMediaDiversity(fm FaultModel) error {
	if fm.Nmf == 0 {
		return nil
	}
	need := fm.MediaDiversity()
	allowed := make([][]arch.ProcID, p.Alg.NumOps())
	procsOf := func(op model.OpID) []arch.ProcID {
		if allowed[op] == nil {
			allowed[op] = p.Exec.AllowedProcs(op)
		}
		return allowed[op]
	}
	seen := make([]bool, p.Arc.NumMedia())
	direct, nProcs := p.Arc.DirectMedia(), p.Arc.NumProcs()
	var fans arch.FanScratch // one search scratch for every flow count below
	for _, e := range p.Alg.Edges() {
		srcs := procsOf(e.Src)
		usable := func(m arch.MediumID) bool { return p.Comm.Allowed(e.ID, m) }
	receivers:
		for _, dp := range procsOf(e.Dst) {
			// Fast path: distinct usable direct media already certify the
			// budget without touching the flow search (the common case on
			// direct-rich layouts).
			for i := range seen {
				seen[i] = false
			}
			routes := 0
			for _, sp := range srcs {
				if sp == dp {
					continue receivers // co-location: immune to media
				}
				for _, m := range direct[int(sp)*nProcs+int(dp)] {
					if !seen[m] && usable(m) {
						seen[m] = true
						routes++
					}
				}
			}
			if routes >= need {
				continue
			}
			if flow := p.Arc.MaxDisjointRoutes(srcs, dp, usable, &fans); flow < need {
				return fmt.Errorf("%w: %s towards %q has %d disjoint routes, Nmf+1 = %d",
					ErrMediaDiversity, p.Alg.EdgeName(e.ID),
					p.Arc.Proc(dp).Name, flow, need)
			}
		}
	}
	return nil
}
