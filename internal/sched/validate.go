package sched

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

const timeEps = 1e-9

// Validate checks every structural and temporal invariant of a finished
// schedule (DESIGN.md Section 7):
//
//   - every task has at least Npf+1 replicas, on pairwise distinct
//     processors, each allowed by the distribution constraints, with
//     End = Start + Exe;
//   - the two halves of every mem are co-located index by index;
//   - per-processor and per-medium sequences are non-overlapping and
//     ordered;
//   - every comm is well-formed: its medium connects its endpoints, its
//     duration matches the table, hop chains are contiguous, and the data
//     leaves its source replica only after that replica finished;
//   - every replica's inputs are covered: each in-edge is served either by
//     a co-located predecessor replica or by at least Npf+1 incoming
//     replicated comms, and the replica starts only after its earliest
//     complete input set;
//   - when the fault budget includes medium failures (Nmf > 0), the
//     replicated deliveries of every (replica, in-edge) include at least
//     Nmf+1 chains over pairwise-disjoint media sets, so no Nmf medium
//     crashes form a single point of failure for any input (DESIGN.md
//     Section 10).
func (s *Schedule) Validate() error { return s.validate(s.Deliveries()) }

// checks lists Validate's checks in order; the hop-chain, coverage and
// diversity checks read their chains and deliveries off ix.
func (s *Schedule) checks(ix *DeliveryIndex) []func() error {
	return []func() error{s.validateReplicas, s.validateMems, s.validateSequences, s.validateComms,
		func() error { return s.validateHopChains(ix) },
		func() error { return s.validateCoverage(ix) },
		func() error { return s.validateDiversity(ix) }}
}

// validate runs Validate's checks in order on one delivery index.
func (s *Schedule) validate(ix *DeliveryIndex) error {
	for _, check := range s.checks(ix) {
		if err := check(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	return nil
}

func (s *Schedule) validateReplicas() error {
	for t := 0; t < s.tasks.NumTasks(); t++ {
		task := s.tasks.Task(model.TaskID(t))
		reps := s.Replicas(model.TaskID(t))
		if len(reps) < s.faults.Npf+1 {
			return fmt.Errorf("task %q has %d replicas, need %d", task.Name, len(reps), s.faults.Npf+1)
		}
		seen := make(map[int]bool)
		for i, r := range reps {
			if r.Index != i {
				return fmt.Errorf("task %q replica %d has index %d", task.Name, i, r.Index)
			}
			if seen[int(r.Proc)] {
				return fmt.Errorf("task %q has two replicas on %q", task.Name, s.problem.Arc.Proc(r.Proc).Name)
			}
			seen[int(r.Proc)] = true
			exec := s.problem.Exec.Time(task.Op, r.Proc)
			if math.IsInf(exec, 1) {
				return fmt.Errorf("task %q placed on forbidden %q", task.Name, s.problem.Arc.Proc(r.Proc).Name)
			}
			if math.Abs(r.End-(r.Start+exec)) > timeEps {
				return fmt.Errorf("task %q on %q: end %g != start %g + exe %g",
					task.Name, s.problem.Arc.Proc(r.Proc).Name, r.End, r.Start, exec)
			}
		}
	}
	return nil
}

func (s *Schedule) validateMems() error {
	for _, mp := range s.tasks.MemPairs() {
		reads, writes := s.Replicas(mp.Read), s.Replicas(mp.Write)
		if len(reads) != len(writes) {
			return fmt.Errorf("mem %q: %d read replicas, %d write replicas",
				s.problem.Alg.Op(mp.Op).Name, len(reads), len(writes))
		}
		for i := range reads {
			if reads[i].Proc != writes[i].Proc {
				return fmt.Errorf("mem %q replica %d: read on %q, write on %q",
					s.problem.Alg.Op(mp.Op).Name, i,
					s.problem.Arc.Proc(reads[i].Proc).Name,
					s.problem.Arc.Proc(writes[i].Proc).Name)
			}
		}
	}
	return nil
}

func (s *Schedule) validateSequences() error {
	for p := 0; p < s.slab.nProcs; p++ {
		seq := s.ProcSeq(arch.ProcID(p))
		for i := 1; i < len(seq); i++ {
			if seq[i].Start < seq[i-1].End-timeEps {
				return fmt.Errorf("processor %q overlaps at item %d", s.problem.Arc.Proc(arch.ProcID(p)).Name, i)
			}
		}
	}
	for m := 0; m < s.slab.nMedia; m++ {
		seq := s.MediumSeq(arch.MediumID(m))
		for i := 1; i < len(seq); i++ {
			if seq[i].Start < seq[i-1].End-timeEps {
				return fmt.Errorf("medium %q overlaps at item %d", s.problem.Arc.Medium(arch.MediumID(m)).Name, i)
			}
		}
	}
	return nil
}

func (s *Schedule) validateComms() error {
	for m := 0; m < s.slab.nMedia; m++ {
		seq := s.MediumSeq(arch.MediumID(m))
		medium := s.problem.Arc.Medium(arch.MediumID(m))
		for i, c := range seq {
			if c.Medium != medium.ID {
				return fmt.Errorf("comm %d on medium %q claims medium %d", i, medium.Name, c.Medium)
			}
			if !medium.Connects(c.From) || !medium.Connects(c.To) || c.From == c.To {
				return fmt.Errorf("comm %d on %q: endpoints %d->%d not on medium",
					i, medium.Name, c.From, c.To)
			}
			dur := s.problem.Comm.Time(c.Orig, c.Medium)
			if math.IsInf(dur, 1) || math.Abs(c.End-(c.Start+dur)) > timeEps {
				return fmt.Errorf("comm %s on %q: bad duration (start %g end %g table %g)",
					s.problem.Alg.EdgeName(c.Orig), medium.Name, c.Start, c.End, dur)
			}
			edge := s.tasks.Edge(c.Edge)
			if c.Hop == 0 {
				src := s.replicaAt(edge.Src, c.SrcIndex)
				if src == nil {
					return fmt.Errorf("comm %s: source replica %d missing", s.problem.Alg.EdgeName(c.Orig), c.SrcIndex)
				}
				if src.Proc != c.From {
					return fmt.Errorf("comm %s: hop 0 leaves %d, source replica on %d",
						s.problem.Alg.EdgeName(c.Orig), c.From, src.Proc)
				}
				if c.Start < src.End-timeEps {
					return fmt.Errorf("comm %s starts %g before source replica end %g",
						s.problem.Alg.EdgeName(c.Orig), c.Start, src.End)
				}
			}
			if c.LastHop {
				dst := s.replicaAt(edge.Dst, c.DstIndex)
				if dst == nil {
					return fmt.Errorf("comm %s: destination replica %d missing",
						s.problem.Alg.EdgeName(c.Orig), c.DstIndex)
				}
				if dst.Proc != c.To {
					return fmt.Errorf("comm %s: last hop reaches %d, destination replica on %d",
						s.problem.Alg.EdgeName(c.Orig), c.To, dst.Proc)
				}
			}
		}
	}
	return nil
}

// validateHopChains checks every chain is numbered 0..n-1 in Hop order,
// contiguous in space and time, and ends on a last hop.
func (s *Schedule) validateHopChains(ix *DeliveryIndex) error {
	for _, d := range ix.Deliveries {
		for _, ch := range d.Chains {
			hops := ch.Hops
			for i, id := range hops {
				if ix.Comms[id].Hop != i {
					return fmt.Errorf("comm chain {%d %d %d}: bad hop numbering", d.Edge, ch.SrcIndex, d.Index)
				}
			}
			for i := 1; i < len(hops); i++ {
				prev, c := ix.Comms[hops[i-1]], ix.Comms[hops[i]]
				if c.From != prev.To {
					return fmt.Errorf("comm chain {%d %d %d}: hop %d discontinuous", d.Edge, ch.SrcIndex, d.Index, i)
				}
				if c.Start < prev.End-timeEps {
					return fmt.Errorf("comm chain {%d %d %d}: hop %d starts before hop %d ends",
						d.Edge, ch.SrcIndex, d.Index, i, i-1)
				}
			}
			if !ix.Comms[hops[len(hops)-1]].LastHop {
				return fmt.Errorf("comm chain {%d %d %d}: missing last hop", d.Edge, ch.SrcIndex, d.Index)
			}
		}
	}
	return nil
}

// validateCoverage checks the Figure 3 rule and data availability for every
// replica input of ix.
func (s *Schedule) validateCoverage(ix *DeliveryIndex) error {
	for r, rep := range ix.Replicas {
		name := s.tasks.Task(rep.Task).Name
		for _, in := range ix.Inputs[ix.InputStart[r]:ix.InputStart[r+1]] {
			edge := s.tasks.Edge(in.Edge)
			if len(in.Arrivals) == 0 {
				// The static executive reads this input locally; a
				// co-located predecessor replica must exist and have
				// finished first. (A predecessor duplicated onto the
				// processor *after* this replica was placed does not
				// count: the replica reads from its scheduled comms.)
				if in.Local < 0 {
					return fmt.Errorf("replica %q#%d: edge %s has no incoming comm and no local source",
						name, rep.Index, s.problem.Alg.EdgeName(edge.Orig))
				}
				if local := ix.Replicas[in.Local]; rep.Start < local.End-timeEps {
					return fmt.Errorf("replica %q#%d starts %g before local input %q ends %g",
						name, rep.Index, rep.Start, s.tasks.Task(edge.Src).Name, local.End)
				}
				continue
			}
			want := min(s.faults.Npf+1, int(ix.RepStart[edge.Src+1]-ix.RepStart[edge.Src]))
			if len(in.Arrivals) < want {
				return fmt.Errorf("replica %q#%d: edge %s has %d incoming comms, want %d",
					name, rep.Index, s.problem.Alg.EdgeName(edge.Orig), len(in.Arrivals), want)
			}
			first := math.Inf(1)
			for _, id := range in.Arrivals {
				first = math.Min(first, ix.Comms[id].End)
			}
			if rep.Start < first-timeEps {
				return fmt.Errorf("replica %q#%d starts %g before first input of %s at %g",
					name, rep.Index, rep.Start, s.problem.Alg.EdgeName(edge.Orig), first)
			}
		}
	}
	return nil
}

// validateDiversity enforces the media-diversity guarantee of the unified
// fault model: for every replica and every in-edge served by comms, the
// replicated delivery chains must contain at least Nmf+1 whose media sets
// are pairwise disjoint. Then any nmf ≤ Nmf medium crashes disable at most
// nmf of those chains and at least one copy still arrives — the link
// analogue of the Npf+1 replica rule. The packing is exact for realistic
// chain counts (see maxDisjointChains) and never over-counts, so
// acceptance here is a guarantee, never an approximation — and the
// multi-hop relay chains of the disjoint fan are packed as first-class
// citizens, not penalised for their length. Locally-served edges are
// exempt: intra-processor data never touches a medium. With Nmf = 0 the
// check is void.
func (s *Schedule) validateDiversity(ix *DeliveryIndex) error {
	if s.faults.Nmf == 0 {
		return nil
	}
	need := s.faults.Nmf + 1
	var sets [][]arch.MediumID
	var ids []int32
	for _, d := range ix.Deliveries {
		sets = sets[:0]
		for _, ch := range d.Chains {
			ids = walkOrder(ids, ch)
			media := make([]arch.MediumID, len(ids))
			for i, id := range ids {
				media[i] = ix.Comms[id].Medium
			}
			sets = append(sets, media)
		}
		if disjoint := maxDisjointChains(sets, need); disjoint < need {
			return fmt.Errorf("replica %q#%d: edge %s has %d media-disjoint deliveries, Nmf+1 = %d",
				s.tasks.Task(d.Task).Name, d.Index,
				s.problem.Alg.EdgeName(s.tasks.Edge(d.Edge).Orig), disjoint, need)
		}
	}
	return nil
}

// maxDisjointChains returns the size of the largest subset of pairwise
// media-disjoint sets, capped at need (once need disjoint chains exist the
// guarantee holds and the search stops). For up to 16 chains — a delivery
// has one chain per sender replica, so real schedules sit far below that
// — the packing is exact: a branch-and-bound maximum independent set over
// the chain-overlap graph, which multi-hop relay chains need because the
// seed's greedy smallest-first pass can pack a short overlapping chain
// and miss the disjoint certificate. Beyond 16 chains the greedy pass is
// kept as a sound (never over-counting) fallback. The count is invariant
// under input order, so the verdict is deterministic.
func maxDisjointChains(sets [][]arch.MediumID, need int) int {
	if len(sets) > 16 {
		return greedyDisjointChains(sets)
	}
	shared := func(a, b []arch.MediumID) bool {
		for _, x := range a {
			for _, y := range b {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	// compat[i] has bit j set when chains i and j can coexist.
	compat := make([]uint32, len(sets))
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if !shared(sets[i], sets[j]) {
				compat[i] |= 1 << uint(j)
				compat[j] |= 1 << uint(i)
			}
		}
	}
	best := 0
	var rec func(cand uint32, size int)
	rec = func(cand uint32, size int) {
		if size > best {
			best = size
		}
		for cand != 0 && best < need {
			if size+bits.OnesCount32(cand) <= best {
				return
			}
			i := bits.TrailingZeros32(cand)
			cand &^= 1 << uint(i)
			rec(cand&compat[i], size+1)
		}
	}
	rec(uint32(1)<<uint(len(sets))-1, 0)
	if best > need {
		return need
	}
	return best
}

// greedyDisjointChains is the seed's deterministic greedy packing:
// smallest media set first, lexicographic tie-break.
func greedyDisjointChains(sets [][]arch.MediumID) int {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	taken := make(map[arch.MediumID]bool)
	disjoint := 0
pack:
	for _, set := range sets {
		for _, m := range set {
			if taken[m] {
				continue pack
			}
		}
		for _, m := range set {
			taken[m] = true
		}
		disjoint++
	}
	return disjoint
}

func (s *Schedule) replicaAt(t model.TaskID, index int) *Replica {
	reps := s.Replicas(t)
	if index < 0 || index >= len(reps) {
		return nil
	}
	return reps[index]
}
