package sched

import (
	"fmt"
	"math/bits"
	"sort"

	"ftbar/internal/arch"
)

// This file implements the joint-survivability packing rule of the
// combined processor+medium fault model (DESIGN.md Section 12). The
// Section 10/11 media-diversity rule treats the two halves of the budget
// independently: Npf+1 sender replicas against processor crashes, Nmf+1
// media-disjoint chains against medium crashes. What it never examined is
// the coupling that store-and-forward relays introduce: a relayed chain
// dies when its relay processor crashes, so a joint adversary can spend
// its processor budget on relays and its medium budget on the direct
// chains — killing every copy of an input with a crash set the two
// separate rules both tolerate. ValidateJoint rules that attack out: no
// crash of at most Npf relay processors plus at most Nmf media may disable
// every delivery chain of any input. It does not close the coupling
// through sender processors (see ValidateJoint).

// jointChain is one delivery chain of a (replica, in-edge) pair reduced to
// its failure domains: the media it crosses and the relay processors it
// stores-and-forwards through (the sender and receiver processors are
// deliberately excluded — their crashes are the replica budget's concern,
// handled by the Npf+1 copies of task and comm alike).
type jointChain struct {
	relays []arch.ProcID
	media  []arch.MediumID
}

// jointAttack is a witness crash set that disables every chain of a
// delivery: at most Npf processors and Nmf media.
type jointAttack struct {
	procs []arch.ProcID
	media []arch.MediumID
}

// ValidateJoint checks every Validate invariant plus the joint relay
// survivability rule: for every replica and every in-edge served by
// comms, every crash of at most Npf relay processors and at most Nmf media
// must leave at least one delivery chain with all its relay processors and
// all its media alive. The search for a killing
// crash set is exact for up to 16 chains per delivery (a budgeted
// hitting-set branch over the first surviving chain's elements, complete
// because every successful attack must disable that chain too); beyond 16
// chains a sound greedy certificate is required instead (enough relay-free
// media-disjoint chains, or enough chains pairwise disjoint across both
// domains), so acceptance always guarantees the rule. With Nmf = 0 the
// rule is void and ValidateJoint is exactly Validate. An error names the
// first vulnerable delivery in the delivery index's canonical order.
//
// Passing it does not certify combined masking: its attacks leave out
// sender and receiver processors, so one copy's sender plus another
// copy's medium is never tried. On dualbus4 {1,1} problems (N = 16;
// layered, fork-join, matmul and chain families, seeds 1–10) all 40
// planned schedules pass it, yet under sim.CrashSetsMasked at t = 0, 37
// lose outputs under some of their 8 (1 processor, 1 medium) crash sets,
// masking only 2 to 7 of them (DESIGN.md Section 12).
//
// ValidateJoint is deliberately a second, stricter gate rather than part
// of Validate: on topologies whose every disjoint fan needs relays (a
// ring receiver whose senders are not both neighbours) the rule is
// unsatisfiable with Npf+1 copies, and folding it into the feasibility
// gate would reject schedules whose pure-processor and pure-medium
// guarantees are intact and useful. The combined sweep and the joint
// reliability evaluator measure what a schedule actually masks
// (DESIGN.md Section 12).
func (s *Schedule) ValidateJoint() error {
	ix := s.Deliveries()
	if err := s.validate(ix); err != nil {
		return err
	}
	return s.validateJointSurvivability(ix)
}

// validateJointSurvivability enforces the joint packing rule over every
// comm-served delivery.
func (s *Schedule) validateJointSurvivability(ix *DeliveryIndex) error {
	if s.faults.Nmf == 0 {
		return nil
	}
	var set []jointChain
	var ids []int32
	for _, d := range ix.Deliveries {
		set = set[:0]
		for _, ch := range d.Chains {
			var jc jointChain
			ids = walkOrder(ids, ch)
			for _, id := range ids {
				c := ix.Comms[id]
				jc.media = append(jc.media, c.Medium)
				if !c.LastHop {
					jc.relays = append(jc.relays, c.To)
				}
			}
			set = append(set, jc)
		}
		// Canonical chain order keeps the search, and so the attack the
		// witness names, a function of the delivery's chains alone.
		sort.Slice(set, func(i, j int) bool { return chainLess(set[i], set[j]) })
		attack, vulnerable := findJointAttack(set, s.faults.Npf, s.faults.Nmf)
		if !vulnerable {
			continue
		}
		return fmt.Errorf("%w: replica %q#%d: edge %s: crashing procs %v + media %v disables all %d delivery chains (joint survivability)",
			ErrInvalid, s.tasks.Task(d.Task).Name, d.Index,
			s.problem.Alg.EdgeName(s.tasks.Edge(d.Edge).Orig),
			s.procNames(attack.procs), s.mediumNames(attack.media), len(set))
	}
	return nil
}

func (s *Schedule) procNames(ids []arch.ProcID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = s.problem.Arc.Proc(id).Name
	}
	return out
}

func (s *Schedule) mediumNames(ids []arch.MediumID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = s.problem.Arc.Medium(id).Name
	}
	return out
}

// chainLess orders chains by (media, relays) lexicographically.
func chainLess(a, b jointChain) bool {
	for i := 0; i < len(a.media) && i < len(b.media); i++ {
		if a.media[i] != b.media[i] {
			return a.media[i] < b.media[i]
		}
	}
	if len(a.media) != len(b.media) {
		return len(a.media) < len(b.media)
	}
	for i := 0; i < len(a.relays) && i < len(b.relays); i++ {
		if a.relays[i] != b.relays[i] {
			return a.relays[i] < b.relays[i]
		}
	}
	return len(a.relays) < len(b.relays)
}

// findJointAttack searches for a crash set of at most npf processors and
// nmf media that disables every chain. For up to 16 chains the search is
// exact; beyond that it falls back to a sound certificate check (see
// jointGreedySafe) and reports vulnerable with an empty witness when the
// certificate is missing — never accepting a vulnerable delivery.
func findJointAttack(set []jointChain, npf, nmf int) (jointAttack, bool) {
	if len(set) > 16 {
		if jointGreedySafe(set, npf, nmf) {
			return jointAttack{}, false
		}
		return jointAttack{}, true
	}
	alive := uint32(1)<<uint(len(set)) - 1
	var attack jointAttack
	if killAll(set, alive, npf, nmf, &attack) {
		return attack, true
	}
	return jointAttack{}, false
}

// killAll reports whether the adversary can disable every alive chain
// within the remaining budgets, recording the successful crash set in
// attack. It branches on the elements of the lowest-indexed alive chain:
// any successful attack must disable that chain through one of its relay
// processors or media, so the branch set is complete and the search exact.
func killAll(set []jointChain, alive uint32, npf, nmf int, attack *jointAttack) bool {
	if alive == 0 {
		return true
	}
	i := bits.TrailingZeros32(alive)
	ch := set[i]
	if npf > 0 {
		for _, p := range ch.relays {
			attack.procs = append(attack.procs, p)
			if killAll(set, surviveProc(set, alive, p), npf-1, nmf, attack) {
				return true
			}
			attack.procs = attack.procs[:len(attack.procs)-1]
		}
	}
	if nmf > 0 {
		for _, m := range ch.media {
			attack.media = append(attack.media, m)
			if killAll(set, surviveMedium(set, alive, m), npf, nmf-1, attack) {
				return true
			}
			attack.media = attack.media[:len(attack.media)-1]
		}
	}
	return false
}

// surviveProc clears the alive bits of chains relayed through processor p.
func surviveProc(set []jointChain, alive uint32, p arch.ProcID) uint32 {
	for i := range set {
		if alive&(1<<uint(i)) == 0 {
			continue
		}
		for _, q := range set[i].relays {
			if q == p {
				alive &^= 1 << uint(i)
				break
			}
		}
	}
	return alive
}

// surviveMedium clears the alive bits of chains crossing medium m.
func surviveMedium(set []jointChain, alive uint32, m arch.MediumID) uint32 {
	for i := range set {
		if alive&(1<<uint(i)) == 0 {
			continue
		}
		for _, x := range set[i].media {
			if x == m {
				alive &^= 1 << uint(i)
				break
			}
		}
	}
	return alive
}

// jointGreedySafe is the sound >16-chain fallback: it accepts only when a
// certificate guarantees survivability. Either Nmf+1 relay-free chains
// with pairwise-disjoint media exist (processor crashes cannot touch them
// and Nmf media kill at most Nmf of them), or Npf+Nmf+1 chains pairwise
// disjoint across both failure domains exist (every crashed unit kills at
// most one of them). Both counts come from the deterministic greedy
// packing, which never over-counts.
func jointGreedySafe(set []jointChain, npf, nmf int) bool {
	var relayFree [][]arch.MediumID
	for _, ch := range set {
		if len(ch.relays) == 0 {
			relayFree = append(relayFree, ch.media)
		}
	}
	if greedyDisjointChains(relayFree) >= nmf+1 {
		return true
	}
	// Encode relays and media into one element space (procs negated below
	// -1) and reuse the greedy media packing.
	combined := make([][]arch.MediumID, len(set))
	for i, ch := range set {
		elems := append([]arch.MediumID(nil), ch.media...)
		for _, p := range ch.relays {
			elems = append(elems, arch.MediumID(-2-int(p)))
		}
		combined[i] = elems
	}
	return greedyDisjointChains(combined) >= npf+nmf+1
}
