package sched

import (
	"math/rand"
	"testing"

	"ftbar/internal/arch"
)

// checkIndex asserts the delivery index of s groups every comm of the view
// exactly once, in the canonical order, and that Find locates every
// delivery.
func checkIndex(t *testing.T, s *Schedule) {
	t.Helper()
	ix := s.Deliveries()
	id := int32(0)
	for m := 0; m < s.problem.Arc.NumMedia(); m++ {
		lo, hi := ix.MediumStart[m], ix.MediumStart[m+1]
		seq := s.MediumSeq(arch.MediumID(m))
		if lo != id || int(hi-lo) != len(seq) {
			t.Fatalf("medium %d: ids [%d, %d), want [%d, %d)", m, lo, hi, id, id+int32(len(seq)))
		}
		for i, c := range seq {
			if ix.Comms[lo+int32(i)] != c {
				t.Fatalf("medium %d position %d: index holds another comm", m, i)
			}
		}
		id = hi
	}
	seen := make([]bool, len(ix.Comms))
	var prev hopKey
	for di, d := range ix.Deliveries {
		if got := ix.Find(d.Task, d.Index, d.Edge); got != di {
			t.Fatalf("Find(%d, %d, %d) = %d, want %d", d.Task, d.Index, d.Edge, got, di)
		}
		for ci, ch := range d.Chains {
			for hi, id := range ch.Hops {
				c := ix.Comms[id]
				k := hopKey{task: s.tasks.Edge(c.Edge).Dst, edge: c.Edge, dst: c.DstIndex, src: c.SrcIndex, hop: c.Hop, id: id}
				if k.task != d.Task || k.dst != d.Index || k.edge != d.Edge || k.src != ch.SrcIndex {
					t.Fatalf("comm %d (%+v) grouped under delivery %+v, chain from %d", id, *c, d, ch.SrcIndex)
				}
				first := di == 0 && ci == 0 && hi == 0
				if !first && compareHopKeys(prev, k) >= 0 {
					t.Fatalf("comm %d out of canonical order after %+v", id, prev)
				}
				startsChain := hi == 0 && !first
				if startsChain && prev.task == k.task && prev.dst == k.dst && prev.edge == k.edge && prev.src == k.src {
					t.Fatalf("chain from %d of %+v split in two", ch.SrcIndex, d)
				}
				if seen[id] {
					t.Fatalf("comm %d grouped twice", id)
				}
				seen[id], prev = true, k
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("comm %d in no chain", id)
		}
	}
	if ix.Find(0, -7, 0) != -1 {
		t.Fatal("Find located a delivery no comm serves")
	}
}

// TestDeliveryIndex checks the index on greedy schedules of every oracle
// topology and budget, as planned and after view corruptions that
// duplicate hops, renumber them or move comms between media.
func TestDeliveryIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for topo := range oracleTopologies {
		for budget := range oracleBudgets {
			s := oracleSchedule(t, topo, rng.Intn(4), budget, 12, int64(1+rng.Intn(9)))
			checkIndex(t, s)
			for trial := 0; trial < 6; trial++ {
				c := s.Clone()
				for k := 0; k < 3; k++ {
					corruptView(c, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				}
				checkIndex(t, c)
			}
		}
	}
}

// failingDeliveries counts the deliveries of s that fail the diversity
// rule, or the joint rule when joint is set.
func failingDeliveries(s *Schedule, joint bool) int {
	ix := s.Deliveries()
	need := s.faults.Nmf + 1
	n := 0
	for _, d := range ix.Deliveries {
		var set []jointChain
		var sets [][]arch.MediumID
		for _, ch := range d.Chains {
			var jc jointChain
			for _, id := range ch.Hops {
				c := ix.Comms[id]
				jc.media = append(jc.media, c.Medium)
				if !c.LastHop {
					jc.relays = append(jc.relays, c.To)
				}
			}
			set, sets = append(set, jc), append(sets, jc.media)
		}
		if joint {
			if _, vulnerable := findJointAttack(set, s.faults.Npf, s.faults.Nmf); vulnerable {
				n++
			}
		} else if maxDisjointChains(sets, need) < need {
			n++
		}
	}
	return n
}

// TestValidateWitnessDeterministic calls Validate and ValidateJoint 20
// times each on schedules with several failing deliveries and requires
// one error text: the first failing delivery in canonical order. The
// Validate cases are dualbus4 schedules planned at Nmf = 0 and validated
// at Nmf = 1, which fail media diversity; the ValidateJoint cases are
// 5-ring {1,1} schedules that pass Validate and fail the joint rule.
func TestValidateWitnessDeterministic(t *testing.T) {
	const dualbus4, ring5, raised, joint = 4, 2, 4, 1
	var validateCases, jointCases int
	same := func(name string, s *Schedule, validate func() error) {
		t.Helper()
		first := validate()
		if first == nil {
			t.Fatalf("%s accepted the schedule", name)
		}
		for i := 1; i < 20; i++ {
			if err := validate(); errText(err) != first.Error() {
				t.Fatalf("%s call %d: %v\nfirst call: %v", name, i, err, first)
			}
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		for family := 0; family < 4; family++ {
			s := oracleSchedule(t, dualbus4, family, raised, 16, seed)
			if rules, _ := validationRules(s); failingDeliveries(s, false) >= 2 {
				if rule, _ := firstFailure(rules); rule == 6 {
					same("Validate", s, s.Validate)
					validateCases++
				}
			}
			s = oracleSchedule(t, ring5, family, joint, 16, seed)
			if s.Validate() == nil && failingDeliveries(s, true) >= 2 {
				same("ValidateJoint", s, s.ValidateJoint)
				jointCases++
			}
		}
	}
	if validateCases < 5 || jointCases < 5 {
		t.Fatalf("%d Validate and %d ValidateJoint cases with several failing deliveries, want 5 each",
			validateCases, jointCases)
	}
	t.Logf("%d Validate cases, %d ValidateJoint cases", validateCases, jointCases)
}
