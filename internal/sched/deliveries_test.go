package sched

import (
	"math/rand"
	"slices"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// checkIndex asserts the delivery index of s groups every comm of the view
// exactly once, in the canonical order, and wires it as the pointer view
// reads: replicas as Replicas numbers them, programs as ProcSeq lists
// them, every input to its delivery's last hops or else to ReplicaOn's
// replica, every hop 0 to its sender replica and every later hop to the
// one before it.
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
		for ci, ch := range d.Chains {
			for hi, id := range ch.Hops {
				wantPrev := int32(-1)
				if hi > 0 && ix.Comms[id].Hop > 0 && ix.Comms[ch.Hops[hi-1]].Hop == ix.Comms[id].Hop-1 {
					wantPrev = ch.Hops[hi-1]
				}
				if ix.Prev[id] != wantPrev {
					t.Fatalf("comm %d: previous hop %d, want %d", id, ix.Prev[id], wantPrev)
				}
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
	checkWiring(t, s, ix)
	checkOrder(t, ix)
}

// checkOrder holds ix.Order to Kahn's algorithm on the same dependency
// graph: an order exists exactly when every comm has a source and the
// graph has no cycle, and a returned order lists every replica (as r) and
// comm (as ^c) once, each after every item it reads.
func checkOrder(t *testing.T, ix *DeliveryIndex) {
	t.Helper()
	nR := len(ix.Replicas)
	slot := func(item int32) int {
		if item < 0 {
			return nR + int(^item)
		}
		return int(item)
	}
	n := nR + len(ix.Comms)
	reads := make([][]int32, n)
	for _, prog := range ix.Programs {
		for i := 1; i < len(prog); i++ {
			reads[prog[i]] = append(reads[prog[i]], prog[i-1])
		}
	}
	for r := 0; r < nR; r++ {
		for _, in := range ix.Inputs[ix.InputStart[r]:ix.InputStart[r+1]] {
			for _, c := range in.Arrivals {
				reads[r] = append(reads[r], ^c)
			}
			if in.Local >= 0 {
				reads[r] = append(reads[r], in.Local)
			}
		}
	}
	sourced := true
	for m := range ix.MediumStart[:len(ix.MediumStart)-1] {
		for c := ix.MediumStart[m]; c < ix.MediumStart[m+1]; c++ {
			k := slot(^c)
			if c > ix.MediumStart[m] {
				reads[k] = append(reads[k], ^(c - 1))
			}
			switch {
			case ix.Comms[c].Hop == 0 && ix.Sender[c] >= 0:
				reads[k] = append(reads[k], ix.Sender[c])
			case ix.Comms[c].Hop != 0 && ix.Prev[c] >= 0:
				reads[k] = append(reads[k], ^ix.Prev[c])
			default:
				sourced = false
			}
		}
	}
	waiting := make([]int, n)
	readers := make([][]int, n)
	for k, rs := range reads {
		waiting[k] = len(rs)
		for _, item := range rs {
			readers[slot(item)] = append(readers[slot(item)], k)
		}
	}
	var ready []int
	for k := range waiting {
		if waiting[k] == 0 {
			ready = append(ready, k)
		}
	}
	placed := 0
	for ; len(ready) > 0; placed++ {
		k := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, u := range readers[k] {
			if waiting[u]--; waiting[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	order := ix.Order()
	if want := sourced && placed == n; (order != nil) != want {
		t.Fatalf("Order returned %d items; every comm sourced %v, %d of %d items sort", len(order), sourced, placed, n)
	}
	if order == nil {
		return
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, item := range order {
		if k := slot(item); pos[k] < 0 {
			pos[k] = i
		} else {
			t.Fatalf("item %d listed twice", item)
		}
	}
	for k, rs := range reads {
		if pos[k] < 0 {
			t.Fatalf("slot %d missing from the order", k)
		}
		for _, item := range rs {
			if pos[slot(item)] > pos[k] {
				t.Fatalf("slot %d ordered before item %d it reads", k, item)
			}
		}
	}
}

// checkWiring asserts the replica, program, input and sender fields of ix
// against the pointer view of s.
func checkWiring(t *testing.T, s *Schedule, ix *DeliveryIndex) {
	t.Helper()
	nT := s.tasks.NumTasks()
	if len(ix.RepStart) != nT+1 || int(ix.RepStart[nT]) != len(ix.Replicas) || len(ix.InputStart) != len(ix.Replicas)+1 {
		t.Fatalf("%d task bounds, %d replicas, %d input bounds", len(ix.RepStart), len(ix.Replicas), len(ix.InputStart))
	}
	arrived := make([]bool, len(ix.Comms))
	for task := model.TaskID(0); int(task) < nT; task++ {
		reps := s.Replicas(task)
		if int(ix.RepStart[task+1]-ix.RepStart[task]) != len(reps) {
			t.Fatalf("task %d: %d replica ids, want %d", task, ix.RepStart[task+1]-ix.RepStart[task], len(reps))
		}
		for i, r := range reps {
			id := ix.RepStart[task] + int32(i)
			if ix.Replicas[id] != r {
				t.Fatalf("replica id %d is not replica %d of task %d", id, i, task)
			}
			ins := ix.Inputs[ix.InputStart[id]:ix.InputStart[id+1]]
			if len(ins) != s.tasks.NumIn(task) {
				t.Fatalf("replica %d of task %d: %d inputs, want %d", i, task, len(ins), s.tasks.NumIn(task))
			}
			for k, e := range s.tasks.InView(task) {
				in := ins[k]
				var want []int32
				for _, d := range ix.Deliveries {
					if d.Task == task && d.Index == i && d.Edge == e {
						for _, ch := range d.Chains {
							for _, c := range ch.Hops {
								if ix.Comms[c].LastHop {
									want = append(want, c)
								}
							}
						}
					}
				}
				if in.Edge != e || !slices.Equal(in.Arrivals, want) {
					t.Fatalf("replica %d of task %d, edge %d: input %+v, want edge %d arrivals %v", i, task, e, in, e, want)
				}
				for _, c := range want {
					arrived[c] = true
				}
				wantLocal := int32(-1)
				if local := s.ReplicaOn(s.tasks.Edge(e).Src, r.Proc); local != nil && len(want) == 0 {
					wantLocal = ix.RepStart[local.Task] + int32(local.Index)
				}
				if in.Local != wantLocal {
					t.Fatalf("replica %d of task %d, edge %d: local source %d, want %d", i, task, e, in.Local, wantLocal)
				}
			}
		}
	}
	if len(ix.Sender) != len(ix.Comms) {
		t.Fatalf("%d senders for %d comms", len(ix.Sender), len(ix.Comms))
	}
	for id, c := range ix.Comms {
		edge := s.tasks.Edge(c.Edge)
		names := c.DstIndex >= 0 && c.DstIndex < s.NumReplicas(edge.Dst)
		if c.LastHop && names != arrived[id] {
			t.Fatalf("last hop %d (%+v) arrives at an input: %v, names a replica: %v", id, *c, arrived[id], names)
		}
		var sender *Replica
		if reps := s.Replicas(edge.Src); c.Hop == 0 && c.SrcIndex >= 0 && c.SrcIndex < len(reps) {
			sender = reps[c.SrcIndex]
		}
		if got := ix.Sender[id]; (got < 0) != (sender == nil) || got >= 0 && ix.Replicas[got] != sender {
			t.Fatalf("comm %d (%+v): sender replica id %d", id, *c, got)
		}
	}
	for p := range ix.Programs {
		seq := s.ProcSeq(arch.ProcID(p))
		if len(ix.Programs[p]) != len(seq) {
			t.Fatalf("processor %d: program of %d, want %d", p, len(ix.Programs[p]), len(seq))
		}
		for j, id := range ix.Programs[p] {
			if ix.Replicas[id] != seq[j] {
				t.Fatalf("processor %d position %d: replica id %d is another replica", p, j, id)
			}
		}
	}
}

// TestDeliveryIndex checks the index and its order on greedy schedules of
// every oracle topology and budget, as planned (which must have an order)
// and after view corruptions that duplicate hops, renumber them or move
// comms between media.
func TestDeliveryIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	unordered := 0
	for topo := range oracleTopologies {
		for budget := range oracleBudgets {
			s := oracleSchedule(t, topo, rng.Intn(4), budget, 12, int64(1+rng.Intn(9)))
			checkIndex(t, s)
			if s.Deliveries().Order() == nil {
				t.Fatalf("topology %d, budget %d: a planned schedule has no order", topo, budget)
			}
			for trial := 0; trial < 6; trial++ {
				c := s.Clone()
				for k := 0; k < 3; k++ {
					corruptView(c, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
				}
				checkIndex(t, c)
				if c.Deliveries().Order() == nil {
					unordered++
				}
			}
		}
	}
	if unordered == 0 {
		t.Error("no corruption left the wiring without an order")
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
