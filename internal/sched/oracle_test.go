package sched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ftbar/internal/arch"
	"ftbar/internal/gen"
	"ftbar/internal/model"
	"ftbar/internal/spec"
)

// This file keeps the map-keyed validators that the delivery index
// (deliveries.go) replaced, unchanged, as the reference the differential
// tests compare against: each rebuilds its own chain and delivery maps
// from the medium sequences and walks them in map order.

// oracleValidateHopChains checks multi-hop deliveries are contiguous in
// space and time.
func (s *Schedule) oracleValidateHopChains() error {
	type chainKey struct {
		edge     model.TaskEdgeID
		srcIndex int
		dstIndex int
	}
	chains := make(map[chainKey][]*Comm)
	for m := 0; m < s.slab.nMedia; m++ {
		for _, c := range s.MediumSeq(arch.MediumID(m)) {
			k := chainKey{c.Edge, c.SrcIndex, c.DstIndex}
			chains[k] = append(chains[k], c)
		}
	}
	for k, hops := range chains {
		byHop := make([]*Comm, len(hops))
		for _, c := range hops {
			if c.Hop < 0 || c.Hop >= len(hops) || byHop[c.Hop] != nil {
				return fmt.Errorf("comm chain %v: bad hop numbering", k)
			}
			byHop[c.Hop] = c
		}
		for i := 1; i < len(byHop); i++ {
			if byHop[i].From != byHop[i-1].To {
				return fmt.Errorf("comm chain %v: hop %d discontinuous", k, i)
			}
			if byHop[i].Start < byHop[i-1].End-timeEps {
				return fmt.Errorf("comm chain %v: hop %d starts before hop %d ends", k, i, i-1)
			}
		}
		if !byHop[len(byHop)-1].LastHop {
			return fmt.Errorf("comm chain %v: missing last hop", k)
		}
	}
	return nil
}

// oracleValidateCoverage checks the Figure 3 rule and data availability for
// every replica.
func (s *Schedule) oracleValidateCoverage() error {
	// arrivals[task][index][edge] collects last-hop delivery times.
	arrivals := make(map[model.TaskID]map[int]map[model.TaskEdgeID][]float64)
	for m := 0; m < s.slab.nMedia; m++ {
		for _, c := range s.MediumSeq(arch.MediumID(m)) {
			if !c.LastHop {
				continue
			}
			edge := s.tasks.Edge(c.Edge)
			byIdx, ok := arrivals[edge.Dst]
			if !ok {
				byIdx = make(map[int]map[model.TaskEdgeID][]float64)
				arrivals[edge.Dst] = byIdx
			}
			byEdge, ok := byIdx[c.DstIndex]
			if !ok {
				byEdge = make(map[model.TaskEdgeID][]float64)
				byIdx[c.DstIndex] = byEdge
			}
			byEdge[c.Edge] = append(byEdge[c.Edge], c.End)
		}
	}
	for t := 0; t < s.tasks.NumTasks(); t++ {
		tid := model.TaskID(t)
		for _, r := range s.Replicas(tid) {
			for _, eid := range s.tasks.In(tid) {
				edge := s.tasks.Edge(eid)
				ends := arrivals[tid][r.Index][eid]
				if len(ends) == 0 {
					// The static executive reads this input locally; a
					// co-located predecessor replica must exist and have
					// finished first. (A predecessor duplicated onto the
					// processor *after* this replica was placed does not
					// count: the replica reads from its scheduled comms.)
					local := s.ReplicaOn(edge.Src, r.Proc)
					if local == nil {
						return fmt.Errorf("replica %q#%d: edge %s has no incoming comm and no local source",
							s.tasks.Task(tid).Name, r.Index, s.problem.Alg.EdgeName(edge.Orig))
					}
					if r.Start < local.End-timeEps {
						return fmt.Errorf("replica %q#%d starts %g before local input %q ends %g",
							s.tasks.Task(tid).Name, r.Index, r.Start, s.tasks.Task(edge.Src).Name, local.End)
					}
					continue
				}
				want := s.faults.Npf + 1
				if have := len(s.Replicas(edge.Src)); have < want {
					want = have
				}
				if len(ends) < want {
					return fmt.Errorf("replica %q#%d: edge %s has %d incoming comms, want %d",
						s.tasks.Task(tid).Name, r.Index, s.problem.Alg.EdgeName(edge.Orig), len(ends), want)
				}
				first := math.Inf(1)
				for _, e := range ends {
					first = math.Min(first, e)
				}
				if r.Start < first-timeEps {
					return fmt.Errorf("replica %q#%d starts %g before first input of %s at %g",
						s.tasks.Task(tid).Name, r.Index, r.Start, s.problem.Alg.EdgeName(edge.Orig), first)
				}
			}
		}
	}
	return nil
}

// oracleValidateDiversity enforces the media-diversity guarantee of the
// unified fault model: for every replica and every in-edge served by comms,
// the replicated delivery chains must contain at least Nmf+1 whose media
// sets are pairwise disjoint. Then any nmf ≤ Nmf medium crashes disable at
// most nmf of those chains and at least one copy still arrives — the link
// analogue of the Npf+1 replica rule. The packing is exact for realistic
// chain counts (see maxDisjointChains) and never over-counts, so acceptance
// here is a guarantee, never an approximation — and the multi-hop relay
// chains of the disjoint fan are packed as first-class citizens, not
// penalised for their length. Locally-served edges are exempt:
// intra-processor data never touches a medium. With Nmf = 0 the check is
// void.
func (s *Schedule) oracleValidateDiversity() error {
	if s.faults.Nmf == 0 {
		return nil
	}
	need := s.faults.Nmf + 1
	// chains[dst][dstIndex][edge][srcIndex] collects the media of every
	// delivery chain, one entry per hop.
	type chainKey struct {
		dst      model.TaskID
		dstIndex int
		edge     model.TaskEdgeID
		srcIndex int
	}
	chains := make(map[chainKey][]arch.MediumID)
	for m := 0; m < s.slab.nMedia; m++ {
		for _, c := range s.MediumSeq(arch.MediumID(m)) {
			k := chainKey{s.tasks.Edge(c.Edge).Dst, c.DstIndex, c.Edge, c.SrcIndex}
			chains[k] = append(chains[k], c.Medium)
		}
	}
	type deliveryKey struct {
		dst      model.TaskID
		dstIndex int
		edge     model.TaskEdgeID
	}
	deliveries := make(map[deliveryKey][][]arch.MediumID)
	for k, media := range chains {
		dk := deliveryKey{k.dst, k.dstIndex, k.edge}
		deliveries[dk] = append(deliveries[dk], media)
	}
	for dk, sets := range deliveries {
		disjoint := maxDisjointChains(sets, need)
		if disjoint < need {
			return fmt.Errorf("replica %q#%d: edge %s has %d media-disjoint deliveries, Nmf+1 = %d",
				s.tasks.Task(dk.dst).Name, dk.dstIndex,
				s.problem.Alg.EdgeName(s.tasks.Edge(dk.edge).Orig), disjoint, need)
		}
	}
	return nil
}

// oracleValidateJointSurvivability enforces the joint packing rule over
// every comm-served delivery.
func (s *Schedule) oracleValidateJointSurvivability() error {
	if s.faults.Nmf == 0 {
		return nil
	}
	type deliveryKey struct {
		dst      model.TaskID
		dstIndex int
		edge     model.TaskEdgeID
	}
	type chainKey struct {
		deliveryKey
		srcIndex int
	}
	chains := make(map[chainKey]*jointChain)
	for m := 0; m < s.slab.nMedia; m++ {
		for _, c := range s.MediumSeq(arch.MediumID(m)) {
			k := chainKey{deliveryKey{s.tasks.Edge(c.Edge).Dst, c.DstIndex, c.Edge}, c.SrcIndex}
			ch := chains[k]
			if ch == nil {
				ch = &jointChain{}
				chains[k] = ch
			}
			ch.media = append(ch.media, c.Medium)
			if !c.LastHop {
				ch.relays = append(ch.relays, c.To)
			}
		}
	}
	deliveries := make(map[deliveryKey][]jointChain)
	for k, ch := range chains {
		deliveries[k.deliveryKey] = append(deliveries[k.deliveryKey], *ch)
	}
	for dk, set := range deliveries {
		// Canonical chain order keeps the search — and any witness — stable
		// across map iteration order.
		sort.Slice(set, func(i, j int) bool { return chainLess(set[i], set[j]) })
		attack, vulnerable := findJointAttack(set, s.faults.Npf, s.faults.Nmf)
		if !vulnerable {
			continue
		}
		return fmt.Errorf("%w: replica %q#%d: edge %s: crashing procs %v + media %v disables all %d delivery chains (joint survivability)",
			ErrInvalid, s.tasks.Task(dk.dst).Name, dk.dstIndex,
			s.problem.Alg.EdgeName(s.tasks.Edge(dk.edge).Orig),
			s.procNames(attack.procs), s.mediumNames(attack.media), len(set))
	}
	return nil
}

// jointRule is the position of the joint rule in validationRules.
const jointRule = 7

// validationRules returns Validate's checks in the order it runs them,
// followed by ValidateJoint's joint rule: the production rules on one
// delivery index, and the oracle's. The first four are shared.
func validationRules(s *Schedule) (rules, oracle []func() error) {
	ix := s.Deliveries()
	rules = append(s.checks(ix), func() error { return s.validateJointSurvivability(ix) })
	oracle = append(rules[:4:4], s.oracleValidateHopChains, s.oracleValidateCoverage,
		s.oracleValidateDiversity, s.oracleValidateJointSurvivability)
	return rules, oracle
}

// firstFailure runs rules in order and returns the position of the first
// that fails with its error, or len(rules) and nil.
func firstFailure(rules []func() error) (int, error) {
	for i, rule := range rules {
		if err := rule(); err != nil {
			return i, err
		}
	}
	return len(rules), nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstOracle holds Validate and ValidateJoint to the oracle on s:
// the production rules and the oracle's must first fail at the same rule,
// and Validate and ValidateJoint must report that rule's error.
func checkAgainstOracle(tb testing.TB, s *Schedule) {
	tb.Helper()
	rules, oracle := validationRules(s)
	got, gotErr := firstFailure(rules)
	want, wantErr := firstFailure(oracle)
	if got != want {
		tb.Fatalf("first failing rule %d (%v), oracle %d (%v)", got, gotErr, want, wantErr)
	}
	var validate, joint error
	switch {
	case got < jointRule:
		validate = fmt.Errorf("%w: %v", ErrInvalid, gotErr)
		joint = validate
	case got == jointRule:
		joint = gotErr
	}
	for _, c := range []struct {
		name      string
		got, want error
	}{{"Validate", s.Validate(), validate}, {"ValidateJoint", s.ValidateJoint(), joint}} {
		if errText(c.got) != errText(c.want) || (c.got != nil && !errors.Is(c.got, ErrInvalid)) {
			tb.Fatalf("%s = %v, want %v (rule %d)", c.name, c.got, c.want, got)
		}
	}
}

// greedySchedule places every task of p in topological order on the
// Npf+1 processors whose previews end earliest (ties to the lower id),
// skipping processors the planner refuses, and the write half of a mem on
// its read half's processors. A task left short leaves the schedule
// incomplete, which Validate rejects.
func greedySchedule(tb testing.TB, p *spec.Problem) *Schedule {
	tb.Helper()
	s, err := NewSchedule(p)
	if err != nil {
		tb.Fatal(err)
	}
	tg := s.Tasks()
	readOf := make(map[model.TaskID]model.TaskID)
	for _, mp := range tg.MemPairs() {
		readOf[mp.Write] = mp.Read
	}
	for _, t := range tg.Topo() {
		if read, ok := readOf[t]; ok {
			for i := 0; i < s.NumReplicas(read); i++ {
				if _, err := s.PlaceReplica(t, s.ReplicaProcAt(read, i)); err != nil {
					break
				}
			}
			continue
		}
		for k := 0; k <= p.Npf; k++ {
			best, bestEnd := arch.ProcID(-1), math.Inf(1)
			for q := 0; q < p.Arc.NumProcs(); q++ {
				if s.HasReplicaOn(t, arch.ProcID(q)) {
					continue
				}
				if pl, err := s.Preview(t, arch.ProcID(q)); err == nil && pl.End < bestEnd {
					best, bestEnd = arch.ProcID(q), pl.End
				}
			}
			if best < 0 {
				break
			}
			if _, err := s.PlaceReplica(t, best); err != nil {
				tb.Fatalf("place %d on %d after a clean preview: %v", t, best, err)
			}
		}
	}
	return s
}

// oracleTopologies are the layouts the differential tests plan on, with a
// processor count each shape accepts.
var oracleTopologies = []struct {
	topo  gen.Topology
	procs int
}{
	{gen.TopoFull, 4}, {gen.TopoBus, 3}, {gen.TopoRing, 5}, {gen.TopoStar, 4}, {gen.TopoDualBus, 4},
	{gen.TopoMesh, 6}, {gen.TopoTorus, 9}, {gen.TopoHypercube, 8}, {gen.TopoGeom, 6},
}

// oracleBudgets are the (Npf, Nmf) budgets the problems are planned at,
// and the Nmf each schedule is then validated at: a raised Nmf makes the
// diversity and joint rules fail on many deliveries at once.
var oracleBudgets = []struct{ npf, nmf, validateNmf int }{
	{1, 0, 0}, {1, 1, 1}, {2, 1, 1}, {2, 2, 2}, {1, 0, 1}, {2, 1, 2},
}

// oracleSchedule plans problem (topology, family, budget, seed) greedily
// and raises its validated Nmf as the budget says.
func oracleSchedule(tb testing.TB, topo, family, budget, n int, seed int64) *Schedule {
	tb.Helper()
	tp, b := oracleTopologies[topo], oracleBudgets[budget]
	p, err := gen.Generate(gen.Params{N: n, CCR: 1, Procs: tp.procs, Topology: tp.topo,
		Family: gen.Family(family), Npf: b.npf, Nmf: b.nmf, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	s := greedySchedule(tb, p)
	s.faults.Nmf = b.validateNmf
	return s
}

// corruptView applies one corruption to comm target (modulo the comm
// count) of s's materialised view: op selects dropping the comm, copying
// it onto another medium, or changing its Hop, LastHop, SrcIndex,
// DstIndex, Medium, endpoints or times; v parameterises the change.
func corruptView(s *Schedule, op, target, v byte) {
	view := s.viewRO()
	var all []*Comm
	for _, seq := range view.mediumSeq {
		all = append(all, seq...)
	}
	if len(all) == 0 {
		return
	}
	c := all[int(target)%len(all)]
	nP, nM := s.problem.Arc.NumProcs(), s.problem.Arc.NumMedia()
	delta := float64(int(v)%5-2) * 0.5
	switch op % 12 {
	case 0, 1:
		for m, seq := range view.mediumSeq {
			for i, x := range seq {
				if x == c {
					moved := *c
					view.mediumSeq[m] = append(seq[:i:i], seq[i+1:]...)
					if op%12 == 1 {
						to := int(v) % nM
						moved.Medium = arch.MediumID(to)
						seq := view.mediumSeq[to]
						view.mediumSeq[to] = append(seq[:len(seq):len(seq)], &moved)
					}
					return
				}
			}
		}
	case 2:
		c.Hop = int(v)%4 - 1
	case 3:
		c.LastHop = !c.LastHop
	case 4:
		c.SrcIndex = int(v)%4 - 1
	case 5:
		c.DstIndex = int(v)%4 - 1
	case 6:
		c.Medium = arch.MediumID(int(v) % nM)
	case 7:
		c.From = arch.ProcID(int(v) % nP)
	case 8:
		c.To = arch.ProcID(int(v) % nP)
	case 9:
		c.Start += delta
	case 10:
		c.End += delta
	default:
		c.Start += delta
		c.End += delta
	}
}

// TestValidateMatchesOracle holds Validate and ValidateJoint to the
// map-keyed oracle on greedy schedules of every oracle topology, family
// and budget, first as planned and then under single and triple view
// corruptions.
func TestValidateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	rejected := 0
	for topo := range oracleTopologies {
		for budget := range oracleBudgets {
			for family := 0; family < 4; family++ {
				for seed := int64(1); seed <= 2; seed++ {
					n := 8 + rng.Intn(8)
					s := oracleSchedule(t, topo, family, budget, n, seed)
					checkAgainstOracle(t, s)
					if s.ValidateJoint() != nil {
						rejected++
					}
					for trial := 0; trial < 12; trial++ {
						c := s.Clone()
						for k := 0; k < 1+2*(trial%2); k++ {
							corruptView(c, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
						}
						checkAgainstOracle(t, c)
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Error("no uncorrupted schedule was rejected: the population never reaches the diversity or joint rule's failures")
	}
}

// FuzzValidateAgainstOracle corrupts a greedy schedule through its view,
// three bytes per corruption (see corruptView), and requires the oracle's
// verdict and first failing rule from Validate and ValidateJoint.
func FuzzValidateAgainstOracle(f *testing.F) {
	f.Add(uint8(2), uint8(0), uint8(1), int64(1), []byte{})
	f.Add(uint8(4), uint8(1), uint8(4), int64(2), []byte{3, 5, 0})
	f.Add(uint8(6), uint8(2), uint8(1), int64(3), []byte{2, 7, 9, 0, 1, 1})
	f.Add(uint8(7), uint8(3), uint8(2), int64(4), []byte{1, 4, 3, 11, 0, 2})
	f.Add(uint8(8), uint8(0), uint8(5), int64(5), []byte{5, 2, 3, 8, 6, 1, 6, 3, 1})
	f.Fuzz(func(t *testing.T, topo, family, budget uint8, seed int64, corruptions []byte) {
		s := oracleSchedule(t, int(topo)%len(oracleTopologies), int(family)%4,
			int(budget)%len(oracleBudgets), 6+int(uint64(seed)%9), seed)
		for i := 0; i+2 < len(corruptions) && i < 30; i += 3 {
			corruptView(s, corruptions[i], corruptions[i+1], corruptions[i+2])
		}
		checkAgainstOracle(t, s)
	})
}
