package sched

import (
	"cmp"
	"slices"

	"ftbar/internal/model"
)

// DeliveryIndex is a schedule's wiring: its replicas and comms numbered
// once, each processor's program, and what every replica input and every
// hop reads. It groups the comms as the paper's Figure 3 rule reads them
// (DESIGN.md Section 7): the hops carrying one sender replica's value to
// one receiver replica over one edge form a chain, and the chains into
// one receiver replica over one in-edge form a delivery. Both come in one
// canonical order — receiver task, receiver replica, edge, sender
// replica, hop — so the validators, the simulator's plan and the
// executive walk the same sequence, and a validator names the first
// failing delivery in it. Comms are grouped by their fields as they
// stand, so a corrupted view yields the broken chains the validators
// reject. Every Deliveries call builds a new index; it must not be held
// across commits, and its slices must not be modified.
type DeliveryIndex struct {
	// Comms lists every comm by id, medium by medium in sequence order:
	// the comms of medium m are ids MediumStart[m] to MediumStart[m+1].
	Comms       []*Comm
	MediumStart []int32
	Deliveries  []Delivery
	// Prev[c] is the comm before c in its chain: -1 at hop 0, and -1
	// where the chain lacks hop Comms[c].Hop-1, so c never receives data.
	// Sender[c] is the replica id a hop-0 comm reads, replica SrcIndex
	// of its edge's source: -1 at a later hop and where SrcIndex names no
	// replica.
	Prev, Sender []int32

	// Replicas lists every replica by id, task by task in index order:
	// RepStart[t]+i names replica i of task t.
	Replicas []*Replica
	RepStart []int32
	// Programs[p] lists the ids of the replicas processor p runs, in
	// program order.
	Programs [][]int32
	// Inputs lists every replica's inputs, one per in-edge in
	// TaskGraph.InView order: replica r reads
	// Inputs[InputStart[r]:InputStart[r+1]].
	Inputs     []Input
	InputStart []int32
}

// Input is what one replica reads over one in-edge: the copies its
// delivery brings, or else the source task's replica on its own
// processor.
type Input struct {
	Edge model.TaskEdgeID
	// Arrivals are the delivery's last-hop comms, in canonical order.
	Arrivals []int32
	// Local is, when Arrivals is empty, the replica of the edge's source
	// that ReplicaOn finds on the reader's processor; -1 when there is
	// none or when comms serve the input.
	Local int32
}

// Delivery is one receiver replica's input over one in-edge.
type Delivery struct {
	Task   model.TaskID // the receiving task, the edge's destination
	Index  int          // the receiving replica
	Edge   model.TaskEdgeID
	Chains []Chain // one per sender replica, in index order
}

// Chain is one copy of a delivery: the ids of the comms leaving sender
// replica SrcIndex, in Hop order.
type Chain struct {
	SrcIndex int
	Hops     []int32
}

// hopKey places one comm in the canonical order; the comm id breaks
// ties, so duplicated hops of a corrupted view sort deterministically.
type hopKey struct {
	task          model.TaskID
	edge          model.TaskEdgeID
	dst, src, hop int
	id            int32
}

func compareHopKeys(a, b hopKey) int {
	switch {
	case a.task != b.task:
		return cmp.Compare(a.task, b.task)
	case a.dst != b.dst:
		return cmp.Compare(a.dst, b.dst)
	case a.edge != b.edge:
		return cmp.Compare(a.edge, b.edge)
	case a.src != b.src:
		return cmp.Compare(a.src, b.src)
	case a.hop != b.hop:
		return cmp.Compare(a.hop, b.hop)
	}
	return cmp.Compare(a.id, b.id)
}

// Deliveries builds the delivery index of the schedule's current view in
// one pass over its medium sequences, one over its replicas and one over
// their inputs.
func (s *Schedule) Deliveries() *DeliveryIndex {
	v := s.viewRO()
	ix := &DeliveryIndex{MediumStart: make([]int32, len(v.mediumSeq)+1)}
	for m, seq := range v.mediumSeq {
		ix.MediumStart[m+1] = ix.MediumStart[m] + int32(len(seq))
	}
	n := int(ix.MediumStart[len(v.mediumSeq)])
	ix.Replicas, ix.RepStart = v.byTask, v.repStart
	ix.Comms, ix.Sender = make([]*Comm, 0, n), make([]int32, 0, n)
	keys := make([]hopKey, 0, n)
	for _, seq := range v.mediumSeq {
		for _, c := range seq {
			edge := s.tasks.Edge(c.Edge)
			keys = append(keys, hopKey{task: edge.Dst, edge: c.Edge,
				dst: c.DstIndex, src: c.SrcIndex, hop: c.Hop, id: int32(len(ix.Comms))})
			ix.Comms = append(ix.Comms, c)
			sender := int32(-1)
			if first := ix.RepStart[edge.Src]; c.Hop == 0 && c.SrcIndex >= 0 && first+int32(c.SrcIndex) < ix.RepStart[edge.Src+1] {
				sender = first + int32(c.SrcIndex)
			}
			ix.Sender = append(ix.Sender, sender)
		}
	}
	slices.SortFunc(keys, compareHopKeys)
	// Chains, deliveries and arrivals are windows of arrays that never
	// grow past n entries, so no append moves a window taken earlier.
	hops, chains := make([]int32, n), make([]Chain, 0, n)
	ix.Prev = make([]int32, n)
	c0, h0 := 0, 0 // the current delivery's first chain, the current chain's first hop
	for i, k := range keys {
		hops[i] = k.id
		p := keys[max(i-1, 0)]
		newDelivery := i == 0 || k.task != p.task || k.dst != p.dst || k.edge != p.edge
		if newDelivery {
			ix.Deliveries = append(ix.Deliveries, Delivery{Task: k.task, Index: k.dst, Edge: k.edge})
			c0 = len(chains)
		}
		newChain := newDelivery || k.src != p.src
		if newChain {
			chains = append(chains, Chain{SrcIndex: k.src})
			h0 = i
		}
		chains[len(chains)-1].Hops = hops[h0 : i+1 : i+1]
		ix.Deliveries[len(ix.Deliveries)-1].Chains = chains[c0:len(chains):len(chains)]
		ix.Prev[k.id] = -1
		if !newChain && k.hop > 0 && p.hop == k.hop-1 {
			ix.Prev[k.id] = p.id
		}
	}

	program := make([]int32, 0, len(v.reps))
	ix.Programs = make([][]int32, len(v.procSeq))
	for p, seq := range v.procSeq {
		start := len(program)
		for _, r := range seq {
			program = append(program, ix.RepStart[r.Task]+int32(r.Index))
		}
		ix.Programs[p] = program[start:len(program):len(program)]
	}

	// Inputs come in the deliveries' order (task, replica, edge): Compile
	// appends a task's in-edges in id order, so one cursor walks both.
	arrivals := make([]int32, 0, n)
	nIn := 0
	for _, r := range ix.Replicas {
		nIn += s.tasks.NumIn(r.Task)
	}
	ix.Inputs = make([]Input, 0, nIn)
	ix.InputStart = make([]int32, len(ix.Replicas)+1)
	d := 0
	for r, rep := range ix.Replicas {
		for _, e := range s.tasks.InView(rep.Task) {
			for d < len(ix.Deliveries) && compareInput(ix.Deliveries[d], rep, e) < 0 {
				d++
			}
			a0 := len(arrivals)
			if d < len(ix.Deliveries) && compareInput(ix.Deliveries[d], rep, e) == 0 {
				for _, ch := range ix.Deliveries[d].Chains {
					for _, id := range ch.Hops {
						if ix.Comms[id].LastHop {
							arrivals = append(arrivals, id)
						}
					}
				}
			}
			in := Input{Edge: e, Arrivals: arrivals[a0:len(arrivals):len(arrivals)], Local: -1}
			if len(in.Arrivals) == 0 {
				src := s.tasks.Edge(e).Src
				if l := s.slab.repOn(int(src), int(rep.Proc)); l >= 0 {
					in.Local = ix.RepStart[src] + s.slab.repIndex[l]
				}
			}
			ix.Inputs = append(ix.Inputs, in)
		}
		ix.InputStart[r+1] = int32(len(ix.Inputs))
	}
	return ix
}

// Order lists every replica (as its id r) and comm (as ^c) after every
// item it reads: a replica after the replica before it in its processor's
// program, its inputs' arrivals and its local sources; a comm after the
// comm before it in its medium's sequence and its source, Sender[c] at
// hop 0 and Prev[c] after. It returns nil when no such order exists: the
// wiring has a cycle, or a comm lacks its source. A schedule built
// append-only has an order, since every item reads only items committed
// before it. The order is computed on every call and not kept in the
// index.
func (ix *DeliveryIndex) Order() []int32 {
	nR := int32(len(ix.Replicas))
	before := make([]int32, nR) // the replica before r in its program, -1 first
	for r := range before {
		before[r] = -1
	}
	for _, prog := range ix.Programs {
		for i := 1; i < len(prog); i++ {
			before[prog[i]] = prog[i-1]
		}
	}
	// mark is 1 while an item's predecessors are being placed (meeting it
	// again closes a cycle) and 2 once it is placed.
	mark := make([]uint8, int(nR)+len(ix.Comms))
	order := make([]int32, 0, len(mark))
	var place func(item int32) bool
	place = func(item int32) bool {
		slot := item
		if item < 0 {
			slot = nR + ^item
		}
		switch mark[slot] {
		case 1:
			return false
		case 2:
			return true
		}
		mark[slot] = 1
		if item >= 0 {
			if before[item] >= 0 && !place(before[item]) {
				return false
			}
			for _, in := range ix.Inputs[ix.InputStart[item]:ix.InputStart[item+1]] {
				for _, c := range in.Arrivals {
					if !place(^c) {
						return false
					}
				}
				if in.Local >= 0 && !place(in.Local) {
					return false
				}
			}
		} else {
			c, hop0 := ^item, ix.Comms[^item].Hop == 0
			src := ix.Prev[c]
			if hop0 {
				src = ix.Sender[c]
			}
			if src < 0 {
				return false
			}
			if !hop0 {
				src = ^src
			}
			if _, first := slices.BinarySearch(ix.MediumStart, c); !first && !place(^(c-1)) || !place(src) {
				return false
			}
		}
		mark[slot] = 2
		order = append(order, item)
		return true
	}
	for r := int32(0); r < nR; r++ {
		if !place(r) {
			return nil
		}
	}
	for c := range ix.Comms {
		if !place(^int32(c)) {
			return nil
		}
	}
	return order
}

// compareInput orders delivery d against replica r's input over edge e in
// the canonical order.
func compareInput(d Delivery, r *Replica, e model.TaskEdgeID) int {
	return cmp.Or(cmp.Compare(d.Task, r.Task), cmp.Compare(d.Index, r.Index), cmp.Compare(d.Edge, e))
}

// walkOrder returns c's hop ids in id order, the order in which a walk of
// the medium sequences meets them, in buf. The packing rules list a
// chain's media and relays in this order: their greedy fallbacks beyond
// 16 chains depend on it.
func walkOrder(buf []int32, c Chain) []int32 {
	buf = append(buf[:0], c.Hops...)
	slices.Sort(buf)
	return buf
}
