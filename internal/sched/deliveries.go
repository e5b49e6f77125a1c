package sched

import (
	"cmp"
	"slices"

	"ftbar/internal/model"
)

// DeliveryIndex groups a schedule's comms as the paper's Figure 3 rule
// reads them (DESIGN.md Section 7): the hops carrying one sender
// replica's value to one receiver replica over one edge form a chain, and
// the chains into one receiver replica over one in-edge form a delivery.
// Both come in one canonical order — receiver task, receiver replica,
// edge, sender replica, hop — so the validators, the simulator's plan and
// the executive walk the same sequence, and a validator names the first
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
// one pass over its medium sequences.
func (s *Schedule) Deliveries() *DeliveryIndex {
	v := s.viewRO()
	ix := &DeliveryIndex{MediumStart: make([]int32, len(v.mediumSeq)+1)}
	for m, seq := range v.mediumSeq {
		ix.MediumStart[m+1] = ix.MediumStart[m] + int32(len(seq))
	}
	n := int(ix.MediumStart[len(v.mediumSeq)])
	ix.Comms = make([]*Comm, 0, n)
	keys := make([]hopKey, 0, n)
	for _, seq := range v.mediumSeq {
		for _, c := range seq {
			keys = append(keys, hopKey{task: s.tasks.Edge(c.Edge).Dst, edge: c.Edge,
				dst: c.DstIndex, src: c.SrcIndex, hop: c.Hop, id: int32(len(ix.Comms))})
			ix.Comms = append(ix.Comms, c)
		}
	}
	slices.SortFunc(keys, compareHopKeys)
	// Chains and deliveries are windows of two arrays that never grow
	// past n entries, so no append moves a window taken earlier.
	hops, chains := make([]int32, n), make([]Chain, 0, n)
	c0, h0 := 0, 0 // the current delivery's first chain, the current chain's first hop
	for i, k := range keys {
		hops[i] = k.id
		p := keys[max(i-1, 0)]
		newDelivery := i == 0 || k.task != p.task || k.dst != p.dst || k.edge != p.edge
		if newDelivery {
			ix.Deliveries = append(ix.Deliveries, Delivery{Task: k.task, Index: k.dst, Edge: k.edge})
			c0 = len(chains)
		}
		if newDelivery || k.src != p.src {
			chains = append(chains, Chain{SrcIndex: k.src})
			h0 = i
		}
		chains[len(chains)-1].Hops = hops[h0 : i+1 : i+1]
		ix.Deliveries[len(ix.Deliveries)-1].Chains = chains[c0:len(chains):len(chains)]
	}
	return ix
}

// Find returns the position in Deliveries of replica index of task t's
// delivery over in-edge e, or -1 when no comm serves that input.
func (ix *DeliveryIndex) Find(t model.TaskID, index int, e model.TaskEdgeID) int {
	// The comparison carries the target itself, so the searched value is
	// an empty placeholder.
	i, ok := slices.BinarySearchFunc(ix.Deliveries, struct{}{}, func(d Delivery, _ struct{}) int {
		switch {
		case d.Task != t:
			return cmp.Compare(d.Task, t)
		case d.Index != index:
			return cmp.Compare(d.Index, index)
		}
		return cmp.Compare(d.Edge, e)
	})
	if !ok {
		return -1
	}
	return i
}

// AppendArrivals appends to dst the ids of d's last-hop comms: the copies
// that reach the receiver, in canonical order.
func (ix *DeliveryIndex) AppendArrivals(dst []int32, d Delivery) []int32 {
	for _, ch := range d.Chains {
		for _, id := range ch.Hops {
			if ix.Comms[id].LastHop {
				dst = append(dst, id)
			}
		}
	}
	return dst
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
