package arch

import (
	"fmt"
	"math"
)

// Hop is one medium traversal of a route: the data moves from From to To
// over Medium. From and To are both endpoints of the medium.
type Hop struct {
	Medium MediumID
	From   ProcID
	To     ProcID
}

// Route is an ordered list of hops from a source processor to a destination
// processor. Non-adjacent processors communicate store-and-forward through
// the intermediate processors' communication units.
type Route []Hop

// RouteTable holds one precomputed route per ordered processor pair.
// Schedulers consult it when a data-dependency must cross processors that
// share no medium. For adjacent pairs the table holds the single cheapest
// hop under the weights given to ComputeRoutes; schedulers remain free to
// evaluate every direct medium instead (and do, for contention).
type RouteTable struct {
	n      int
	routes []Route // index p*n+q
}

// ComputeRoutes runs Dijkstra from every processor using weight(m) as the
// traversal cost of medium m, and returns the resulting table. A nil weight
// function makes every medium cost one hop. Unreachable pairs keep a nil
// route; Route returns ErrNoRoute for them.
//
// A table costs a constant number of allocations whatever the processor
// count: the searches share one dist/settled buffer and one predecessor
// matrix, and every route is a capacity-capped window of one hop array,
// so a caller appending to a route cannot overwrite its neighbour.
func (a *Architecture) ComputeRoutes(weight func(MediumID) float64) (*RouteTable, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if weight == nil {
		weight = func(MediumID) float64 { return 1 }
	}
	w := make([]float64, len(a.media))
	for _, m := range a.media {
		if w[m.ID] = weight(m.ID); w[m.ID] < 0 || math.IsNaN(w[m.ID]) {
			return nil, fmt.Errorf("arch: invalid weight %g for medium %q", w[m.ID], m.Name)
		}
	}
	n := len(a.procs)
	rt := &RouteTable{n: n, routes: make([]Route, n*n)}
	dist := make([]float64, n)
	settled := make([]bool, n)
	// prev[src*n+v] is the last hop of the route from src to v; Medium -1
	// marks v unreached (or v == src).
	prev := make([]Hop, n*n)
	total := 0
	for src := 0; src < n; src++ {
		prev := prev[src*n : (src+1)*n]
		for i := range dist {
			dist[i] = math.Inf(1)
			prev[i] = Hop{Medium: -1}
			settled[i] = false
		}
		dist[src] = 0
		for {
			// Linear scan keeps the code simple; architectures are small
			// (the paper evaluates at most a handful of processors).
			u, best := -1, math.Inf(1)
			for i := 0; i < n; i++ {
				if !settled[i] && dist[i] < best {
					u, best = i, dist[i]
				}
			}
			if u < 0 {
				break
			}
			settled[u] = true
			for _, mid := range a.mediaOf[u] {
				for _, v := range a.media[mid].Endpoints {
					if int(v) == u || settled[v] {
						continue
					}
					if nd := dist[u] + w[mid]; nd < dist[v] {
						dist[v] = nd
						prev[v] = Hop{Medium: mid, From: ProcID(u), To: v}
					}
				}
			}
		}
		for dst := range prev {
			total += routeLen(prev, src, dst)
		}
	}
	hops := make([]Hop, total)
	for src := 0; src < n; src++ {
		prev := prev[src*n : (src+1)*n]
		for dst := range prev {
			k := routeLen(prev, src, dst)
			if k == 0 {
				continue
			}
			route := hops[:k:k]
			hops = hops[k:]
			for at := dst; at != src; at = int(prev[at].From) {
				k--
				route[k] = prev[at]
			}
			rt.routes[src*n+dst] = route
		}
	}
	return rt, nil
}

// routeLen returns the hop count of the route from src to dst recorded in
// one source's predecessor row, or 0 when dst is src or unreached.
func routeLen(prev []Hop, src, dst int) int {
	if prev[dst].Medium < 0 {
		return 0
	}
	k := 0
	for at := dst; at != src; at = int(prev[at].From) {
		k++
	}
	return k
}

// Components labels every processor with the smallest processor id of its
// connected component in the subgraph of the media usable accepts, and
// returns the labels in comp (reallocated when shorter than NumProcs). Two
// processors are joined by a route over usable media exactly when their
// labels agree. It is a union-find with path halving over the media's
// endpoints: one near-linear pass, where a route table costs a Dijkstra
// search per processor.
func (a *Architecture) Components(usable func(MediumID) bool, comp []ProcID) []ProcID {
	if cap(comp) < len(a.procs) {
		comp = make([]ProcID, len(a.procs))
	}
	comp = comp[:len(a.procs)]
	for p := range comp {
		comp[p] = ProcID(p)
	}
	find := func(p ProcID) ProcID {
		for comp[p] != p {
			comp[p] = comp[comp[p]]
			p = comp[p]
		}
		return p
	}
	for _, m := range a.media {
		if !usable(m.ID) {
			continue
		}
		root := find(m.Endpoints[0])
		for _, q := range m.Endpoints[1:] {
			switch r := find(q); {
			case r < root:
				comp[root], root = r, r
			case r > root:
				comp[r] = root
			}
		}
	}
	for p := range comp {
		comp[p] = find(ProcID(p))
	}
	return comp
}

// Route returns the precomputed route from p to q. The route from a
// processor to itself is empty and nil-error.
func (rt *RouteTable) Route(p, q ProcID) (Route, error) {
	if p == q {
		return nil, nil
	}
	r := rt.routes[int(p)*rt.n+int(q)]
	if r == nil {
		return nil, fmt.Errorf("%w: %d -> %d", ErrNoRoute, p, q)
	}
	return r, nil
}

// Hops returns the hop count of the route from p to q, or -1 when there is
// none.
func (rt *RouteTable) Hops(p, q ProcID) int {
	if p == q {
		return 0
	}
	r := rt.routes[int(p)*rt.n+int(q)]
	if r == nil {
		return -1
	}
	return len(r)
}
