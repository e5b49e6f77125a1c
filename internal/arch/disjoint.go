package arch

import (
	"math"
	"sort"
)

// This file implements the disjoint-route search of the Nmf-aware delivery
// planner (DESIGN.md Section 11). The copies of a replicated dependency
// leave distinct sender processors and must reach the receiver over
// pairwise media-disjoint chains, so the problem is not Suurballe's
// single-pair variant but its multi-source generalisation: route one unit
// from each sender towards the receiver such that no medium carries two
// units. That is a unit-capacity min-cost flow on the bipartite
// processor/medium graph — each medium is a capacity-1, cost-weight(m)
// node; processors are uncapacitated relays — solved by successive
// shortest augmentation (the Bhandari/Suurballe construction: later
// augmentations may undo earlier media choices through residual arcs, so
// a greedy first path can never paint the search into a corner the way
// sequential shortest-path-with-removal does on rings).

// flowArc is one directed arc of the disjoint-route flow network. Arcs are
// stored in pairs: arc 2k is the forward arc, arc 2k+1 its residual
// reverse (capacity 0, cost negated).
type flowArc struct {
	to   int
	cap  int
	cost float64
	// medium is the traversed medium for the medium-internal arc, -1
	// elsewhere.
	medium MediumID
}

// fanNet is the flow network of one DisjointFan call.
type fanNet struct {
	arcs []flowArc
	adj  [][]int32 // arc indices leaving each node, in insertion order
}

// fanScratch carries the reusable buffers of the disjoint-fan search: the
// arc slab, the per-node adjacency lists (truncated, not freed, between
// calls), and the Bellman-Ford distance/predecessor arrays. One scratch
// serves any number of sequential searches over any architecture; it is
// not safe for concurrent use. Reuse changes no observable behaviour —
// arcs are rebuilt in the same insertion order every call, and the
// relaxation never reads a cell it has not written this call.
type fanScratch struct {
	net     fanNet
	sorted  []ProcID
	dist    []float64
	prevArc []int32
}

// reset prepares the scratch for a search over `nodes` flow nodes.
func (sc *fanScratch) reset(nodes int) {
	sc.net.arcs = sc.net.arcs[:0]
	if cap(sc.net.adj) < nodes {
		sc.net.adj = make([][]int32, nodes)
	}
	sc.net.adj = sc.net.adj[:nodes]
	for i := range sc.net.adj {
		sc.net.adj[i] = sc.net.adj[i][:0]
	}
	if cap(sc.dist) < nodes {
		sc.dist = make([]float64, nodes)
		sc.prevArc = make([]int32, nodes)
	}
	sc.dist = sc.dist[:nodes]
	sc.prevArc = sc.prevArc[:nodes]
}

// addArc appends a forward arc and its residual reverse. Each node's
// adjacency lists exactly the arcs leaving it in the residual graph: the
// forward arc under from, the reverse under to.
func (n *fanNet) addArc(from, to int, cap int, cost float64, m MediumID) {
	n.adj[from] = append(n.adj[from], int32(len(n.arcs)))
	n.arcs = append(n.arcs, flowArc{to: to, cap: cap, cost: cost, medium: m})
	n.adj[to] = append(n.adj[to], int32(len(n.arcs)))
	n.arcs = append(n.arcs, flowArc{to: from, cap: 0, cost: -cost, medium: m})
}

// DisjointFan routes one delivery from each source processor towards dst
// such that the served routes are pairwise media-disjoint, maximising
// first the number of sources served and then minimising the total
// traversal weight. The result is aligned with srcs: out[i] is the route
// for srcs[i], nil when srcs[i] was left unserved (the disjoint budget of
// the topology is exhausted) or when srcs[i] == dst. Media with +Inf or
// NaN weight are unusable. Sources must be pairwise distinct. The search
// is deterministic: equal-cost ties break towards lower processor and
// medium ids.
func (a *Architecture) DisjointFan(srcs []ProcID, dst ProcID, weight func(MediumID) float64) []Route {
	return a.DisjointFanRelay(srcs, dst, weight, nil)
}

// DisjointFanRelay is DisjointFan with relay-processor costs: every time a
// route enters a medium from processor p it additionally pays relayCost(p),
// so routes prefer relay hops on cheap processors (DESIGN.md Section 12
// charges processors hosting replicas of the delivery's sender or receiver,
// decorrelating chain survival from replica survival under a joint
// processor+medium crash). Costs must be finite and non-negative. Every
// served route pays its own source's charge exactly once, a constant per
// served set, so relay costs steer only which relays a route threads —
// never how many sources are served (serving count is the flow maximum,
// which finite costs cannot reduce). A nil relayCost is free everywhere and
// makes the search identical to DisjointFan, arc for arc.
func (a *Architecture) DisjointFanRelay(srcs []ProcID, dst ProcID, weight func(MediumID) float64, relayCost func(ProcID) float64) []Route {
	return a.disjointFanRelay(new(fanScratch), srcs, dst, weight, relayCost)
}

// disjointFanRelay is DisjointFanRelay over caller-owned scratch buffers,
// the allocation-free form FanCache uses for its cold computes. Only the
// returned routes escape; everything else lives in sc.
func (a *Architecture) disjointFanRelay(sc *fanScratch, srcs []ProcID, dst ProcID, weight func(MediumID) float64, relayCost func(ProcID) float64) []Route {
	out := make([]Route, len(srcs))
	if len(srcs) == 0 {
		return out
	}
	if weight == nil {
		weight = func(MediumID) float64 { return 1 }
	}
	nP, nM := len(a.procs), len(a.media)
	// Node ids: processors 0..nP-1, medium m in/out nP+2m / nP+2m+1,
	// super-source nP+2nM.
	src := nP + 2*nM
	nodes := src + 1
	sc.reset(nodes)
	net := &sc.net
	// Sorted source order keeps the arc list — and with it every
	// tie-break — independent of the caller's ordering.
	sorted := append(sc.sorted[:0], srcs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sc.sorted = sorted
	for _, sp := range sorted {
		if sp != dst {
			net.addArc(src, int(sp), 1, 0, -1)
		}
	}
	for m := 0; m < nM; m++ {
		w := weight(MediumID(m))
		if math.IsInf(w, 1) || math.IsNaN(w) || w < 0 {
			continue
		}
		in, outN := nP+2*m, nP+2*m+1
		net.addArc(in, outN, 1, w, MediumID(m))
		for _, p := range a.media[m].Endpoints {
			enter := 0.0
			if relayCost != nil {
				enter = relayCost(p)
			}
			net.addArc(int(p), in, 1, enter, -1)
			net.addArc(outN, int(p), 1, 0, -1)
		}
	}
	// Successive shortest augmenting paths (Bellman-Ford handles the
	// negative residual costs without potentials; the network is tiny).
	dist, prevArc := sc.dist, sc.prevArc
	for served := 0; served < len(srcs); served++ {
		if !net.shortestPath(src, int(dst), dist, prevArc) {
			break
		}
		// The predecessor graph is a tree (relaxation improves only past
		// the float tolerance, so rounding around a zero-cost residual
		// cycle cannot close a predecessor loop); the step bound is a
		// defensive fail-safe that surrenders the whole fan — callers
		// treat nil routes as unserved — rather than corrupt the flow.
		for v, steps := int(dst), 0; v != src; steps++ {
			if steps > len(net.arcs) {
				return make([]Route, len(srcs))
			}
			ai := prevArc[v]
			net.arcs[ai].cap--
			net.arcs[ai^1].cap++
			v = net.arcs[ai^1].to
		}
	}
	// Decompose the flow into one route per served source. Decomposition
	// consumes arcs, and two routes crossing the same relay processor are
	// paired by consumption order — so walking in canonical (ascending
	// source id) order, not caller order, keeps each source's route
	// independent of how the caller ordered the set. The walks' results
	// are then realigned to the caller's ordering.
	for _, sp := range sorted {
		if sp == dst || !net.consumed(src, int(sp)) {
			continue
		}
		route := net.walkRoute(a, int(sp), int(dst))
		for i, osp := range srcs {
			if osp == sp {
				out[i] = route
				break
			}
		}
	}
	return out
}

// fanCostEps is the relative float tolerance of the shortest-path
// relaxation. The residual network carries exact zero-cost cycles
// (forward and reverse copies of the same arc costs cancel), but distance
// values accumulate their terms in path order, so going around such a
// cycle can appear to improve a distance by a few ulps — enough for
// Bellman-Ford to close a cycle in the predecessor graph and hang the
// augmentation walk. Improvements must therefore clear the tolerance;
// genuine improvements in real inputs are far larger.
const fanCostEps = 1e-9

// shortestPath runs Bellman-Ford over the residual network from s to t,
// filling dist and prevArc; it reports whether t is reachable. Relaxation
// order follows arc insertion order and improves only on distances
// smaller beyond the float tolerance, so the predecessor tree — and the
// augmenting path — is deterministic and acyclic.
func (n *fanNet) shortestPath(s, t int, dist []float64, prevArc []int32) bool {
	for i := range dist {
		dist[i] = math.Inf(1)
		prevArc[i] = -1
	}
	dist[s] = 0
	for round := 0; round < len(dist); round++ {
		changed := false
		for u := 0; u < len(n.adj); u++ {
			du := dist[u]
			if math.IsInf(du, 1) {
				continue
			}
			for _, ai := range n.adj[u] {
				arc := &n.arcs[ai]
				if arc.cap <= 0 {
					continue
				}
				nd := du + arc.cost
				if nd < dist[arc.to]-fanCostEps*(1+math.Abs(nd)) {
					dist[arc.to] = nd
					prevArc[arc.to] = ai
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return prevArc[t] >= 0
}

// consumed reports whether the unit arc from -> to carries flow (forward
// capacity exhausted, residual reverse positive).
func (n *fanNet) consumed(from, to int) bool {
	for _, ai := range n.adj[from] {
		arc := &n.arcs[ai]
		if ai%2 == 0 && arc.to == to && arc.cap == 0 && n.arcs[ai^1].cap > 0 {
			return true
		}
	}
	return false
}

// walkRoute follows the flow from processor node u to dst, consuming the
// arcs it traverses and emitting one Hop per medium crossed.
func (n *fanNet) walkRoute(a *Architecture, u, dst int) Route {
	var route Route
	for u != dst {
		ai, ok := n.takeFlowArc(u)
		if !ok {
			return nil // broken decomposition; cannot happen on a valid flow
		}
		in := n.arcs[ai].to // medium-in node
		mi, ok := n.takeFlowArc(in)
		if !ok {
			return nil
		}
		m := n.arcs[mi].medium
		out := n.arcs[mi].to
		po, ok := n.takeFlowArc(out)
		if !ok {
			return nil
		}
		v := n.arcs[po].to
		route = append(route, Hop{Medium: m, From: ProcID(u), To: ProcID(v)})
		if len(route) > len(n.arcs) {
			return nil
		}
		u = v
	}
	return route
}

// takeFlowArc consumes and returns the first forward arc leaving u that
// carries flow.
func (n *fanNet) takeFlowArc(u int) (int32, bool) {
	for _, ai := range n.adj[u] {
		if ai%2 != 0 {
			continue // residual reverse arcs never carry decomposed flow
		}
		arc := &n.arcs[ai]
		if arc.cap == 0 && n.arcs[ai^1].cap > 0 {
			n.arcs[ai].cap++
			n.arcs[ai^1].cap--
			return ai, true
		}
	}
	return -1, false
}

// MaxDisjointRoutes returns how many pairwise media-disjoint routes reach
// dst from distinct sources in srcs over the media accepted by usable (nil
// accepts every medium). It is the feasibility count behind the spec-level
// media-diversity validation: by Menger's theorem a count below Nmf+1
// means some Nmf media form a cut between every source and the receiver,
// so no schedule on this architecture can mask the budget.
func (a *Architecture) MaxDisjointRoutes(srcs []ProcID, dst ProcID, usable func(MediumID) bool) int {
	routes := a.DisjointFan(srcs, dst, func(m MediumID) float64 {
		if usable == nil || usable(m) {
			return 1
		}
		return math.Inf(1)
	})
	count := 0
	for _, r := range routes {
		if r != nil {
			count++
		}
	}
	return count
}

// FanCache memoises DisjointFan results for one weight function over one
// architecture, keyed on the (source-set, destination) pair. Entries are
// invalidated wholesale when the architecture's topology Revision moves,
// so a cache held across AddMedium calls never serves stale routes. The
// cache is not safe for concurrent use: the scheduler holds one per
// data-dependency, shared by a clone family that one goroutine plans.
// Source sets are encoded as processor bitmasks, so caching engages only
// on architectures of at most 64 processors; larger ones fall through to
// a direct computation.
type FanCache struct {
	a      *Architecture
	weight func(MediumID) float64
	rev    uint64
	fans   map[fanKey][]Route
	// penalty is the lazily-computed relay charge of FanAvoiding: one unit
	// above the sum of every usable medium weight, so a single avoided
	// relay outweighs any all-media detour while staying finite (an
	// avoided relay is a preference, never a feasibility cut).
	penalty float64
	// scratch backs the cold computes, so a miss allocates only the routes
	// it caches. Sharing it is what makes the cache single-writer.
	scratch fanScratch
}

type fanKey struct {
	srcs  uint64
	avoid uint64
	dst   ProcID
}

// NewFanCache returns an empty cache over a and weight.
func NewFanCache(a *Architecture, weight func(MediumID) float64) *FanCache {
	return &FanCache{a: a, weight: weight, rev: a.Revision(), fans: make(map[fanKey][]Route)}
}

// relayPenalty returns (computing once) the relay charge for avoided
// processors: strictly larger than the weight of any loop-free route.
func (c *FanCache) relayPenalty() float64 {
	if c.penalty == 0 {
		c.penalty = 1
		for m := 0; m < c.a.NumMedia(); m++ {
			w := 1.0
			if c.weight != nil {
				w = c.weight(MediumID(m))
			}
			if !math.IsInf(w, 1) && !math.IsNaN(w) && w >= 0 {
				c.penalty += w
			}
		}
	}
	return c.penalty
}

// Lookup returns the cached fan for (srcs, dst) without computing or
// mutating anything, missing when the entry is absent, the topology
// revision moved, or the architecture is too large for bitmask keys.
func (c *FanCache) Lookup(srcs []ProcID, dst ProcID) ([]Route, bool) {
	return c.LookupAvoiding(srcs, dst, 0)
}

// LookupAvoiding is Lookup keyed additionally on the avoided-processor
// bitmask of FanAvoiding.
func (c *FanCache) LookupAvoiding(srcs []ProcID, dst ProcID, avoid uint64) ([]Route, bool) {
	if c.a.NumProcs() > 64 || c.a.Revision() != c.rev {
		return nil, false
	}
	key := fanKey{avoid: avoid, dst: dst}
	for _, sp := range srcs {
		key.srcs |= 1 << uint(sp)
	}
	routes, ok := c.fans[key]
	return routes, ok
}

// Fan returns the disjoint fan for (srcs, dst), computing and caching it
// on first use. The served routes are returned in canonical (ascending
// source id) order, not aligned with srcs — look a source's route up with
// RouteFrom, which keys on the first hop. The slice aliases cache storage
// and must not be mutated; one cache entry serves every ordering of the
// same source set, and lookups allocate nothing.
func (c *FanCache) Fan(srcs []ProcID, dst ProcID) []Route {
	return c.FanAvoiding(srcs, dst, 0)
}

// FanAvoiding is Fan with relay avoidance: bit p of avoid marks processor
// p as a dispreferred relay (it hosts a replica whose crash already
// endangers the delivery), charged relayPenalty per avoided relay hop so
// the fan threads clean processors whenever the topology offers any,
// falling back to avoided relays rather than dropping a source. An avoid
// mask of 0 is exactly Fan. Entries are cached per (source-set, avoid,
// dst) triple.
func (c *FanCache) FanAvoiding(srcs []ProcID, dst ProcID, avoid uint64) []Route {
	if rev := c.a.Revision(); rev != c.rev {
		c.rev = rev
		c.fans = make(map[fanKey][]Route)
		// The penalty is a function of the media set; recompute it after
		// AddMedium so a newly added heavy medium cannot make a clean
		// detour cost more than an avoided relay. Reset before the cost
		// closure below captures it.
		c.penalty = 0
	}
	if c.a.NumProcs() > 64 {
		return c.a.disjointFanRelay(&c.scratch, srcs, dst, c.weight, c.relayCostFor(avoid))
	}
	key := fanKey{avoid: avoid, dst: dst}
	for _, sp := range srcs {
		key.srcs |= 1 << uint(sp)
	}
	routes, ok := c.fans[key]
	if !ok {
		// The result aligns with its input, and the cached slice must be
		// in canonical order for every ordering of the same source set.
		canon := append([]ProcID(nil), srcs...)
		sort.Slice(canon, func(i, j int) bool { return canon[i] < canon[j] })
		routes = c.a.disjointFanRelay(&c.scratch, canon, dst, c.weight, c.relayCostFor(avoid))
		c.fans[key] = routes
	}
	return routes
}

// relayCostFor builds the relay-cost function of an avoid mask (nil for
// the empty mask, keeping the zero-avoid path arc-identical to Fan).
func (c *FanCache) relayCostFor(avoid uint64) func(ProcID) float64 {
	if avoid == 0 {
		return nil
	}
	penalty := c.relayPenalty()
	return func(p ProcID) float64 {
		if p < 64 && avoid&(1<<uint(p)) != 0 {
			return penalty
		}
		return 0
	}
}

// RouteFrom returns the route of fan that starts at processor sp, or nil
// when sp was left unserved. Routes identify their source by their first
// hop, so the lookup works on any DisjointFan/Fan result.
func RouteFrom(fan []Route, sp ProcID) Route {
	for _, r := range fan {
		if len(r) > 0 && r[0].From == sp {
			return r
		}
	}
	return nil
}
