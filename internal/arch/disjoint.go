package arch

import (
	"math"
	"math/bits"
	"slices"
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

// fanSkeleton is the flow network every disjoint-fan search over one
// architecture revision starts from, built once per Revision and shared
// read-only (Architecture.fanNetwork). Node ids: processors 0..nP-1,
// medium m's in/out nodes nP+2m and nP+2m+1, the super-source last. Arcs
// come in pairs, arc 2k forward and arc 2k+1 its residual reverse
// (capacity 0, cost negated). Processor p owns the reserved source pair
// (2p, 2p+1), closed at capacity 0; every medium's arcs follow in medium
// order: its in→out arc, then for each endpoint p (ascending) the pairs
// p→in and out→p. A search opens its sources' pairs, writes the media
// weights and relay charges, and closes an unusable medium's forward
// arcs; a pair with both capacities 0 is never relaxed, consumed or
// walked, so every node meets its effective arcs in the order a network
// built per search would list them.
type fanSkeleton struct {
	rev uint64
	nP  int
	// to[i] is arc i's head node and cap[i] the capacity every search
	// starts from; every arc starts at cost 0.
	to  []int32
	cap []int32
	// adj[start[u]:start[u+1]] lists the arcs leaving node u in the
	// residual graph, in arc order.
	start []int32
	adj   []int32
	// mediumArc[m] is medium m's in→out arc. Its endpoint i's entry arc
	// p→in is mediumArc[m]+2+4i, and the medium's arcs end at
	// mediumArc[m+1].
	mediumArc []int32
}

// fanNetwork returns the architecture's flow skeleton, building it on
// first use after a topology mutation.
func (a *Architecture) fanNetwork() *fanSkeleton {
	if sk := a.fanNet.Load(); sk != nil && sk.rev == a.rev {
		return sk
	}
	sk := a.buildFanSkeleton()
	a.fanNet.Store(sk)
	return sk
}

func (a *Architecture) buildFanSkeleton() *fanSkeleton {
	nP, nM := len(a.procs), len(a.media)
	nArcs := 2 * nP
	for _, m := range a.media {
		nArcs += 2 + 4*len(m.Endpoints)
	}
	nodes := nP + 2*nM + 1
	sk := &fanSkeleton{
		rev:       a.rev,
		nP:        nP,
		to:        make([]int32, 0, nArcs),
		cap:       make([]int32, 0, nArcs),
		start:     make([]int32, nodes+1),
		adj:       make([]int32, nArcs),
		mediumArc: make([]int32, nM+1),
	}
	from := make([]int32, 0, nArcs)
	add := func(u, v int, c int32) {
		from = append(from, int32(u), int32(v))
		sk.to = append(sk.to, int32(v), int32(u))
		sk.cap = append(sk.cap, c, 0)
	}
	src := nodes - 1
	for p := 0; p < nP; p++ {
		add(src, p, 0)
	}
	for m, med := range a.media {
		in, out := nP+2*m, nP+2*m+1
		sk.mediumArc[m] = int32(len(sk.to))
		add(in, out, 1)
		for _, p := range med.Endpoints {
			add(int(p), in, 1)
			add(out, int(p), 1)
		}
	}
	sk.mediumArc[nM] = int32(len(sk.to))
	// Bucket the arcs by tail, stably: each node lists its arcs in arc
	// order, which is the order a per-search build appends them in.
	for _, u := range from {
		sk.start[u+1]++
	}
	for u := 0; u < nodes; u++ {
		sk.start[u+1] += sk.start[u]
	}
	next := append([]int32(nil), sk.start[:nodes]...)
	for ai, u := range from {
		sk.adj[next[u]] = int32(ai)
		next[u]++
	}
	return sk
}

// FanScratch holds the reusable state of disjoint-fan searches: one
// search's arc capacities and costs, the Bellman-Ford arrays and the
// routes being decomposed. One scratch serves any number of sequential
// searches over any architecture; it is not safe for concurrent use. The
// zero value is ready to use. Reuse changes no observable behaviour:
// every search starts from the skeleton's capacities and zero costs, and
// reads no cell it has not written.
type FanScratch struct {
	cap     []int32
	cost    []float64
	dist    []float64
	prevArc []int32
	dirty   []bool
	relay   []float64
	canon   []ProcID
	// hops holds the decomposed routes back to back; source i's route is
	// hops[spans[2i]:spans[2i+1]], empty when it went unserved.
	hops  []Hop
	spans []int32
}

// relayCosts returns the scratch's per-processor relay-charge buffer.
func (sc *FanScratch) relayCosts(nP int) []float64 {
	if cap(sc.relay) < nP {
		sc.relay = make([]float64, nP)
	}
	sc.relay = sc.relay[:nP]
	return sc.relay
}

// load starts a search over sk for n sources.
func (sc *FanScratch) load(sk *fanSkeleton, n int) {
	sc.cap = append(sc.cap[:0], sk.cap...)
	if cap(sc.cost) < len(sk.cap) {
		sc.cost = make([]float64, len(sk.cap))
	}
	sc.cost = sc.cost[:len(sk.cap)]
	clear(sc.cost)
	nodes := len(sk.start) - 1
	if cap(sc.dist) < nodes {
		sc.dist = make([]float64, nodes)
		sc.prevArc = make([]int32, nodes)
		sc.dirty = make([]bool, nodes)
	}
	sc.dist, sc.prevArc, sc.dirty = sc.dist[:nodes], sc.prevArc[:nodes], sc.dirty[:nodes]
	sc.resetRoutes(n)
}

// resetRoutes empties the route buffers for n sources.
func (sc *FanScratch) resetRoutes(n int) {
	if cap(sc.spans) < 2*n {
		sc.spans = make([]int32, 2*n)
	}
	sc.spans = sc.spans[:2*n]
	clear(sc.spans)
	sc.hops = sc.hops[:0]
}

// routes copies the last search's routes out of the scratch, aligned with
// its sources: one []Route and one hop array that every route is a
// capacity-capped window of.
func (sc *FanScratch) routes() []Route {
	out := make([]Route, len(sc.spans)/2)
	if len(sc.hops) == 0 {
		return out
	}
	hops := append([]Hop(nil), sc.hops...)
	for i := range out {
		if lo, hi := sc.spans[2*i], sc.spans[2*i+1]; hi > lo {
			out[i] = hops[lo:hi:hi]
		}
	}
	return out
}

// fan runs one disjoint-fan search on the architecture's skeleton: it
// routes one delivery from each source processor towards dst such that
// the served routes are pairwise media-disjoint, maximising first the
// number of sources served and then minimising the total traversal
// weight plus relay charges. It leaves the routes in sc, aligned with
// srcs (sc.routes copies them out; a route is nil when its source went
// unserved — the disjoint budget of the topology is exhausted — or is
// dst), and returns how many sources it served. Media with +Inf, NaN or
// negative weight are unusable; a nil weight costs 1 everywhere. Sources
// must be pairwise distinct.
//
// relay[p] is processor p's relay charge, paid every time a route enters
// a medium from p (DESIGN.md Section 12 charges the processors hosting
// replicas of the delivery's sender or receiver, decorrelating chain
// survival from replica survival under a joint processor+medium crash);
// nil charges nothing. Charges must be finite and non-negative. Every
// served route pays its own source's charge exactly once, a constant per
// served set, so charges steer only which relays a route threads — never
// how many sources are served (the serving count is the flow maximum,
// which finite costs cannot reduce).
//
// The search is deterministic: equal-cost ties break towards lower
// processor and medium ids, and each source's route is independent of how
// the caller ordered srcs.
func (a *Architecture) fan(sc *FanScratch, srcs []ProcID, dst ProcID, weight func(MediumID) float64, relay []float64) int {
	return sc.flow(a.loadFan(sc, srcs, dst, weight, relay), srcs, dst, nil)
}

// loadFan starts a search on the architecture's skeleton: it writes the
// usable media weights and the relay charges, closes the unusable media
// and opens the source arcs of every source but dst.
func (a *Architecture) loadFan(sc *FanScratch, srcs []ProcID, dst ProcID, weight func(MediumID) float64, relay []float64) *fanSkeleton {
	sk := a.fanNetwork()
	sc.load(sk, len(srcs))
	for m := range a.media {
		w := 1.0
		if weight != nil {
			w = weight(MediumID(m))
		}
		ai, end := sk.mediumArc[m], sk.mediumArc[m+1]
		if !usableWeight(w) {
			for ; ai < end; ai += 2 {
				sc.cap[ai] = 0
			}
			continue
		}
		sc.cost[ai], sc.cost[ai+1] = w, -w
		if relay != nil {
			for i, p := range a.media[m].Endpoints {
				e := ai + 2 + 4*int32(i)
				sc.cost[e], sc.cost[e+1] = relay[p], -relay[p]
			}
		}
	}
	for _, sp := range srcs {
		if sp != dst {
			sc.cap[2*sp] = 1
		}
	}
	return sk
}

// usableWeight reports whether a search may route over a medium of weight
// w: +Inf, NaN and negative weights close the medium.
func usableWeight(w float64) bool { return w >= 0 && !math.IsInf(w, 1) }

// flow finishes a loaded search: successive shortest augmenting paths
// (Bellman-Ford handles the negative residual costs without potentials;
// the network is tiny) until every source is served or dst is out of
// reach, then the decomposition. The first augmentation follows first
// when it is not nil: the predecessor tree of a first search run
// earlier, which must be the one this network's first search would
// build (FanCache.miss).
func (sc *FanScratch) flow(sk *fanSkeleton, srcs []ProcID, dst ProcID, first []int32) int {
	src := len(sk.start) - 2
	for served := 0; served < len(srcs); served++ {
		tree := first
		if served > 0 || tree == nil {
			sc.shortestPath(sk, src)
			tree = sc.prevArc
		}
		if tree[dst] < 0 {
			break
		}
		// The predecessor graph is a tree (relaxation improves only past
		// the float tolerance, so rounding around a zero-cost residual
		// cycle cannot close a predecessor loop); the step bound is a
		// defensive fail-safe that surrenders the whole fan — callers
		// treat nil routes as unserved — rather than corrupt the flow.
		for v, steps := int(dst), 0; v != src; steps++ {
			if steps > len(sc.cap) {
				clear(sc.spans)
				return 0
			}
			ai := tree[v]
			sc.cap[ai]--
			sc.cap[ai^1]++
			v = int(sk.to[ai^1])
		}
	}
	// Decompose the flow into one route per served source. Decomposition
	// consumes arcs, and two routes crossing the same relay processor are
	// paired by consumption order — so walking in canonical (ascending
	// source id) order, not caller order, keeps each source's route
	// independent of how the caller ordered the set. A source is served
	// when its source arc carries flow (forward capacity exhausted,
	// residual reverse positive).
	served := 0
	for p := 0; p < sk.nP; p++ {
		if sc.cap[2*p] != 0 || sc.cap[2*p+1] <= 0 {
			continue
		}
		lo := int32(len(sc.hops))
		if !sc.walkRoute(sk, p, int(dst)) {
			sc.hops = sc.hops[:lo]
			continue
		}
		i := slices.Index(srcs, ProcID(p))
		sc.spans[2*i], sc.spans[2*i+1] = lo, int32(len(sc.hops))
		served++
	}
	return served
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

// shortestPath runs Bellman-Ford over the residual network from s,
// filling dist and prevArc (-1 where a node is out of reach). Passes
// visit the nodes in ascending order, each node's arcs in arc order, and
// improve only on distances smaller beyond the float tolerance, so the
// predecessor tree — and the augmenting path — is deterministic and
// acyclic.
//
// A pass scans only the nodes whose distance changed since their last
// scan (dirty). That skips no improvement: capacities and costs are fixed
// during the search and distances only fall, so each arc of an unchanged
// node either set its head to the same nd already or failed
// nd < dist − eps·(1+|nd|), and its head has only fallen since. Scanning
// every node with a finite distance relaxes the same arcs in the same
// order, to the same dist and prevArc (DESIGN.md Section 11).
func (sc *FanScratch) shortestPath(sk *fanSkeleton, s int) {
	dist, prevArc, dirty := sc.dist, sc.prevArc, sc.dirty
	capacity, cost, to, adj, start := sc.cap, sc.cost, sk.to, sk.adj, sk.start
	for i := range dist {
		dist[i] = math.Inf(1)
		prevArc[i] = -1
		dirty[i] = false
	}
	dist[s], dirty[s] = 0, true
	for round := 0; round < len(dist); round++ {
		changed := false
		for u := range dist {
			if !dirty[u] {
				continue
			}
			dirty[u] = false
			du := dist[u]
			for _, ai := range adj[start[u]:start[u+1]] {
				if capacity[ai] <= 0 {
					continue
				}
				v := to[ai]
				nd := du + cost[ai]
				if nd < dist[v]-fanCostEps*(1+math.Abs(nd)) {
					dist[v] = nd
					prevArc[v] = ai
					dirty[v] = true
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// walkRoute follows the flow from processor node u to dst, consuming the
// arcs it traverses and appending one Hop per medium crossed to sc.hops.
// It reports false on a broken decomposition, which a valid flow cannot
// produce. Every step consumes a forward arc for good, so the walk ends.
func (sc *FanScratch) walkRoute(sk *fanSkeleton, u, dst int) bool {
	for u != dst {
		ai := sc.takeFlowArc(sk, u)
		if ai < 0 {
			return false
		}
		in := int(sk.to[ai]) // medium-in node
		mi := sc.takeFlowArc(sk, in)
		if mi < 0 {
			return false
		}
		po := sc.takeFlowArc(sk, int(sk.to[mi]))
		if po < 0 {
			return false
		}
		v := int(sk.to[po])
		sc.hops = append(sc.hops, Hop{Medium: MediumID((in - sk.nP) / 2), From: ProcID(u), To: ProcID(v)})
		u = v
	}
	return true
}

// takeFlowArc consumes and returns the first forward arc leaving u that
// carries flow, or -1.
func (sc *FanScratch) takeFlowArc(sk *fanSkeleton, u int) int32 {
	for _, ai := range sk.adj[sk.start[u]:sk.start[u+1]] {
		if ai%2 != 0 {
			continue // residual reverse arcs never carry decomposed flow
		}
		if sc.cap[ai] == 0 && sc.cap[ai^1] > 0 {
			sc.cap[ai]++
			sc.cap[ai^1]--
			return ai
		}
	}
	return -1
}

// MaxDisjointRoutes returns how many pairwise media-disjoint routes reach
// dst from distinct sources in srcs over the media accepted by usable (nil
// accepts every medium). It is the feasibility count behind the spec-level
// media-diversity validation: by Menger's theorem a count below Nmf+1
// means some Nmf media form a cut between every source and the receiver,
// so no schedule on this architecture can mask the budget. sc is the
// search scratch (nil allocates one); the count allocates no routes.
func (a *Architecture) MaxDisjointRoutes(srcs []ProcID, dst ProcID, usable func(MediumID) bool, sc *FanScratch) int {
	if sc == nil {
		sc = new(FanScratch)
	}
	return a.fan(sc, srcs, dst, func(m MediumID) float64 {
		if usable == nil || usable(m) {
			return 1
		}
		return math.Inf(1)
	}, nil)
}

// FanCache memoises disjoint fans for one weight function over one
// architecture, keyed on the (source set, avoid mask, destination)
// triple. Entries are invalidated wholesale when the architecture's
// topology Revision moves, so a cache held across AddMedium calls never
// serves stale routes. The cache is not safe for concurrent use: the
// scheduler holds one per data-dependency, shared by a clone family that
// one goroutine plans. Source sets are encoded as processor bitmasks, so
// caching engages only on architectures of at most 64 processors; larger
// ones search afresh on every call.
//
// A miss skips the flow search where its answer is forced (DESIGN.md
// Section 11): a fan of direct hops is written out without a search, and
// otherwise the first shortest-path search of a source set and an avoid
// mask without the receiver is run once and shared by every receiver.
type FanCache struct {
	a      *Architecture
	weight func(MediumID) float64
	rev    uint64
	fans   map[fanKey][]Route
	// firsts holds the predecessor trees of shared first searches, keyed
	// on the source set and the avoid mask without the receiver.
	firsts map[firstKey][]int32
	// penalty is the lazily-computed relay charge of FanAvoiding: one unit
	// above the sum of every usable medium weight, so a single avoided
	// relay outweighs any all-media detour while staying finite (an
	// avoided relay is a preference, never a feasibility cut). minWeight,
	// measured with it, is the lightest usable medium weight.
	penalty, minWeight float64
	// scratch backs the searches, so a miss allocates only the routes it
	// caches. The caches of one clone family share it (NewFanCache), which
	// is what makes them single-writer.
	scratch *FanScratch
}

type fanKey struct {
	srcs  uint64
	avoid uint64
	dst   ProcID
}

type firstKey struct {
	srcs, avoid uint64
}

// NewFanCache returns an empty cache over a and weight whose searches run
// on sc; caches that one goroutine uses may share a scratch. A nil sc
// gives the cache its own.
func NewFanCache(a *Architecture, weight func(MediumID) float64, sc *FanScratch) *FanCache {
	if sc == nil {
		sc = new(FanScratch)
	}
	if weight == nil {
		weight = func(MediumID) float64 { return 1 }
	}
	return &FanCache{a: a, weight: weight, rev: a.Revision(), fans: make(map[fanKey][]Route),
		firsts: make(map[firstKey][]int32), scratch: sc}
}

// measure computes, once per revision, the relay penalty and the lightest
// usable weight.
func (c *FanCache) measure() {
	if c.penalty != 0 {
		return
	}
	c.penalty, c.minWeight = 1, math.Inf(1)
	for m := 0; m < c.a.NumMedia(); m++ {
		if w := c.weight(MediumID(m)); usableWeight(w) {
			c.penalty += w
			c.minWeight = min(c.minWeight, w)
		}
	}
}

// FanAvoiding returns the media-disjoint fan from srcs towards dst,
// computing and caching it on first use. Bit p of avoid marks processor p
// as a dispreferred relay (it hosts a replica whose crash already
// endangers the delivery): each relay hop through it is charged
// penalty, so the fan threads clean processors whenever the topology
// offers any, falling back to avoided relays rather than dropping a
// source. The served routes are returned in canonical (ascending source
// id) order, not aligned with srcs — look a source's route up with
// RouteFrom, which keys on the first hop. The slice aliases cache storage
// and must not be mutated; one entry serves every ordering of the same
// source set, and a hit allocates nothing.
func (c *FanCache) FanAvoiding(srcs []ProcID, dst ProcID, avoid uint64) []Route {
	if rev := c.a.Revision(); rev != c.rev {
		c.rev = rev
		c.fans = make(map[fanKey][]Route)
		c.firsts = make(map[firstKey][]int32)
		// The penalty is a function of the media set; recompute it after
		// AddMedium so a newly added heavy medium cannot make a clean
		// detour cost more than an avoided relay.
		c.penalty = 0
	}
	if c.a.NumProcs() > 64 {
		c.a.fan(c.scratch, c.canonical(srcs), dst, c.weight, c.relayCosts(avoid))
		return c.scratch.routes()
	}
	key := fanKey{avoid: avoid, dst: dst}
	for _, sp := range srcs {
		key.srcs |= 1 << uint(sp)
	}
	routes, ok := c.fans[key]
	if !ok {
		routes = c.miss(c.canonical(srcs), key)
		c.fans[key] = routes
	}
	return routes
}

// canonical returns srcs in ascending order, in the scratch: a search's
// routes align with its sources, and the cache returns them in canonical
// order for every ordering of one source set.
func (c *FanCache) canonical(srcs []ProcID) []ProcID {
	canon := append(c.scratch.canon[:0], srcs...)
	slices.Sort(canon)
	c.scratch.canon = canon
	return canon
}

// miss computes the fan of a key the cache lacks from its canonical
// sources. Both shortcuts are exact only while the weights clear the
// relaxation tolerance by the margins DESIGN.md Section 11 derives; zero
// or tiny weights, and a receiver among the sources, take the full search.
func (c *FanCache) miss(canon []ProcID, key fanKey) []Route {
	sc, dst := c.scratch, key.dst
	tol := c.tolerance(key.avoid, dst)
	if c.directFan(canon, key, tol) {
		return sc.routes()
	}
	sk := c.a.fanNetwork()
	steps := float64(len(sk.start)-1) * float64(len(sk.to))
	if key.srcs&(1<<uint(dst)) != 0 || !(c.minWeight > 4*steps*tol) {
		c.a.fan(sc, canon, dst, c.weight, c.relayCosts(key.avoid))
		return sc.routes()
	}
	fk := firstKey{srcs: key.srcs, avoid: key.avoid &^ (1 << uint(dst))}
	first, ok := c.firsts[fk]
	if !ok {
		c.a.loadFan(sc, canon, dst, c.weight, c.relayCosts(fk.avoid))
		sc.shortestPath(sk, len(sk.start)-2)
		first = slices.Clone(sc.prevArc)
		c.firsts[fk] = first
	}
	sc.flow(c.a.loadFan(sc, canon, dst, c.weight, c.relayCosts(key.avoid)), canon, dst, first)
	return sc.routes()
}

// tolerance bounds the relaxation tolerance fanCostEps·(1+|nd|) of every
// comparison the searches towards dst under avoid make, with or without
// dst's own charge: |nd| is at most the cost of a simple path, every
// usable weight plus one penalty per charged processor.
func (c *FanCache) tolerance(avoid uint64, dst ProcID) float64 {
	c.measure()
	return fanCostEps * (1 + float64(bits.OnesCount64(avoid|1<<uint(dst))+1)*c.penalty)
}

// directFan writes the fan of direct hops into the scratch and reports
// whether it is the search's answer: the sources carry one relay charge,
// every source has exactly one usable medium straight to the receiver, no
// two sources share one, and 2·minWeight minus the heaviest of those
// media clears four tolerances. Any other route of a source crosses at
// least two media, so it costs more than the source's direct hop, and
// every augmentation takes the direct hop of a source not yet served.
func (c *FanCache) directFan(canon []ProcID, key fanKey, tol float64) bool {
	if charged := key.srcs & key.avoid; charged != 0 && charged != key.srcs {
		return false
	}
	sc, dst := c.scratch, key.dst
	sc.resetRoutes(len(canon))
	direct, n := c.a.DirectMedia(), c.a.NumProcs()
	heaviest := 0.0
	for i, sp := range canon {
		hop := Hop{Medium: -1, From: sp, To: dst}
		for _, m := range direct[int(sp)*n+int(dst)] {
			if w := c.weight(m); usableWeight(w) {
				if hop.Medium >= 0 {
					return false
				}
				hop.Medium, heaviest = m, max(heaviest, w)
			}
		}
		if hop.Medium < 0 {
			return false
		}
		for _, h := range sc.hops {
			if h.Medium == hop.Medium {
				return false
			}
		}
		sc.hops = append(sc.hops, hop)
		sc.spans[2*i], sc.spans[2*i+1] = int32(i), int32(i+1)
	}
	return 2*c.minWeight-heaviest > 4*tol
}

// relayCosts fills the scratch's relay charges for an avoid mask: the
// penalty on every avoided processor, 0 elsewhere, and nil for the empty
// mask, whose search charges no relay at all.
func (c *FanCache) relayCosts(avoid uint64) []float64 {
	if avoid == 0 {
		return nil
	}
	c.measure()
	relay := c.scratch.relayCosts(c.a.NumProcs())
	for p := range relay {
		relay[p] = 0
		if p < 64 && avoid&(1<<uint(p)) != 0 {
			relay[p] = c.penalty
		}
	}
	return relay
}

// RouteFrom returns the route of fan that starts at processor sp, or nil
// when sp was left unserved. Routes identify their source by their first
// hop, so the lookup works on any FanAvoiding result, whatever order the
// sources were given in.
func RouteFrom(fan []Route, sp ProcID) Route {
	for _, r := range fan {
		if len(r) > 0 && r[0].From == sp {
			return r
		}
	}
	return nil
}
