package arch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// oracleComputeRoutes is ComputeRoutes before its routes shared one hop
// array, kept verbatim as the differential oracle: fresh dist, prev and
// settled buffers per source, and each route built by prepending hops.
func (a *Architecture) oracleComputeRoutes(weight func(MediumID) float64) (*RouteTable, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if weight == nil {
		weight = func(MediumID) float64 { return 1 }
	}
	for _, m := range a.media {
		if w := weight(m.ID); w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("arch: invalid weight %g for medium %q", w, m.Name)
		}
	}
	n := len(a.procs)
	rt := &RouteTable{n: n, routes: make([]Route, n*n)}
	for src := 0; src < n; src++ {
		dist := make([]float64, n)
		var prev []Hop = make([]Hop, n)
		settled := make([]bool, n)
		for i := range dist {
			dist[i] = math.Inf(1)
			prev[i] = Hop{Medium: -1}
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
				w := weight(mid)
				for _, v := range a.media[mid].Endpoints {
					if int(v) == u || settled[v] {
						continue
					}
					if nd := dist[u] + w; nd < dist[v] {
						dist[v] = nd
						prev[v] = Hop{Medium: mid, From: ProcID(u), To: v}
					}
				}
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src || math.IsInf(dist[dst], 1) {
				continue
			}
			var route Route
			for at := dst; at != src; at = int(prev[at].From) {
				route = append(Route{prev[at]}, route...)
			}
			rt.routes[src*n+dst] = route
		}
	}
	return rt, nil
}

// routeWeights draws one weight per medium from a palette that stresses
// Dijkstra's comparisons: small tied integers, zero, forbidden (+Inf)
// media, and huge times whose two-hop sums overflow to +Inf.
func routeWeights(rng *rand.Rand, nMedia int) []float64 {
	w := make([]float64, nMedia)
	for m := range w {
		switch rng.Intn(8) {
		case 0:
			w[m] = 0
		case 1:
			w[m] = math.Inf(1)
		case 2:
			w[m] = 1e308
		case 3:
			w[m] = math.MaxFloat64 / float64(1+rng.Intn(4))
		default:
			w[m] = float64(1 + rng.Intn(3))
		}
	}
	return w
}

// TestRoutesMatchOracle holds ComputeRoutes to the per-source builder it
// replaced: on random architectures, buses included, under tied, zero,
// forbidden and overflowing weights, every pair gets the same route hop
// for hop, and the same pairs stay unreachable.
func TestRoutesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	archs := []*Architecture{FullyConnected(5), Bus(4), DualBus(5), Star(6), Mesh(9), Torus(9), Hypercube(8), Geometric(8, 0, 3)}
	for trial := 0; trial < 300; trial++ {
		archs = append(archs, randomArch(rng))
	}
	for i, a := range archs {
		for round := 0; round < 4; round++ {
			var weight func(MediumID) float64
			if round > 0 {
				w := routeWeights(rng, a.NumMedia())
				weight = func(m MediumID) float64 { return w[m] }
			}
			got, err := a.ComputeRoutes(weight)
			if err != nil {
				t.Fatalf("arch %d: %v", i, err)
			}
			want, err := a.oracleComputeRoutes(weight)
			if err != nil {
				t.Fatalf("arch %d oracle: %v", i, err)
			}
			for p := 0; p < a.NumProcs(); p++ {
				for q := 0; q < a.NumProcs(); q++ {
					g, gerr := got.Route(ProcID(p), ProcID(q))
					o, oerr := want.Route(ProcID(p), ProcID(q))
					if (gerr == nil) != (oerr == nil) || !reflect.DeepEqual(g, o) {
						t.Fatalf("arch %d round %d: route %d->%d = %v (%v), oracle %v (%v)", i, round, p, q, g, gerr, o, oerr)
					}
					if len(g) > 0 && cap(g) != len(g) {
						t.Fatalf("arch %d: route %d->%d has spare capacity %d > %d", i, p, q, cap(g), len(g))
					}
				}
			}
		}
	}
}

// routeTableAllocs is what one ComputeRoutes call allocates whatever the
// processor count: the connectivity check's component labels, the
// weights, the table and its route index, the dist, settled and
// predecessor buffers, and the one hop array every route is a window of.
const routeTableAllocs = 8

// TestRouteTableAllocs is the allocation gate of ComputeRoutes: building
// a table costs routeTableAllocs allocations on every layout and size, so
// a per-source buffer or a per-hop append would fail it. It counts
// allocations, not time, so a loaded machine cannot trip it.
func TestRouteTableAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	for _, a := range []*Architecture{Ring(4), FullyConnected(16), Mesh(9), Mesh(64), Torus(36), Hypercube(32), DualBus(12)} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := a.ComputeRoutes(nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != routeTableAllocs {
			t.Errorf("%d processors, %d media: a route table costs %.0f allocations, want %d",
				a.NumProcs(), a.NumMedia(), allocs, routeTableAllocs)
		}
	}
}

// TestComponentsMatchRoutes holds Components to route-table reachability:
// under random usable-media masks on random architectures, two processors
// share a label exactly when the oracle's table, with unusable media
// forbidden, routes between them.
func TestComponentsMatchRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var comp []ProcID
	for trial := 0; trial < 400; trial++ {
		a := randomArch(rng)
		usable := make([]bool, a.NumMedia())
		for m := range usable {
			usable[m] = rng.Intn(3) > 0
		}
		comp = a.Components(func(m MediumID) bool { return usable[m] }, comp)
		rt, err := a.oracleComputeRoutes(func(m MediumID) float64 {
			if usable[m] {
				return 1
			}
			return math.Inf(1)
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < a.NumProcs(); p++ {
			if comp[p] > ProcID(p) || comp[comp[p]] != comp[p] {
				t.Fatalf("trial %d: label %d of processor %d is not its component's smallest id", trial, comp[p], p)
			}
			for q := 0; q < a.NumProcs(); q++ {
				_, err := rt.Route(ProcID(p), ProcID(q))
				if (comp[p] == comp[q]) != (err == nil) {
					t.Fatalf("trial %d: %d and %d labelled %d/%d, oracle route error %v", trial, p, q, comp[p], comp[q], err)
				}
			}
		}
	}
}

// oraclePairCutVulnerable is PairCutVulnerable before PairCutMatrix
// shared one search scratch, kept verbatim as the differential oracle:
// every search allocates its own seen set and queue and scans every
// medium per reached processor.
func (a *Architecture) oraclePairCutVulnerable(x, y ProcID) bool {
	if x == y {
		return true
	}
	nP, nM := len(a.procs), len(a.media)
	if nP <= 2 {
		return true
	}
	for p := 0; p < nP; p++ {
		for m := 0; m < nM; m++ {
			if !a.oraclePairSurvives(x, y, ProcID(p), MediumID(m)) {
				return true
			}
		}
	}
	return false
}

func (a *Architecture) oraclePairSurvives(x, y, p ProcID, m MediumID) bool {
	for _, z := range [2]ProcID{x, y} {
		if z == p {
			continue
		}
		if a.oracleReachesOutside(z, x, y, p, m) {
			return true
		}
	}
	return false
}

func (a *Architecture) oracleReachesOutside(z, x, y, p ProcID, m MediumID) bool {
	seen := make([]bool, len(a.procs))
	seen[z] = true
	queue := []ProcID{z}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for mi := 0; mi < len(a.media); mi++ {
			if MediumID(mi) == m || !a.media[mi].Connects(u) {
				continue
			}
			for _, v := range a.media[mi].Endpoints {
				if v == p || seen[v] {
					continue
				}
				if v != x && v != y {
					return true
				}
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return false
}

// generatedTopologies builds every layout the generator produces
// (gen.Topology's architecture switch) at 1–12 processors, the seeded
// random-geometric one at its default radius and at a sparse radius that
// forces component stitching, over four placement seeds.
func generatedTopologies() map[string]*Architecture {
	out := make(map[string]*Architecture)
	for n := 1; n <= 12; n++ {
		for name, build := range map[string]func(int) *Architecture{
			"full": FullyConnected, "bus": Bus, "ring": Ring, "star": Star, "dualbus": DualBus,
			"mesh": Mesh, "torus": Torus, "hypercube": Hypercube,
		} {
			out[fmt.Sprintf("%s%d", name, n)] = build(n)
		}
		for seed := int64(1); seed <= 4; seed++ {
			out[fmt.Sprintf("geom%d-seed%d", n, seed)] = Geometric(n, 0, seed)
			out[fmt.Sprintf("geom%d-seed%d-r0.3", n, seed)] = Geometric(n, 0.3, seed)
		}
	}
	return out
}

// TestPairCutMatrixMatchesOracle holds PairCutMatrix and PairCutVulnerable
// to the per-search allocating walk on every generated topology.
func TestPairCutMatrixMatchesOracle(t *testing.T) {
	for name, a := range generatedTopologies() {
		m := a.PairCutMatrix()
		for x := range m {
			for y := range m[x] {
				want := a.oraclePairCutVulnerable(ProcID(x), ProcID(y))
				if m[x][y] != want {
					t.Errorf("%s: matrix[%d][%d] = %t, oracle %t", name, x, y, m[x][y], want)
				}
				if got := a.PairCutVulnerable(ProcID(x), ProcID(y)); got != want {
					t.Errorf("%s: PairCutVulnerable(%d, %d) = %t, oracle %t", name, x, y, got, want)
				}
			}
		}
	}
}

// TestPairCutMatrixAllocs pins a matrix build's allocations to its output
// (the cells and the row headers) and one search scratch (marks and
// queue), independent of how many searches it runs, and a memo hit to
// none.
func TestPairCutMatrixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, a := range []*Architecture{Torus(9), Mesh(9), Geometric(8, 0, 1), Ring(28)} {
		if got := testing.AllocsPerRun(5, func() { a.pairCutMatrix() }); got != 4 {
			t.Errorf("%d processors, %d media: %.0f allocations per matrix, want 4", a.NumProcs(), a.NumMedia(), got)
		}
		a.PairCutMatrix()
		if got := testing.AllocsPerRun(5, func() { a.PairCutMatrix() }); got != 0 {
			t.Errorf("%d processors, %d media: %.0f allocations per memo hit, want 0", a.NumProcs(), a.NumMedia(), got)
		}
	}
}

// The disjoint-fan search before its flow network became one skeleton per
// architecture revision and its Bellman-Ford a frontier walk, kept
// verbatim below as the oracle of TestFanMatchesOracle and
// FuzzFanAgainstOracle.

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

// fanNet is the flow network of one oracle fan search.
type fanNet struct {
	arcs []flowArc
	adj  [][]int32 // arc indices leaving each node, in insertion order
}

// oracleFanScratch carries the reusable buffers of the disjoint-fan search: the
// arc slab, the per-node adjacency lists (truncated, not freed, between
// calls), and the Bellman-Ford distance/predecessor arrays. One scratch
// serves any number of sequential searches over any architecture; it is
// not safe for concurrent use. Reuse changes no observable behaviour —
// arcs are rebuilt in the same insertion order every call, and the
// relaxation never reads a cell it has not written this call.
type oracleFanScratch struct {
	net     fanNet
	sorted  []ProcID
	dist    []float64
	prevArc []int32
}

// reset prepares the scratch for a search over `nodes` flow nodes.
func (sc *oracleFanScratch) reset(nodes int) {
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

// oracleDisjointFanRelay is the fan search before the flow network was
// built once per architecture (it was the public DisjointFanRelay, and
// with nil relay costs DisjointFan), kept as the differential oracle:
// every call rebuilds the network in sc, inserting only the open source
// arcs and the usable media, and Bellman-Ford scans every node with a
// finite distance in every round.
func (a *Architecture) oracleDisjointFanRelay(sc *oracleFanScratch, srcs []ProcID, dst ProcID, weight func(MediumID) float64, relayCost func(ProcID) float64) []Route {
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

// oracleFanCostEps is the relative float tolerance of the shortest-path
// relaxation. The residual network carries exact zero-cost cycles
// (forward and reverse copies of the same arc costs cancel), but distance
// values accumulate their terms in path order, so going around such a
// cycle can appear to improve a distance by a few ulps — enough for
// Bellman-Ford to close a cycle in the predecessor graph and hang the
// augmentation walk. Improvements must therefore clear the tolerance;
// genuine improvements in real inputs are far larger.
const oracleFanCostEps = 1e-9

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
				if nd < dist[arc.to]-oracleFanCostEps*(1+math.Abs(nd)) {
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

// oracleFanAvoiding is FanCache.FanAvoiding before the skeleton: the
// canonical source order, the avoided relays charged one unit above the
// sum of the usable media weights, and one oracle search.
func (a *Architecture) oracleFanAvoiding(srcs []ProcID, dst ProcID, weight func(MediumID) float64, avoid uint64) []Route {
	canon := append([]ProcID(nil), srcs...)
	sort.Slice(canon, func(i, j int) bool { return canon[i] < canon[j] })
	var relayCost func(ProcID) float64
	if avoid != 0 {
		penalty := 1.0
		for m := 0; m < a.NumMedia(); m++ {
			w := 1.0
			if weight != nil {
				w = weight(MediumID(m))
			}
			if !math.IsInf(w, 1) && !math.IsNaN(w) && w >= 0 {
				penalty += w
			}
		}
		relayCost = func(p ProcID) float64 {
			if p < 64 && avoid&(1<<uint(p)) != 0 {
				return penalty
			}
			return 0
		}
	}
	return a.oracleDisjointFanRelay(new(oracleFanScratch), canon, dst, weight, relayCost)
}

// oracleMaxDisjointRoutes is MaxDisjointRoutes before the skeleton: the
// served count of a unit-weight oracle fan over the usable media.
func (a *Architecture) oracleMaxDisjointRoutes(srcs []ProcID, dst ProcID, usable func(MediumID) bool) int {
	routes := a.oracleDisjointFanRelay(new(oracleFanScratch), srcs, dst, func(m MediumID) float64 {
		if usable == nil || usable(m) {
			return 1
		}
		return math.Inf(1)
	}, nil)
	count := 0
	for _, r := range routes {
		if r != nil {
			count++
		}
	}
	return count
}

// checkFanAgainstOracle runs one (sources, receiver, weights, avoid mask)
// case through the search and every fan entry point, against the oracle:
// the search (fan, then routes) on the shared scratch sc without relay
// charges and charging the avoided processors, MaxDisjointRoutes on sc,
// and fc.FanAvoiding cold then warm. Routes must match route for route,
// unserved nils included. w == nil is the nil weight function.
func checkFanAgainstOracle(t testing.TB, a *Architecture, fc *FanCache, sc *FanScratch, w []float64, srcs []ProcID, dst ProcID, avoid uint64) {
	t.Helper()
	var weight func(MediumID) float64
	if w != nil {
		weight = func(m MediumID) float64 { return w[m] }
	}
	usable := func(m MediumID) bool {
		return weight == nil || !(math.IsInf(w[m], 1) || math.IsNaN(w[m]) || w[m] < 0)
	}
	relayCost := func(p ProcID) float64 { return float64(avoid>>uint(p)&1) * 3 }
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("%d procs, %d media, weights %v, srcs %v -> %d, avoid %#x: %s = %v, oracle %v",
			a.NumProcs(), a.NumMedia(), w, srcs, dst, avoid, what, got, want)
	}
	a.fan(sc, srcs, dst, weight, nil)
	if got, want := sc.routes(), a.oracleDisjointFanRelay(new(oracleFanScratch), srcs, dst, weight, nil); !reflect.DeepEqual(got, want) {
		fail("fan", got, want)
	}
	relay := sc.relayCosts(a.NumProcs())
	for p := range relay {
		relay[p] = relayCost(ProcID(p))
	}
	a.fan(sc, srcs, dst, weight, relay)
	if got, want := sc.routes(), a.oracleDisjointFanRelay(new(oracleFanScratch), srcs, dst, weight, relayCost); !reflect.DeepEqual(got, want) {
		fail("fan with relay charges", got, want)
	}
	if got, want := a.MaxDisjointRoutes(srcs, dst, usable, sc), a.oracleMaxDisjointRoutes(srcs, dst, usable); got != want {
		fail("MaxDisjointRoutes", got, want)
	}
	want := a.oracleFanAvoiding(srcs, dst, weight, avoid)
	if got := fc.FanAvoiding(srcs, dst, avoid); !reflect.DeepEqual(got, want) {
		fail("FanAvoiding (cold)", got, want)
	}
	if got := fc.FanAvoiding(srcs, dst, avoid); !reflect.DeepEqual(got, want) {
		fail("FanAvoiding (warm)", got, want)
	}
}

// fanWeightPalettes are the tie-heavy weight vectors TestFanMatchesOracle
// draws: nil (every medium costs 1), all equal, small integers, all
// zero, 1e308 and MaxFloat64 mixed with small integers (sums overflow
// to +Inf), and unusable media (+Inf, NaN, negative) among small ones.
// TestFanPlannerPattern adds "jitter", the generator's non-integer
// comm times.
var fanWeightPalettes = []string{"nil", "equal", "small", "zeros", "huge", "unusable"}

func fanWeights(rng *rand.Rand, palette string, nMedia int) []float64 {
	if palette == "nil" {
		return nil
	}
	w := make([]float64, nMedia)
	for m := range w {
		switch palette {
		case "equal":
			w[m] = 2
		case "small":
			w[m] = float64(rng.Intn(4))
		case "zeros":
			w[m] = 0
		case "huge":
			w[m] = []float64{1e308, math.MaxFloat64, 1, 0}[rng.Intn(4)]
		case "unusable":
			w[m] = []float64{math.Inf(1), math.NaN(), -1, 1, 2, 1}[rng.Intn(6)]
		case "jitter":
			w[m] = 10 * (0.5 + rng.Float64())
		}
	}
	return w
}

// fanTestArchs returns every generated topology in name order, then 40
// random architectures drawn from rng.
func fanTestArchs(rng *rand.Rand) []*Architecture {
	topos := generatedTopologies()
	names := make([]string, 0, len(topos))
	for name := range topos {
		names = append(names, name)
	}
	sort.Strings(names)
	archs := make([]*Architecture, 0, len(names)+40)
	for _, name := range names {
		archs = append(archs, topos[name])
	}
	for i := 0; i < 40; i++ {
		archs = append(archs, randomArch(rng))
	}
	return archs
}

// TestFanMatchesOracle holds every disjoint-fan entry point to the
// per-call oracle on every generated topology at 2–12 processors and on
// random ones, under tie-heavy weights: 1–4 distinct sources in shuffled
// order towards every receiver, sources included, with random avoid
// masks. One search scratch serves every case, across architectures.
func TestFanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sc := new(FanScratch)
	for _, a := range fanTestArchs(rng) {
		n := a.NumProcs()
		if n < 2 {
			continue
		}
		for _, palette := range fanWeightPalettes {
			w := fanWeights(rng, palette, a.NumMedia())
			var weight func(MediumID) float64
			if w != nil {
				weight = func(m MediumID) float64 { return w[m] }
			}
			fc := NewFanCache(a, weight, sc)
			for trial := 0; trial < 2; trial++ {
				perm := rng.Perm(n)
				srcs := make([]ProcID, 1+rng.Intn(min(4, n)))
				for i := range srcs {
					srcs[i] = ProcID(perm[i])
				}
				for dst := 0; dst < n; dst++ {
					avoid := uint64(0)
					if rng.Intn(4) > 0 {
						avoid = rng.Uint64() & (1<<uint(n) - 1)
					}
					checkFanAgainstOracle(t, a, fc, sc, w, srcs, ProcID(dst), avoid)
				}
			}
		}
	}
}

// TestFanPlannerPattern holds FanCache.FanAvoiding to the oracle under
// the planner's query pattern (sched's planEdge): one source set and one
// base avoid mask — the processors hosting replicas of the edge's tasks,
// the senders among them — with each receiver charged on top, every
// receiver through one cache, so receivers share the set's first search.
// Sharing must engage somewhere and stand down on the zeros palette, and
// the direct fan must answer some misses.
func TestFanPlannerPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sc := new(FanScratch)
	shared, direct := 0, 0
	for _, a := range fanTestArchs(rng) {
		n := a.NumProcs()
		if n < 3 {
			continue
		}
		for _, palette := range append(fanWeightPalettes, "jitter") {
			w := fanWeights(rng, palette, a.NumMedia())
			var weight func(MediumID) float64
			if w != nil {
				weight = func(m MediumID) float64 { return w[m] }
			}
			fc := NewFanCache(a, weight, sc)
			for trial := 0; trial < 3; trial++ {
				perm := rng.Perm(n)
				srcs := make([]ProcID, 1+rng.Intn(min(3, n-1)))
				base := rng.Uint64() & (1<<uint(n) - 1) & rng.Uint64()
				for i := range srcs {
					srcs[i] = ProcID(perm[i])
					base |= 1 << uint(perm[i])
				}
				canon := slices.Sorted(slices.Values(srcs))
				for dst := ProcID(0); int(dst) < n; dst++ {
					key := fanKey{avoid: base | 1<<uint(dst), dst: dst}
					for _, sp := range srcs {
						key.srcs |= 1 << uint(sp)
					}
					if fc.directFan(canon, key, fc.tolerance(key.avoid, dst)) {
						direct++
					}
					want := a.oracleFanAvoiding(srcs, dst, weight, key.avoid)
					if got := fc.FanAvoiding(srcs, dst, key.avoid); !reflect.DeepEqual(got, want) {
						t.Fatalf("%d procs, %d media, weights %v, srcs %v -> %d, avoid %#x: FanAvoiding = %v, oracle %v",
							n, a.NumMedia(), w, srcs, dst, key.avoid, got, want)
					}
				}
			}
			if palette == "zeros" && len(fc.firsts) > 0 {
				t.Fatalf("%d procs, %d media: zero weights shared %d first searches", n, a.NumMedia(), len(fc.firsts))
			}
			shared += len(fc.firsts)
		}
	}
	t.Logf("%d shared first searches, %d direct fans", shared, direct)
	if shared == 0 || direct == 0 {
		t.Fatalf("%d shared first searches and %d direct fans: a shortcut never engaged", shared, direct)
	}
}

// TestFanAvoidingCanonicalBeyond64 pins FanAvoiding's canonical order
// where the cache cannot key a source set: on a 65-processor ring every
// call searches afresh, and the routes must still come back in ascending
// source order, as the oracle returns them, whatever the caller's order.
func TestFanAvoidingCanonicalBeyond64(t *testing.T) {
	a := Ring(65)
	fc := NewFanCache(a, nil, nil)
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 20; trial++ {
		perm := rng.Perm(a.NumProcs())
		srcs := []ProcID{ProcID(perm[0]), ProcID(perm[1]), ProcID(perm[2])}
		dst, avoid := ProcID(perm[3]), rng.Uint64()
		want := a.oracleFanAvoiding(srcs, dst, nil, avoid)
		if got := fc.FanAvoiding(srcs, dst, avoid); !reflect.DeepEqual(got, want) {
			t.Fatalf("srcs %v -> %d, avoid %#x: FanAvoiding = %v, oracle %v", srcs, dst, avoid, got, want)
		}
	}
}

// FuzzFanAgainstOracle drives checkFanAgainstOracle with arbitrary
// topologies (a generated layout at 2–12 processors, or a random one),
// weights from a palette of ties, zeros, overflowing and unusable values,
// distinct sources and avoid masks. One cache and one scratch persist
// across the inputs, so warm and cross-architecture reuse is fuzzed too.
// A second receiver then queries the same cache with the first one's
// charge moved onto it, as the planner queries receivers, so it may read
// the first search the first receiver shared.
func FuzzFanAgainstOracle(f *testing.F) {
	f.Add(uint8(3), uint8(2), int64(1), []byte{1, 2}, uint8(0), []byte{1, 1, 1, 1}, uint64(0))
	f.Add(uint8(8), uint8(6), int64(7), []byte{0, 3, 5}, uint8(4), []byte{0, 6, 2, 7, 1, 8}, uint64(0x15))
	f.Add(uint8(6), uint8(7), int64(3), []byte{8, 2, 5, 0}, uint8(2), []byte{9, 0, 0, 3}, uint64(0xff))
	f.Add(uint8(9), uint8(5), int64(11), []byte{4, 1}, uint8(1), []byte{}, uint64(0x2))
	f.Add(uint8(0), uint8(10), int64(5), []byte{0, 11, 6}, uint8(11), []byte{5, 5, 5}, uint64(0x801))
	values := []float64{0, 1, 2, 3, 0.5, 1e308, math.MaxFloat64, math.Inf(1), math.NaN(), -1}
	builders := []func(int) *Architecture{FullyConnected, Bus, DualBus, Ring, Star, Mesh, Torus, Hypercube}
	sc := new(FanScratch)
	f.Fuzz(func(t *testing.T, kind, size uint8, seed int64, srcBytes []byte, dstByte uint8, weightBytes []byte, avoid uint64) {
		n := 2 + int(size)%11
		var a *Architecture
		switch k := int(kind) % 10; {
		case k < len(builders):
			a = builders[k](n)
		case k == 8:
			a = Geometric(n, 0, seed)
		default:
			a = randomArch(rand.New(rand.NewSource(seed)))
			n = a.NumProcs()
		}
		var w []float64
		if len(weightBytes) > 0 {
			w = make([]float64, a.NumMedia())
			for m := range w {
				w[m] = values[int(weightBytes[m%len(weightBytes)])%len(values)]
			}
		}
		var srcs []ProcID
		seen := make([]bool, n)
		for _, b := range srcBytes {
			if p := int(b) % n; !seen[p] {
				seen[p] = true
				srcs = append(srcs, ProcID(p))
			}
		}
		if len(srcs) == 0 {
			return
		}
		var weight func(MediumID) float64
		if w != nil {
			weight = func(m MediumID) float64 { return w[m] }
		}
		fc := NewFanCache(a, weight, sc)
		dst, avoid := ProcID(int(dstByte)%n), avoid&(1<<uint(n)-1)
		checkFanAgainstOracle(t, a, fc, sc, w, srcs, dst, avoid)
		next := (dst + 1) % ProcID(n)
		moved := avoid&^(1<<uint(dst)) | 1<<uint(next)
		if got, want := fc.FanAvoiding(srcs, next, moved), a.oracleFanAvoiding(srcs, next, weight, moved); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d procs, %d media, weights %v, srcs %v -> %d, avoid %#x: FanAvoiding = %v, oracle %v",
				a.NumProcs(), a.NumMedia(), w, srcs, next, moved, got, want)
		}
	})
}

// TestPairCutMatrixMemo pins the per-Revision memo: repeated calls return
// the same matrix until AddMedium or AddProcessor moves the revision, and
// the matrix built after that equals the oracle's on the new topology.
func TestPairCutMatrixMemo(t *testing.T) {
	a := Ring(6)
	first := a.PairCutMatrix()
	if again := a.PairCutMatrix(); &again[0][0] != &first[0][0] {
		t.Fatal("an unchanged architecture rebuilt its matrix")
	}
	for step, mutate := range []func(){
		func() { a.MustAddMedium("X1.4", 0, 3) },
		func() { a.MustAddProcessor("P7") },
		func() { a.MustAddMedium("X6.7", 5, 6) },
	} {
		before := a.PairCutMatrix()
		mutate()
		after := a.PairCutMatrix()
		if &after[0][0] == &before[0][0] {
			t.Fatalf("step %d: the matrix survived a revision change", step)
		}
		if again := a.PairCutMatrix(); &again[0][0] != &after[0][0] {
			t.Fatalf("step %d: the new revision's matrix is not memoised", step)
		}
		for x := range after {
			for y := range after[x] {
				if want := a.oraclePairCutVulnerable(ProcID(x), ProcID(y)); after[x][y] != want {
					t.Errorf("step %d: matrix[%d][%d] = %t, oracle %t", step, x, y, after[x][y], want)
				}
			}
		}
	}
	if !reflect.DeepEqual(first, Ring(6).PairCutMatrix()) {
		t.Error("a superseded matrix changed after the architecture moved on")
	}
}

// oracleDirectMedia is DirectMedia before its memo: MediaBetween for
// every ordered pair.
func (a *Architecture) oracleDirectMedia() [][]MediumID {
	n := a.NumProcs()
	direct := make([][]MediumID, n*n)
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			direct[p*n+q] = a.MediaBetween(ProcID(p), ProcID(q))
		}
	}
	return direct
}

// TestDirectMediaMemo pins DirectMedia's per-Revision memo as
// TestPairCutMatrixMemo pins the matrix's, against MediaBetween on every
// generated topology and across mutations.
func TestDirectMediaMemo(t *testing.T) {
	for name, a := range generatedTopologies() {
		if got, want := a.DirectMedia(), a.oracleDirectMedia(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DirectMedia = %v, MediaBetween %v", name, got, want)
		}
	}
	a := Ring(6)
	first := a.DirectMedia()
	if again := a.DirectMedia(); &again[1] != &first[1] {
		t.Fatal("an unchanged architecture rebuilt its table")
	}
	for step, mutate := range []func(){
		func() { a.MustAddMedium("X1.4", 0, 3) },
		func() { a.MustAddProcessor("P7") },
		func() { a.MustAddMedium("BUS", 1, 4, 6) },
	} {
		before := a.DirectMedia()
		mutate()
		after := a.DirectMedia()
		if &after[1] == &before[1] {
			t.Fatalf("step %d: the table survived a revision change", step)
		}
		if again := a.DirectMedia(); &again[1] != &after[1] {
			t.Fatalf("step %d: the new revision's table is not memoised", step)
		}
		if want := a.oracleDirectMedia(); !reflect.DeepEqual(after, want) {
			t.Fatalf("step %d: DirectMedia = %v, MediaBetween %v", step, after, want)
		}
	}
	if !reflect.DeepEqual(first, Ring(6).DirectMedia()) {
		t.Error("a superseded table changed after the architecture moved on")
	}
}

// TestArchMemosConcurrent has several goroutines fill and read the
// architecture's memos at once — the pair-cut matrix, the direct-media
// table, and the flow skeleton under per-goroutine fan scratches — as
// concurrent planners of problems sharing one architecture do. Under
// -race it checks that the memos publish safely; every goroutine must see
// the oracle's answers.
func TestArchMemosConcurrent(t *testing.T) {
	for _, build := range []func() *Architecture{
		func() *Architecture { return Torus(9) },
		func() *Architecture { return Geometric(8, 0, 2) },
		func() *Architecture { return Ring(7) },
	} {
		a := build()
		ref := build()
		wantCuts := ref.pairCutMatrix()
		wantDirect := ref.oracleDirectMedia()
		srcs, dst := []ProcID{1, 4, 2}, ProcID(0)
		wantFan := ref.oracleDisjointFanRelay(new(oracleFanScratch), srcs, dst, nil, nil)
		wantMax := ref.oracleMaxDisjointRoutes(srcs, dst, nil)
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := new(FanScratch)
				for i := 0; i < 5; i++ {
					if !reflect.DeepEqual(a.PairCutMatrix(), wantCuts) {
						errs <- "pair-cut matrix differs from a fresh build"
						return
					}
					if !reflect.DeepEqual(a.DirectMedia(), wantDirect) {
						errs <- "direct-media table differs from MediaBetween"
						return
					}
					if got := a.MaxDisjointRoutes(srcs, dst, nil, sc); got != wantMax {
						errs <- fmt.Sprintf("MaxDisjointRoutes = %d, oracle %d", got, wantMax)
						return
					}
					fan := NewFanCache(a, nil, sc).FanAvoiding(srcs, dst, 0)
					for i, sp := range srcs {
						if !reflect.DeepEqual(RouteFrom(fan, sp), wantFan[i]) {
							errs <- fmt.Sprintf("fan route of %d differs from the oracle", sp)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Errorf("%d processors: %s", a.NumProcs(), e)
		}
	}
}
