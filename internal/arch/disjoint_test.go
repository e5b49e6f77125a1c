package arch

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// checkRoute asserts r is a well-formed route from src to dst: hops are
// contiguous, every hop's endpoints are on its medium, and no processor
// repeats (routes are simple).
func checkRoute(t *testing.T, a *Architecture, r Route, src, dst ProcID) {
	t.Helper()
	if len(r) == 0 {
		t.Fatalf("empty route %v -> %v", src, dst)
	}
	if r[0].From != src {
		t.Errorf("route starts at %v, want %v", r[0].From, src)
	}
	if r[len(r)-1].To != dst {
		t.Errorf("route ends at %v, want %v", r[len(r)-1].To, dst)
	}
	seen := map[ProcID]bool{src: true}
	for i, h := range r {
		if i > 0 && h.From != r[i-1].To {
			t.Errorf("hop %d discontinuous: %v after %v", i, h, r[i-1])
		}
		m := a.Medium(h.Medium)
		if !m.Connects(h.From) || !m.Connects(h.To) || h.From == h.To {
			t.Errorf("hop %d endpoints %v->%v not on medium %q", i, h.From, h.To, m.Name)
		}
		if seen[h.To] {
			t.Errorf("route revisits processor %v: %v", h.To, r)
		}
		seen[h.To] = true
	}
}

// checkPairwiseDisjoint asserts no medium appears in two served routes.
func checkPairwiseDisjoint(t *testing.T, routes []Route) {
	t.Helper()
	used := map[MediumID]int{}
	for i, r := range routes {
		for _, h := range r {
			if j, ok := used[h.Medium]; ok && j != i {
				t.Errorf("medium %d shared by routes %d and %d: %v", h.Medium, j, i, routes)
			}
			used[h.Medium] = i
		}
	}
}

// disjointFan runs one search on a fresh scratch and copies its routes
// out, aligned with srcs. relayCost charges each processor as a relay;
// nil charges nothing.
func disjointFan(a *Architecture, srcs []ProcID, dst ProcID, weight func(MediumID) float64, relayCost func(ProcID) float64) []Route {
	sc := new(FanScratch)
	var relay []float64
	if relayCost != nil {
		relay = sc.relayCosts(a.NumProcs())
		for p := range relay {
			relay[p] = relayCost(ProcID(p))
		}
	}
	a.fan(sc, srcs, dst, weight, relay)
	return sc.routes()
}

// TestDisjointFanRing pins the headline topology: on a ring every
// (sender-pair, receiver) triple has exactly two media-disjoint routes,
// and the fan finds both — including the Suurballe trap where the
// cheapest first route would eat the link the second one needs.
func TestDisjointFanRing(t *testing.T) {
	a := Ring(4)
	// Senders P2 (id 1) and P3 (id 2) towards P1 (id 0): P3's two
	// detours both have length 2, and the one through P2 steals P2's only
	// direct link L1.2. Sequential greedy routing dead-ends here; the
	// flow-based fan must serve both.
	routes := disjointFan(a, []ProcID{1, 2}, 0, nil, nil)
	if routes[0] == nil || routes[1] == nil {
		t.Fatalf("fan left a sender unserved: %v", routes)
	}
	checkRoute(t, a, routes[0], 1, 0)
	checkRoute(t, a, routes[1], 2, 0)
	checkPairwiseDisjoint(t, routes)

	for n := 3; n <= 7; n++ {
		a := Ring(n)
		for dst := 0; dst < n; dst++ {
			for s1 := 0; s1 < n; s1++ {
				for s2 := s1 + 1; s2 < n; s2++ {
					if s1 == dst || s2 == dst {
						continue
					}
					srcs := []ProcID{ProcID(s1), ProcID(s2)}
					routes := disjointFan(a, srcs, ProcID(dst), nil, nil)
					for i, r := range routes {
						if r == nil {
							t.Fatalf("ring(%d) %v->%d: sender %v unserved", n, srcs, dst, srcs[i])
						}
						checkRoute(t, a, r, srcs[i], ProcID(dst))
					}
					checkPairwiseDisjoint(t, routes)
				}
			}
		}
	}
}

// TestDisjointFanStarAndBus pins the genuinely cut topologies: a star
// spoke is reachable over its single link only, and a single bus can
// carry one chain.
func TestDisjointFanStarAndBus(t *testing.T) {
	star := Star(4)
	if got := star.MaxDisjointRoutes([]ProcID{1, 3}, 2, nil, nil); got != 1 {
		t.Errorf("star spoke disjoint routes = %d, want 1 (single link cut)", got)
	}
	bus := Bus(4)
	if got := bus.MaxDisjointRoutes([]ProcID{0, 1}, 3, nil, nil); got != 1 {
		t.Errorf("bus disjoint routes = %d, want 1 (single medium)", got)
	}
	dual := DualBus(4)
	if got := dual.MaxDisjointRoutes([]ProcID{0, 1}, 3, nil, nil); got != 2 {
		t.Errorf("dualbus disjoint routes = %d, want 2", got)
	}
	full := FullyConnected(5)
	if got := full.MaxDisjointRoutes([]ProcID{0, 1, 2}, 4, nil, nil); got != 3 {
		t.Errorf("full disjoint routes = %d, want 3 (one direct link each)", got)
	}
}

// TestDisjointFanUnusableMedia pins weight-based exclusion: media with
// +Inf weight never appear in a served route.
func TestDisjointFanUnusableMedia(t *testing.T) {
	a := Ring(4)
	forbidden := MediumID(0) // L1.2
	routes := disjointFan(a, []ProcID{1}, 0, func(m MediumID) float64 {
		if m == forbidden {
			return math.Inf(1)
		}
		return 1
	}, nil)
	if routes[0] == nil {
		t.Fatal("detour around forbidden link not found")
	}
	checkRoute(t, a, routes[0], 1, 0)
	for _, h := range routes[0] {
		if h.Medium == forbidden {
			t.Errorf("route uses forbidden medium: %v", routes[0])
		}
	}
}

// randomArch builds a seeded random connected architecture: a ring
// backbone plus extra random links and an optional bus.
func randomArch(rng *rand.Rand) *Architecture {
	n := 3 + rng.Intn(6)
	a := Ring(n)
	extra := rng.Intn(2 * n)
	for i := 0; i < extra; i++ {
		p, q := rng.Intn(n), rng.Intn(n)
		if p == q {
			continue
		}
		name := "X" + string(rune('a'+i))
		if _, err := a.AddMedium(name, ProcID(p), ProcID(q)); err != nil {
			continue
		}
	}
	if rng.Intn(2) == 0 {
		eps := make([]ProcID, n)
		for i := range eps {
			eps[i] = ProcID(i)
		}
		a.MustAddMedium("XBUS", eps...)
	}
	return a
}

// TestDisjointFanProperties is the route-enumeration property test:
// across seeded random architectures and sender sets the served routes
// are well-formed, pairwise media-disjoint, deterministic across repeated
// runs, and invariant (as a set) under sender-order permutation; the
// served count never exceeds what Menger's bound allows and is maximal in
// the single-sender case.
func TestDisjointFanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		a := randomArch(rng)
		n := a.NumProcs()
		dst := ProcID(rng.Intn(n))
		var srcs []ProcID
		for p := 0; p < n; p++ {
			if ProcID(p) != dst && rng.Intn(2) == 0 {
				srcs = append(srcs, ProcID(p))
			}
		}
		if len(srcs) == 0 {
			continue
		}
		weight := func(m MediumID) float64 { return 1 + float64(m%3) }
		routes := disjointFan(a, srcs, dst, weight, nil)
		if len(routes) != len(srcs) {
			t.Fatalf("trial %d: %d routes for %d sources", trial, len(routes), len(srcs))
		}
		served := 0
		for i, r := range routes {
			if r == nil {
				continue
			}
			served++
			checkRoute(t, a, r, srcs[i], dst)
		}
		checkPairwiseDisjoint(t, routes)
		if served == 0 {
			t.Errorf("trial %d: no source served on a connected architecture", trial)
		}
		// Deterministic across runs.
		again := disjointFan(a, srcs, dst, weight, nil)
		if !reflect.DeepEqual(routes, again) {
			t.Fatalf("trial %d: fan not deterministic:\n%v\n%v", trial, routes, again)
		}
		// Order-invariant as a per-source assignment.
		rev := make([]ProcID, len(srcs))
		for i, sp := range srcs {
			rev[len(srcs)-1-i] = sp
		}
		flipped := disjointFan(a, rev, dst, weight, nil)
		for i, sp := range srcs {
			if !reflect.DeepEqual(routes[i], RouteFrom(flipped, sp)) {
				t.Fatalf("trial %d: route of %v depends on sender order", trial, sp)
			}
		}
	}
}

// TestFanCache pins the cache contract: hits return the same routes
// without recomputation, and a topology mutation (revision bump)
// invalidates the whole cache so new media become routable.
func TestFanCache(t *testing.T) {
	a := Star(4)
	c := NewFanCache(a, nil, nil)
	first := c.FanAvoiding([]ProcID{1, 3}, 2, 0)
	if got := len(serving(first)); got != 1 {
		t.Fatalf("star fan served %d, want 1", got)
	}
	if again := c.FanAvoiding([]ProcID{3, 1}, 2, 0); !reflect.DeepEqual(first, again) {
		t.Errorf("cache miss on permuted source set")
	}
	// Adding a bypass link bumps the revision; the stale single-route fan
	// must not survive.
	a.MustAddMedium("L3.4", 2, 3)
	after := c.FanAvoiding([]ProcID{1, 3}, 2, 0)
	if got := len(serving(after)); got != 2 {
		t.Errorf("fan after topology change served %d, want 2 (revision invalidation)", got)
	}
}

func serving(routes []Route) []Route {
	var out []Route
	for _, r := range routes {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// TestDisjointFanRelayNilIdentical pins the contract FanAvoiding's empty
// mask relies on: no relay charges (nil) and zero charges everywhere give
// the same fan, arc for arc.
func TestDisjointFanRelayNilIdentical(t *testing.T) {
	a := Ring(5)
	srcs := []ProcID{1, 2, 3}
	plain := disjointFan(a, srcs, 0, nil, nil)
	relay := disjointFan(a, srcs, 0, nil, func(ProcID) float64 { return 0 })
	if !reflect.DeepEqual(plain, relay) {
		t.Errorf("nil relay cost diverged:\nplain %v\nrelay %v", plain, relay)
	}
}

// TestDisjointFanRelaySteersAwayFromChargedProc pins the steering: on a
// 4-ring with one sender, two routes reach the receiver; charging the
// relay of the cheap one makes the fan take the other way around.
func TestDisjointFanRelaySteersAwayFromChargedProc(t *testing.T) {
	a := Ring(4) // P0-P1-P2-P3-P0
	// P2 -> P0: via P1 or via P3, both two hops.
	free := disjointFan(a, []ProcID{2}, 0, nil, nil)
	if len(free) != 1 || free[0] == nil {
		t.Fatalf("unserved: %v", free)
	}
	through := func(routes []Route, p ProcID) bool {
		for _, r := range routes {
			for i, h := range r {
				if i > 0 && h.From == p {
					return true
				}
			}
		}
		return false
	}
	relayP := ProcID(1)
	if !through(free, relayP) {
		relayP = 3
	}
	charged := disjointFan(a, []ProcID{2}, 0, nil, func(p ProcID) float64 {
		if p == relayP {
			return 100
		}
		return 0
	})
	if len(charged) != 1 || charged[0] == nil {
		t.Fatalf("charged fan unserved: %v", charged)
	}
	if through(charged, relayP) {
		t.Errorf("fan still relays through charged %d: %v", relayP, charged)
	}
}

// TestDisjointFanRelayChargeNeverDropsSources pins that relay charges are
// preferences, not cuts: charging every processor heavily must not reduce
// the number of served sources.
func TestDisjointFanRelayChargeNeverDropsSources(t *testing.T) {
	a := Ring(6)
	srcs := []ProcID{2, 4}
	charged := disjointFan(a, srcs, 0, nil, func(ProcID) float64 { return 1e6 })
	for i, r := range charged {
		if r == nil {
			t.Errorf("source %d dropped under uniform charges", srcs[i])
		}
	}
}

// TestFanCacheAvoidKeying pins that the avoid mask is part of the cache
// key: the same (srcs, dst) with different masks returns different routes
// when the mask matters, and each mask's entry holds its own fan.
func TestFanCacheAvoidKeying(t *testing.T) {
	a := Ring(4)
	fc := NewFanCache(a, nil, nil)
	srcs := []ProcID{2}
	cached := func(avoid uint64) ([]Route, bool) {
		routes, ok := fc.fans[fanKey{srcs: 1 << 2, avoid: avoid, dst: 0}]
		return routes, ok
	}
	plain := fc.FanAvoiding(srcs, 0, 0)
	if _, ok := cached(1 << 1); ok {
		t.Error("a different avoid mask found the zero-mask entry")
	}
	avoided := fc.FanAvoiding(srcs, 0, 1<<1) // disprefer P1 as relay
	if reflect.DeepEqual(plain, avoided) {
		t.Errorf("avoid mask had no effect on the 4-ring detour: %v", avoided)
	}
	if got, ok := cached(1 << 1); !ok || !reflect.DeepEqual(got, avoided) {
		t.Error("avoid-keyed entry not served back")
	}
	if got, ok := cached(0); !ok || !reflect.DeepEqual(got, plain) {
		t.Error("zero-mask entry lost after avoid-keyed fill")
	}
}

// TestDisjointFanScratchReuse pins that a shared search scratch is
// observably identical to a fresh one: a single scratch threaded through
// many searches over many architectures yields route-for-route the same
// fans as a fresh scratch per search, so a clone family's shared scratch
// can never leak one search's state into the next.
func TestDisjointFanScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sc := new(FanScratch)
	for trial := 0; trial < 200; trial++ {
		a := randomArch(rng)
		n := a.NumProcs()
		dst := ProcID(rng.Intn(n))
		var srcs []ProcID
		for p := 0; p < n; p++ {
			if ProcID(p) != dst && rng.Intn(2) == 0 {
				srcs = append(srcs, ProcID(p))
			}
		}
		if len(srcs) == 0 {
			continue
		}
		weight := func(m MediumID) float64 { return 1 + float64(m%3) }
		var relay func(ProcID) float64
		var charges []float64
		if rng.Intn(2) == 0 {
			relay = func(p ProcID) float64 { return float64(p % 2) }
			charges = sc.relayCosts(n)
			for p := range charges {
				charges[p] = relay(ProcID(p))
			}
		}
		fresh := disjointFan(a, srcs, dst, weight, relay)
		a.fan(sc, srcs, dst, weight, charges)
		if pooled := sc.routes(); !reflect.DeepEqual(fresh, pooled) {
			t.Fatalf("trial %d: pooled scratch diverged:\nfresh:  %v\npooled: %v",
				trial, fresh, pooled)
		}
	}
}

// TestFanCacheWarmLookupAllocs pins the warm path: once an entry is
// cached, FanAvoiding is a key build plus a map hit and must not allocate,
// with or without an avoid mask (relay charges are filled only on a miss).
func TestFanCacheWarmLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	a := Ring(6)
	c := NewFanCache(a, nil, nil)
	srcs := []ProcID{1, 3, 4}
	c.FanAvoiding(srcs, 0, 0) // warm
	if avg := testing.AllocsPerRun(100, func() { c.FanAvoiding(srcs, 0, 0) }); avg != 0 {
		t.Errorf("warm FanAvoiding without a mask allocates %v per op, want 0", avg)
	}
	c.FanAvoiding(srcs, 0, 1<<2)
	if avg := testing.AllocsPerRun(100, func() { c.FanAvoiding(srcs, 0, 1<<2) }); avg != 0 {
		t.Errorf("warm FanAvoiding allocates %v per op, want 0", avg)
	}
}

// TestFanMissAllocs is the allocation gate of a fan cache miss on a warm
// family: once the skeleton is built and the shared scratch has grown, a
// miss allocates the []Route it caches and the one hop array its routes
// are windows of, and nothing else, on every layout up to the 64
// processors a cache keys. A miss that fills the shared first-search
// memo also allocates the predecessor tree it keeps, one object more; a
// miss that reads it stays at 2. Each measured call's entries are deleted
// again, so every call misses and the maps never grow. It counts
// allocations, not time, so a loaded machine cannot trip it.
func TestFanMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	sc := new(FanScratch)
	filled := 0
	for _, a := range []*Architecture{
		Ring(8), FullyConnected(16), FullyConnected(64), Star(64), Bus(64), DualBus(12),
		Mesh(64), Torus(36), Hypercube(64), Geometric(32, 0, 1),
	} {
		n := a.NumProcs()
		fc := NewFanCache(a, func(m MediumID) float64 { return 1 + float64(m%5) }, sc)
		for _, c := range []struct {
			srcs  []ProcID
			dst   ProcID
			avoid uint64
		}{
			{[]ProcID{1}, 0, 0},
			{[]ProcID{ProcID(n - 1), 2}, 0, 1},
			{[]ProcID{3, ProcID(n / 2), 1}, ProcID(n - 2), 1<<3 | 1<<uint(n-2)},
			{[]ProcID{0, ProcID(n - 1), 5, 2}, 4, 1<<4 | 1<<5},
		} {
			key := fanKey{avoid: c.avoid, dst: c.dst}
			for _, sp := range c.srcs {
				key.srcs |= 1 << uint(sp)
			}
			first := firstKey{srcs: key.srcs, avoid: c.avoid &^ (1 << uint(c.dst))}
			served := len(serving(fc.FanAvoiding(c.srcs, c.dst, c.avoid)))
			delete(fc.fans, key)
			if served == 0 {
				t.Fatalf("%d processors: %v -> %d served nothing", n, c.srcs, c.dst)
			}
			gate := 2.0
			if _, ok := fc.firsts[first]; ok {
				filled++
				gate = 3
			}
			fill := testing.AllocsPerRun(20, func() {
				fc.FanAvoiding(c.srcs, c.dst, c.avoid)
				delete(fc.fans, key)
				delete(fc.firsts, first)
			})
			read := testing.AllocsPerRun(20, func() {
				fc.FanAvoiding(c.srcs, c.dst, c.avoid)
				delete(fc.fans, key)
			})
			if fill > gate || read > 2 {
				t.Errorf("%d processors, %d media: %v -> %d avoid %#x: a miss allocates %.1f objects filling the first-search memo (want at most %.0f) and %.1f otherwise (want at most 2)",
					n, a.NumMedia(), c.srcs, c.dst, c.avoid, fill, gate, read)
			}
		}
	}
	if filled == 0 {
		t.Fatal("no miss filled the first-search memo")
	}
}
