package arch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestPairCutMatrixAllocs pins the matrix's allocations to its output (the
// cells and the row headers) and one search scratch (marks and queue),
// independent of how many searches it runs.
func TestPairCutMatrixAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, a := range []*Architecture{Torus(9), Mesh(9), Geometric(8, 0, 1), Ring(28)} {
		if got := testing.AllocsPerRun(5, func() { a.PairCutMatrix() }); got != 4 {
			t.Errorf("%d processors, %d media: %.0f allocations per matrix, want 4", a.NumProcs(), a.NumMedia(), got)
		}
	}
}
