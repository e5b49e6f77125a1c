package arch

// This file analyses the architecture for joint (processor + medium)
// crash cuts: the topological facts behind the relay-aware replica
// placement of DESIGN.md Section 12. A replica set masks a joint crash
// only if some member is alive AND still connected to the rest of the
// system — a surviving replica behind a cut can neither feed successors
// nor deliver outputs. On sparse topologies one processor crash plus one
// medium crash can isolate a processor (a ring neighbour loses its peer
// link when the peer dies, so crashing its second link strands it),
// which makes certain replica-processor pairs jointly fatal even though
// each member alone satisfies the Npf budget.

// PairCutVulnerable reports whether some single (processor, medium) crash
// leaves no member of {x, y} both alive and connected to a processor
// outside the pair. Such a pair is a joint single point of failure for
// any task replicated exactly on it: one in-budget (Npf >= 1, Nmf >= 1)
// joint crash kills one copy and strands the other. On a fully connected
// layout or a dual bus no pair is vulnerable; on a ring exactly the
// adjacent pairs are (crash one member and the other member's far link).
// The placement heuristic uses this to prefer crash-separated replica
// sets under a combined budget.
func (a *Architecture) PairCutVulnerable(x, y ProcID) bool {
	return a.pairCutVulnerable(x, y, newCutScratch(len(a.procs)))
}

// cutScratch is the breadth-first search state one PairCutMatrix reuses
// across all its pair checks, so the searches allocate nothing.
type cutScratch struct {
	mark  []int // mark[v] == gen: v was reached by the current search
	gen   int
	queue []ProcID
}

func newCutScratch(nProcs int) *cutScratch {
	return &cutScratch{mark: make([]int, nProcs), queue: make([]ProcID, 0, nProcs)}
}

func (a *Architecture) pairCutVulnerable(x, y ProcID, sc *cutScratch) bool {
	if x == y {
		return true
	}
	nP, nM := len(a.procs), len(a.media)
	if nP <= 2 {
		return true // nobody outside the pair to stay connected to
	}
	for p := 0; p < nP; p++ {
		for m := 0; m < nM; m++ {
			if !a.pairSurvives(x, y, ProcID(p), MediumID(m), sc) {
				return true
			}
		}
	}
	return false
}

// pairSurvives reports whether, with processor p and medium m crashed,
// some member of {x, y} is alive and reaches a processor outside the
// pair over surviving media and processors.
func (a *Architecture) pairSurvives(x, y, p ProcID, m MediumID, sc *cutScratch) bool {
	for _, z := range [2]ProcID{x, y} {
		if z == p {
			continue
		}
		if a.reachesOutside(z, x, y, p, m, sc) {
			return true
		}
	}
	return false
}

// reachesOutside runs a breadth-first search from z over the surviving
// topology (processor p and medium m crashed), following each reached
// processor's own media, and reports whether any processor outside
// {x, y, p} is reachable.
func (a *Architecture) reachesOutside(z, x, y, p ProcID, m MediumID, sc *cutScratch) bool {
	sc.gen++
	sc.mark[z] = sc.gen
	// Every processor enters the queue at most once, so the preallocated
	// capacity never grows.
	queue := append(sc.queue[:0], z)
	for head := 0; head < len(queue); head++ {
		for _, mi := range a.mediaOf[queue[head]] {
			if mi == m {
				continue
			}
			for _, v := range a.media[mi].Endpoints {
				if v == p || sc.mark[v] == sc.gen {
					continue
				}
				if v != x && v != y {
					return true
				}
				sc.mark[v] = sc.gen
				queue = append(queue, v)
			}
		}
	}
	return false
}

// pairCuts is the PairCutMatrix of one architecture revision.
type pairCuts struct {
	rev uint64
	m   [][]bool
}

// PairCutMatrix returns the PairCutVulnerable verdict for every processor
// pair, indexed [x][y]. The diagonal is true (a pair needs two distinct
// processors). The matrix depends only on the topology, so it is built
// once per Revision and every caller shares it: it is read-only. A call
// after AddMedium or AddProcessor builds the new topology's matrix.
func (a *Architecture) PairCutMatrix() [][]bool {
	if c := a.cuts.Load(); c != nil && c.rev == a.rev {
		return c.m
	}
	c := &pairCuts{rev: a.rev, m: a.pairCutMatrix()}
	a.cuts.Store(c)
	return c.m
}

// pairCutMatrix builds the matrix: the cells and their row headers, and
// one search scratch shared by every pair check.
func (a *Architecture) pairCutMatrix() [][]bool {
	nP := len(a.procs)
	cells := make([]bool, nP*nP)
	out := make([][]bool, nP)
	for x := range out {
		out[x] = cells[x*nP : (x+1)*nP]
		out[x][x] = true
	}
	sc := newCutScratch(nP)
	for x := 0; x < nP; x++ {
		for y := x + 1; y < nP; y++ {
			v := a.pairCutVulnerable(ProcID(x), ProcID(y), sc)
			out[x][y], out[y][x] = v, v
		}
	}
	return out
}
