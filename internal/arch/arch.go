// Package arch implements the architecture model of the paper (Section 3.3):
// a graph whose vertices are processors and whose edges are communication
// media. A processor owns one computation unit, local memory, and one
// communication unit per medium it is bound to. Media generalise the paper's
// point-to-point links to multi-point buses: a medium connects two or more
// processors and serialises the communications assigned to it.
package arch

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// ProcID indexes a processor inside its Architecture, densely from 0.
type ProcID int

// MediumID indexes a communication medium, densely from 0.
type MediumID int

// Processor is a computing site of the target architecture.
type Processor struct {
	ID   ProcID
	Name string
}

// Medium is a communication medium binding two or more processors. A medium
// with exactly two endpoints is the paper's point-to-point link; more
// endpoints model a multi-point bus. Communications scheduled on one medium
// are totally ordered (paper Section 4.2).
type Medium struct {
	ID        MediumID
	Name      string
	Endpoints []ProcID
}

// IsPointToPoint reports whether the medium binds exactly two processors.
func (m Medium) IsPointToPoint() bool { return len(m.Endpoints) == 2 }

// Connects reports whether p is bound to the medium.
func (m Medium) Connects(p ProcID) bool {
	for _, e := range m.Endpoints {
		if e == p {
			return true
		}
	}
	return false
}

// Errors reported by architecture construction and validation.
var (
	ErrDuplicateProc   = errors.New("arch: duplicate processor name")
	ErrDuplicateMedium = errors.New("arch: duplicate medium name")
	ErrUnknownProc     = errors.New("arch: unknown processor")
	ErrBadEndpoints    = errors.New("arch: medium needs at least two distinct endpoints")
	ErrNoProcessors    = errors.New("arch: architecture has no processors")
	ErrDisconnected    = errors.New("arch: architecture is not connected")
	ErrNoRoute         = errors.New("arch: no route between processors")
)

// Architecture is a mutable architecture graph. The zero value is empty and
// ready to use.
type Architecture struct {
	procs  []Processor
	media  []Medium
	byName map[string]ProcID
	// mediaOf[p] lists the media processor p is bound to.
	mediaOf [][]MediumID
	// rev counts topology mutations (processors or media added). Caches of
	// derived routing data key on it: an unchanged revision guarantees an
	// unchanged graph, so cached routes stay exact.
	rev uint64
	// fanNet, cuts and direct memoise the disjoint-fan flow skeleton
	// (disjoint.go), the PairCutMatrix (jointcut.go) and the DirectMedia
	// table of the revision they carry. Each is built on first use after
	// a mutation and never modified once stored; concurrent readers of an
	// unchanging architecture may race to build one, and every racer
	// builds the same value.
	fanNet atomic.Pointer[fanSkeleton]
	cuts   atomic.Pointer[pairCuts]
	direct atomic.Pointer[directMedia]
}

// Revision returns the topology revision: a counter bumped by every
// AddProcessor/AddMedium. Route caches (FanCache) and the architecture's
// own memos use it to detect that their precomputed data went stale.
func (a *Architecture) Revision() uint64 { return a.rev }

// New returns an empty architecture.
func New() *Architecture {
	return &Architecture{byName: make(map[string]ProcID)}
}

// AddProcessor adds a processor with a unique name and returns its id.
func (a *Architecture) AddProcessor(name string) (ProcID, error) {
	if name == "" {
		return -1, fmt.Errorf("%w: empty name", ErrDuplicateProc)
	}
	if a.byName == nil {
		a.byName = make(map[string]ProcID)
	}
	if _, ok := a.byName[name]; ok {
		return -1, fmt.Errorf("%w: %q", ErrDuplicateProc, name)
	}
	id := ProcID(len(a.procs))
	a.procs = append(a.procs, Processor{ID: id, Name: name})
	a.byName[name] = id
	a.mediaOf = append(a.mediaOf, nil)
	a.rev++
	return id, nil
}

// MustAddProcessor is AddProcessor that panics on error.
func (a *Architecture) MustAddProcessor(name string) ProcID {
	id, err := a.AddProcessor(name)
	if err != nil {
		panic(err)
	}
	return id
}

// AddMedium adds a communication medium binding the given processors and
// returns its id. Endpoint order is normalised; duplicates are rejected.
func (a *Architecture) AddMedium(name string, endpoints ...ProcID) (MediumID, error) {
	if name == "" {
		return -1, fmt.Errorf("%w: empty name", ErrDuplicateMedium)
	}
	for _, m := range a.media {
		if m.Name == name {
			return -1, fmt.Errorf("%w: %q", ErrDuplicateMedium, name)
		}
	}
	if len(endpoints) < 2 {
		return -1, fmt.Errorf("%w: %q has %d", ErrBadEndpoints, name, len(endpoints))
	}
	eps := append([]ProcID(nil), endpoints...)
	sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
	for i, p := range eps {
		if p < 0 || int(p) >= len(a.procs) {
			return -1, fmt.Errorf("%w: id %d on medium %q", ErrUnknownProc, p, name)
		}
		if i > 0 && eps[i-1] == p {
			return -1, fmt.Errorf("%w: duplicate endpoint %q on %q", ErrBadEndpoints, a.procs[p].Name, name)
		}
	}
	id := MediumID(len(a.media))
	a.media = append(a.media, Medium{ID: id, Name: name, Endpoints: eps})
	for _, p := range eps {
		a.mediaOf[p] = append(a.mediaOf[p], id)
	}
	a.rev++
	return id, nil
}

// MustAddMedium is AddMedium that panics on error.
func (a *Architecture) MustAddMedium(name string, endpoints ...ProcID) MediumID {
	id, err := a.AddMedium(name, endpoints...)
	if err != nil {
		panic(err)
	}
	return id
}

// Link adds a point-to-point link between two processors given by name.
func (a *Architecture) Link(name, p, q string) (MediumID, error) {
	pi, ok := a.byName[p]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrUnknownProc, p)
	}
	qi, ok := a.byName[q]
	if !ok {
		return -1, fmt.Errorf("%w: %q", ErrUnknownProc, q)
	}
	return a.AddMedium(name, pi, qi)
}

// NumProcs returns the number of processors.
func (a *Architecture) NumProcs() int { return len(a.procs) }

// NumMedia returns the number of communication media.
func (a *Architecture) NumMedia() int { return len(a.media) }

// Proc returns the processor with the given id.
func (a *Architecture) Proc(id ProcID) Processor { return a.procs[id] }

// Medium returns a copy of the medium with the given id.
func (a *Architecture) Medium(id MediumID) Medium {
	m := a.media[id]
	m.Endpoints = append([]ProcID(nil), m.Endpoints...)
	return m
}

// ProcByName returns the processor named name.
func (a *Architecture) ProcByName(name string) (Processor, bool) {
	id, ok := a.byName[name]
	if !ok {
		return Processor{}, false
	}
	return a.procs[id], true
}

// MediumByName returns the medium named name.
func (a *Architecture) MediumByName(name string) (Medium, bool) {
	for _, m := range a.media {
		if m.Name == name {
			return a.Medium(m.ID), true
		}
	}
	return Medium{}, false
}

// Procs returns all processors in id order.
func (a *Architecture) Procs() []Processor {
	out := make([]Processor, len(a.procs))
	copy(out, a.procs)
	return out
}

// Media returns copies of all media in id order.
func (a *Architecture) Media() []Medium {
	out := make([]Medium, len(a.media))
	for i := range a.media {
		out[i] = a.Medium(MediumID(i))
	}
	return out
}

// MediaOf returns the media processor p is bound to, in id order.
func (a *Architecture) MediaOf(p ProcID) []MediumID {
	out := make([]MediumID, len(a.mediaOf[p]))
	copy(out, a.mediaOf[p])
	return out
}

// MediaBetween returns the media that directly connect p and q, in id order.
func (a *Architecture) MediaBetween(p, q ProcID) []MediumID {
	if p == q {
		return nil
	}
	var out []MediumID
	for _, mid := range a.mediaOf[p] {
		if a.media[mid].Connects(q) {
			out = append(out, mid)
		}
	}
	return out
}

// directMedia is the DirectMedia table of one architecture revision.
type directMedia struct {
	rev   uint64
	table [][]MediumID
}

// DirectMedia returns MediaBetween(p, q) for every ordered processor pair,
// at index p*NumProcs()+q. The table depends only on the topology, so it
// is built once per Revision and every caller shares it: it is read-only.
// A call after AddMedium or AddProcessor builds the new topology's table.
func (a *Architecture) DirectMedia() [][]MediumID {
	if d := a.direct.Load(); d != nil && d.rev == a.rev {
		return d.table
	}
	n := len(a.procs)
	d := &directMedia{rev: a.rev, table: make([][]MediumID, n*n)}
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			d.table[p*n+q] = a.MediaBetween(ProcID(p), ProcID(q))
		}
	}
	a.direct.Store(d)
	return d.table
}

// Validate checks that the architecture has at least one processor and that
// every processor can reach every other through the media.
func (a *Architecture) Validate() error {
	if len(a.procs) == 0 {
		return ErrNoProcessors
	}
	if len(a.procs) == 1 {
		return nil
	}
	// Processor 0 is the smallest id, so its component is labelled 0.
	for id, c := range a.Components(func(MediumID) bool { return true }, nil) {
		if c != 0 {
			return fmt.Errorf("%w: %q unreachable from %q",
				ErrDisconnected, a.procs[id].Name, a.procs[0].Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the architecture.
func (a *Architecture) Clone() *Architecture {
	c := New()
	c.procs = append([]Processor(nil), a.procs...)
	for name, id := range a.byName {
		c.byName[name] = id
	}
	c.media = make([]Medium, len(a.media))
	for i, m := range a.media {
		m.Endpoints = append([]ProcID(nil), m.Endpoints...)
		c.media[i] = m
	}
	c.mediaOf = make([][]MediumID, len(a.mediaOf))
	for i, l := range a.mediaOf {
		c.mediaOf[i] = append([]MediumID(nil), l...)
	}
	c.rev = a.rev
	return c
}
