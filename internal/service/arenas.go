package service

import (
	"container/list"
	"fmt"
	"sync"

	"ftbar/internal/core"
	"ftbar/internal/spec"
)

// This file is the service half of the cross-run reuse layer (DESIGN.md
// Section 15): a bounded pool of per-shape core.RunArenas the worker
// pool shares. Records and slab donors only ever transfer between
// problems of one shape (operations × processors × media), so arenas are
// keyed by shape; the pool is LRU-evicted so a shape that stops
// appearing releases its records and donors wholesale.

// arenaShapes bounds how many distinct problem shapes keep a live arena.
const arenaShapes = 32

// arenaPool hands out the RunArena for a problem's shape.
type arenaPool struct {
	mu  sync.Mutex
	per int // records per arena
	m   map[string]*list.Element
	lru *list.List // of *shapeArena, most recently used first
}

type shapeArena struct {
	key   string
	arena *core.RunArena
}

// newArenaPool builds a pool keeping per records in each shape's arena.
// per <= 0 disables warm starts: get then returns nil, which degrades
// every arena call to a plain cold run.
func newArenaPool(per int) *arenaPool {
	if per <= 0 {
		return nil
	}
	return &arenaPool{per: per, m: make(map[string]*list.Element), lru: list.New()}
}

func shapeKey(p *spec.Problem) string {
	return fmt.Sprintf("%d/%d/%d", p.Alg.NumOps(), p.Arc.NumProcs(), p.Arc.NumMedia())
}

// get returns the arena for p's shape, creating it (and evicting the
// least recently used shape beyond the bound) on first sight. A nil pool
// returns a nil arena — the cold path.
func (ap *arenaPool) get(p *spec.Problem) *core.RunArena {
	if ap == nil {
		return nil
	}
	ap.mu.Lock()
	defer ap.mu.Unlock()
	key := shapeKey(p)
	if el, ok := ap.m[key]; ok {
		ap.lru.MoveToFront(el)
		return el.Value.(*shapeArena).arena
	}
	sa := &shapeArena{key: key, arena: core.NewRunArena(ap.per)}
	ap.m[key] = ap.lru.PushFront(sa)
	for ap.lru.Len() > arenaShapes {
		oldest := ap.lru.Back()
		evicted := ap.lru.Remove(oldest).(*shapeArena)
		delete(ap.m, evicted.key)
	}
	return sa.arena
}

// shapes returns the number of live per-shape arenas.
func (ap *arenaPool) shapes() int {
	if ap == nil {
		return 0
	}
	ap.mu.Lock()
	defer ap.mu.Unlock()
	return ap.lru.Len()
}

// records returns the total decision records retained across shapes.
func (ap *arenaPool) records() int {
	if ap == nil {
		return 0
	}
	ap.mu.Lock()
	defer ap.mu.Unlock()
	n := 0
	for el := ap.lru.Front(); el != nil; el = el.Next() {
		n += el.Value.(*shapeArena).arena.Len()
	}
	return n
}

// export snapshots every arena's records, most recently used shape
// first, for persistence alongside the schedule cache.
func (ap *arenaPool) export() []*core.RunRecord {
	if ap == nil {
		return nil
	}
	ap.mu.Lock()
	arenas := make([]*core.RunArena, 0, ap.lru.Len())
	for el := ap.lru.Front(); el != nil; el = el.Next() {
		arenas = append(arenas, el.Value.(*shapeArena).arena)
	}
	ap.mu.Unlock()
	var out []*core.RunRecord
	for _, a := range arenas {
		out = append(out, a.ExportRecords()...)
	}
	return out
}

// restore routes previously exported records back to their shapes'
// arenas and returns how many were kept. Records without a problem (a
// hand-edited snapshot) are dropped here; the arena drops every other
// record that does not rebuild a valid schedule of its own problem
// (core.RunArena.ImportRecords).
func (ap *arenaPool) restore(recs []*core.RunRecord) int {
	if ap == nil {
		return 0
	}
	n := 0
	byShape := make(map[string][]*core.RunRecord)
	for _, rec := range recs {
		if rec == nil || rec.Problem == nil || rec.Problem.Alg == nil || rec.Problem.Arc == nil {
			continue
		}
		key := shapeKey(rec.Problem)
		byShape[key] = append(byShape[key], rec)
	}
	for _, group := range byShape {
		n += ap.get(group[0].Problem).ImportRecords(group)
	}
	return n
}
