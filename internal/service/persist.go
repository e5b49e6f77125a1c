package service

import (
	"encoding/json"
	"fmt"
	"os"

	"ftbar/internal/core"
)

// This file implements cache persistence across service restarts
// (ROADMAP open item): the content-addressed LRU snapshots to a JSON file
// on shutdown and reloads on start, so a restarted ftserved serves its
// warm set without re-running the scheduler.

// snapshotVersion guards the on-disk format AND the planner behaviour
// the cached schedules were produced by; bump on incompatible changes to
// either, so a restart never serves schedules an older planner built.
// Version 1 carried (key, response) pairs in LRU order; version 2 keeps
// the format but invalidates schedules from before the joint
// processor+link planner (DESIGN.md Section 12) — Nmf > 0 problems now
// schedule with relay-aware fans and crash-separated placement, and a
// pre-upgrade cache would silently miss that guarantee. Version 3 adds
// the arena pool's warm-start decision logs (Records); the entry format
// is unchanged, so version 2 files still load (entries only — the arenas
// just start cold). Loading an UNKNOWN version stays an error: records
// are checked on import (one replay must rebuild a valid schedule of the
// record's own problem), but responses are served verbatim.
const snapshotVersion = 3

// oldestLoadableVersion is the earliest snapshot version LoadCacheFile
// accepts. Versions 2 and 3 share the entry format and the Section 12
// planner; a version 2 file simply carries no warm-start records.
const oldestLoadableVersion = 2

// cacheSnapshot is the on-disk shape of a cache snapshot.
type cacheSnapshot struct {
	Version int                  `json:"version"`
	Entries []cacheSnapshotEntry `json:"entries"`
	// Records are the arena pool's warm-start decision logs (since
	// version 3); they let a restarted service replay, not re-search,
	// repeat problems. Absent in older snapshots.
	Records []*core.RunRecord `json:"records,omitempty"`
}

// cacheSnapshotEntry is one persisted (key, response) pair.
type cacheSnapshotEntry struct {
	Key      string            `json:"key"`
	Response *ScheduleResponse `json:"response"`
}

// snapshot collects the retained entries, least recently used first, so
// restore can re-insert them in order and end up with the same LRU
// ranking.
func (c *cache) snapshot() []cacheSnapshotEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheSnapshotEntry, 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		out = append(out, cacheSnapshotEntry{Key: e.key, Response: e.resp})
	}
	return out
}

// restore inserts persisted entries as already-resolved cache hits,
// least recently used first. Keys already present (in flight or
// resolved) and entries beyond the capacity are skipped; with a
// non-positive capacity the cache retains nothing, matching complete.
func (c *cache) restore(entries []cacheSnapshotEntry) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 {
		return 0
	}
	n := 0
	for _, se := range entries {
		if se.Key == "" || se.Response == nil {
			continue
		}
		if _, ok := c.m[se.Key]; ok {
			continue
		}
		e := &entry{key: se.Key, ready: make(chan struct{}), resp: se.Response}
		close(e.ready)
		e.elem = c.lru.PushFront(e)
		c.m[se.Key] = e
		n++
		for c.lru.Len() > c.max {
			oldest := c.lru.Back()
			evicted := c.lru.Remove(oldest).(*entry)
			delete(c.m, evicted.key)
		}
	}
	return n
}

// SnapshotBytes serialises the cache contents and warm-start records as
// one snapshot document. It is the in-memory half of SaveCacheFile, and
// what a draining cluster worker hands to its ring successor.
func (s *Service) SnapshotBytes() ([]byte, error) {
	data, _, err := s.snapshotBytes()
	return data, err
}

func (s *Service) snapshotBytes() ([]byte, int, error) {
	snap := cacheSnapshot{
		Version: snapshotVersion,
		Entries: s.cache.snapshot(),
		Records: s.arenas.export(),
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return nil, 0, fmt.Errorf("service: encode cache snapshot: %w", err)
	}
	return data, len(snap.Entries), nil
}

// RestoreBytes loads a snapshot produced by SnapshotBytes into the cache
// and arena pool, returning the number of cache entries restored. Keys
// already present locally win (the receiver's entries are at least as
// fresh), and entries beyond capacity are dropped LRU-first.
func (s *Service) RestoreBytes(data []byte) (int, error) {
	var snap cacheSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("service: decode cache snapshot: %w", err)
	}
	if snap.Version < oldestLoadableVersion || snap.Version > snapshotVersion {
		return 0, fmt.Errorf("service: cache snapshot version %d, want %d..%d",
			snap.Version, oldestLoadableVersion, snapshotVersion)
	}
	s.arenas.restore(snap.Records)
	return s.cache.restore(snap.Entries), nil
}

// SaveCacheFile writes the current cache contents to path (atomically,
// via a temp file in the same directory). It returns the number of
// entries written.
func (s *Service) SaveCacheFile(path string) (int, error) {
	data, n, err := s.snapshotBytes()
	if err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return n, nil
}

// LoadCacheFile reloads a snapshot written by SaveCacheFile into the
// cache and returns the number of entries restored. A missing file is
// not an error (a cold start); a corrupt or incompatible file is.
func (s *Service) LoadCacheFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	return s.RestoreBytes(data)
}
