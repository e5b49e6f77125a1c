// Package cluster splits the scheduling service into a master and N
// workers (DESIGN.md Section 16). The master owns admission and routing:
// every request's content address (the same SHA-256 the cache keys on)
// hashes onto a consistent ring of workers, so one worker owns each
// problem's cache entry and warm-start arena. Workers are plain
// standalone services behind a versioned RPC of JSON documents (rpc.go)
// on a framed TCP transport. The HTTP edge is byte-identical to the
// standalone service: service.NewHandler serves either engine.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// defaultVnodes is the virtual-node count per member. 128 points per
// member keeps the per-member key share within a few percent of uniform
// for small clusters (the ring property tests pin ±20%).
const defaultVnodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle
// and the member that owns it.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over worker IDs. Adding or removing a
// member remaps only the keys adjacent to that member's virtual nodes
// (about 1/N of the keyspace), so a worker joining or leaving invalidates
// one shard's locality, not the whole cluster's.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	points  []ringPoint // sorted by hash
	members map[string]struct{}
}

// NewRing builds an empty ring with vnodes virtual nodes per member
// (<= 0 picks the default).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

// ringHash positions a string on the circle: the first 8 bytes of its
// SHA-256. Cryptographic mixing matters here — member IDs and content
// keys share the circle, and a weak hash would let similar IDs clump.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a member's virtual nodes. Adding a present member is a
// no-op, so registry revivals are idempotent.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:   ringHash(member + "#" + strconv.Itoa(v)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member's virtual nodes. Removing an absent member is
// a no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner returns the member owning key: the first virtual node at or
// clockwise of the key's position. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	owners := r.Successors(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Successors returns up to n distinct members in ring order starting at
// the key's owner. The tail of the list is the reroute order: when the
// owner is unreachable the master walks to the next distinct member, the
// same member that would own the key if the dead one were removed — so
// failover routing and post-removal routing agree, and the handoff
// target of a drain is where reroutes already landed.
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.member]; ok {
			continue
		}
		seen[p.member] = struct{}{}
		out = append(out, p.member)
	}
	return out
}

// Members returns the current members, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}
