package cluster

import (
	"context"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"ftbar/internal/wire"
)

// MemberState is a worker's health as the master sees it.
type MemberState int

const (
	// StateUp routes: the worker answered its last probe (or call).
	StateUp MemberState = iota
	// StateDown skips: downAfter consecutive failures; the member leaves
	// the ring and its keys reroute to ring successors.
	StateDown
	// StateDraining skips for new work: the worker is finishing its
	// in-flight tail before handing off its shard.
	StateDraining
)

// String names the state for logs and health endpoints.
func (s MemberState) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	default:
		return "unknown"
	}
}

// RegistryConfig tunes health probing.
type RegistryConfig struct {
	// ProbeEvery is the health-probe period; 0 picks 500ms. One probe RPC
	// may take at most ProbeEvery, and down members are probed on an
	// exponentially growing period capped at 16×ProbeEvery, so a dead
	// worker costs near-zero steady-state probing but a restarted one is
	// noticed within the cap.
	ProbeEvery time.Duration
}

// downAfter is the consecutive probe failures that mark a member down.
// A direct transport failure during routing marks the member down
// immediately — the master has better evidence than the prober.
const downAfter = 2

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 500 * time.Millisecond
	}
	return c
}

// member is one registered worker.
type member struct {
	id     string
	client *Client

	state     MemberState
	fails     int       // consecutive probe/call failures
	nextProbe time.Time // backoff gate for down members
}

// Registry tracks worker membership and health, and keeps the routing
// ring in sync: only Up members are on the ring. State transitions fan
// out to the OnDown/OnUp hooks (the master counts them as
// ftbar_cluster_worker_down_total / _up_total).
type Registry struct {
	cfg  RegistryConfig
	ring *Ring

	mu      sync.Mutex
	members map[string]*member

	// OnDown and OnUp observe state transitions (called outside the
	// lock). Set before Start.
	OnDown func(id string)
	OnUp   func(id string)

	started bool
	stopped bool
	stop    chan struct{}
	done    chan struct{}
}

// NewRegistry builds a registry over a fresh ring.
func NewRegistry(cfg RegistryConfig) *Registry {
	return &Registry{
		cfg:     cfg.withDefaults(),
		ring:    NewRing(0),
		members: make(map[string]*member),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Ring exposes the routing ring (Up members only).
func (g *Registry) Ring() *Ring { return g.ring }

// Add registers a worker at addr and puts it on the ring as Up.
func (g *Registry) Add(id, addr string) {
	g.mu.Lock()
	if _, ok := g.members[id]; ok {
		g.mu.Unlock()
		return
	}
	g.members[id] = &member{id: id, client: NewClient(addr)}
	g.mu.Unlock()
	g.ring.Add(id)
}

// Client returns the RPC client for a member (nil if unknown).
func (g *Registry) Client(id string) *Client {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m, ok := g.members[id]; ok {
		return m.client
	}
	return nil
}

// State returns a member's state (StateDown for unknown members).
func (g *Registry) State(id string) MemberState {
	g.mu.Lock()
	defer g.mu.Unlock()
	if m, ok := g.members[id]; ok {
		return m.state
	}
	return StateDown
}

// UpCount returns the number of routable members.
func (g *Registry) UpCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, m := range g.members {
		if m.state == StateUp {
			n++
		}
	}
	return n
}

// Members returns all member IDs, Up or not, sorted.
func (g *Registry) Members() []string {
	g.mu.Lock()
	ids := make([]string, 0, len(g.members))
	for id := range g.members {
		ids = append(ids, id)
	}
	g.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// MarkDown forces a member off the ring (a routing transport failure:
// direct evidence, no probe quorum needed).
func (g *Registry) MarkDown(id string) {
	g.transition(id, StateDown)
}

// MarkDraining takes a member off the routing path without declaring it
// dead; its RPC endpoint stays reachable for Drain/Install.
func (g *Registry) MarkDraining(id string) {
	g.transition(id, StateDraining)
}

// Remove unregisters a member entirely (after a completed drain).
func (g *Registry) Remove(id string) {
	g.mu.Lock()
	m, ok := g.members[id]
	if ok {
		delete(g.members, id)
	}
	g.mu.Unlock()
	if ok {
		g.ring.Remove(id)
		m.client.Close()
	}
}

func (g *Registry) transition(id string, to MemberState) {
	g.mu.Lock()
	m, ok := g.members[id]
	if !ok || m.state == to {
		g.mu.Unlock()
		return
	}
	from := m.state
	m.state = to
	if to == StateDown {
		m.fails = downAfter
		m.nextProbe = time.Now().Add(g.cfg.ProbeEvery)
	} else {
		m.fails = 0
	}
	g.mu.Unlock()
	if to == StateUp {
		g.ring.Add(id)
	} else {
		g.ring.Remove(id)
	}
	if to == StateDown && g.OnDown != nil {
		g.OnDown(id)
	}
	if to == StateUp && from != StateUp && g.OnUp != nil {
		g.OnUp(id)
	}
}

// Start launches the probe loop; Stop ends it. Both are idempotent.
func (g *Registry) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started || g.stopped {
		return
	}
	g.started = true
	go g.probeLoop()
}

// Stop terminates the probe loop (if running) and closes every member
// client.
func (g *Registry) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	started := g.started
	g.mu.Unlock()
	close(g.stop)
	if started {
		<-g.done
	}
	g.mu.Lock()
	for _, m := range g.members {
		m.client.Close()
	}
	g.mu.Unlock()
}

func (g *Registry) probeLoop() {
	defer close(g.done)
	t := time.NewTicker(g.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

func (g *Registry) probeAll() {
	g.mu.Lock()
	due := make([]*member, 0, len(g.members))
	now := time.Now()
	for _, m := range g.members {
		if m.state == StateDown && now.Before(m.nextProbe) {
			continue
		}
		due = append(due, m)
	}
	g.mu.Unlock()
	for _, m := range due {
		g.probe(m)
	}
}

// probe health-checks one member and applies the state machine: Up after
// one success, Down after downAfter consecutive failures, exponential
// probe backoff while Down.
func (g *Registry) probe(m *member) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeEvery)
	defer cancel()
	payload, _ := json.Marshal(probe{Version: wire.Version}) // a lone integer always encodes
	reply, err := m.client.Call(ctx, methodHealth, payload)
	if err == nil {
		var hr probe
		if uerr := json.Unmarshal(reply, &hr); uerr == nil && hr.Status == "draining" {
			g.transition(m.id, StateDraining)
			return
		}
		g.transition(m.id, StateUp)
		g.mu.Lock()
		m.fails = 0
		g.mu.Unlock()
		return
	}
	g.mu.Lock()
	m.fails++
	fails, state := m.fails, m.state
	if state == StateDown {
		// Exponential backoff: 1, 2, 4, 8, 16 probe periods, then 16.
		backoff := g.cfg.ProbeEvery
		for i := downAfter; i < fails && backoff < 16*g.cfg.ProbeEvery; i++ {
			backoff *= 2
		}
		m.nextProbe = time.Now().Add(backoff)
	}
	g.mu.Unlock()
	if state != StateDown && fails >= downAfter {
		g.transition(m.id, StateDown)
	}
}
