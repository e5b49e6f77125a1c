package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"ftbar/internal/obsv"
	"ftbar/internal/service"
	"ftbar/internal/wire"
)

// MasterConfig tunes the master.
type MasterConfig struct {
	// Registry tunes worker health probing.
	Registry RegistryConfig
}

const (
	// fanWidth bounds batch/sweep fan-out at the edge.
	fanWidth = 16
	// statsTimeout bounds the per-worker stats RPC when aggregating
	// GET /v1/stats.
	statsTimeout = 2 * time.Second
)

// call is one in-flight content address at the master; later requests
// for the same key wait on ready instead of dispatching a duplicate RPC.
type call struct {
	ready chan struct{}
	reply *wire.ScheduleReply
	err   error
}

// Master is the cluster's admission and routing layer. It implements
// service.Scheduler, so service.NewHandler(master) serves the exact
// HTTP surface of a standalone service; behind it every request routes
// by content address over the consistent ring to the worker owning that
// key's cache shard. Transport failures reroute to the ring successor
// (and mark the worker down); application errors are the worker's
// verdict and return to the caller typed.
type Master struct {
	registry *Registry
	metrics  *obsv.Registry

	mu       sync.Mutex
	inflight map[string]*call

	requests     *obsv.Counter
	coalesced    *obsv.Counter
	reroutes     *obsv.Counter
	workerDown   *obsv.Counter
	workerUp     *obsv.Counter
	drains       *obsv.Counter
	noWorker     *obsv.Counter
	versionSkew  *obsv.Counter
	routeErrors  *obsv.Counter
	lat          *obsv.Histogram
	handoffMoved *obsv.Counter
}

// NewMaster builds a master with no workers; register them with
// AddWorker. Call Start to begin health probing and Close to stop.
func NewMaster(cfg MasterConfig) *Master {
	reg := obsv.NewRegistry()
	m := &Master{
		registry: NewRegistry(cfg.Registry),
		metrics:  reg,
		inflight: make(map[string]*call),

		requests:     reg.NewCounter("ftbar_cluster_requests_total", "Requests admitted at the master."),
		coalesced:    reg.NewCounter("ftbar_cluster_coalesced_total", "Requests answered by master-level in-flight coalescing (no RPC dispatched)."),
		reroutes:     reg.NewCounter("ftbar_cluster_reroutes_total", "Requests rerouted to a ring successor after a worker failure or drain."),
		workerDown:   reg.NewCounter("ftbar_cluster_worker_down_total", "Worker Up->Down transitions observed."),
		workerUp:     reg.NewCounter("ftbar_cluster_worker_up_total", "Worker recoveries observed (Down/Draining -> Up)."),
		drains:       reg.NewCounter("ftbar_cluster_drains_total", "Graceful drains completed."),
		noWorker:     reg.NewCounter("ftbar_cluster_no_worker_total", "Requests failed with WORKER_UNAVAILABLE (every candidate exhausted)."),
		versionSkew:  reg.NewCounter("ftbar_cluster_version_mismatch_total", "Workers skipped for speaking a different wire version."),
		routeErrors:  reg.NewCounter("ftbar_cluster_route_errors_total", "Transport failures observed while routing (each triggers a reroute attempt)."),
		handoffMoved: reg.NewCounter("ftbar_cluster_handoff_entries_total", "Cache entries moved to a ring successor by drain handoffs."),
		lat: reg.NewHistogramOpts("ftbar_cluster_request_duration_seconds",
			"End-to-end master latency of successful requests, routing included.",
			obsv.HistogramOpts{Lowest: 1e-6}),
	}
	m.registry.OnDown = func(string) { m.workerDown.Inc() }
	m.registry.OnUp = func(string) { m.workerUp.Inc() }
	reg.NewGaugeFunc("ftbar_cluster_workers_up", "Workers currently routable.",
		func() float64 { return float64(m.registry.UpCount()) })
	reg.NewGaugeFunc("ftbar_cluster_workers_known", "Workers registered, any state.",
		func() float64 { return float64(len(m.registry.Members())) })
	return m
}

// AddWorker registers a worker's RPC endpoint and puts it in rotation.
func (m *Master) AddWorker(id, addr string) { m.registry.Add(id, addr) }

// Registry exposes worker membership (tests and the drain path).
func (m *Master) Registry() *Registry { return m.registry }

// Start begins health probing.
func (m *Master) Start() { m.registry.Start() }

// Close stops probing and severs worker connections.
func (m *Master) Close() { m.registry.Stop() }

// Metrics returns the master's registry (ftbar_cluster_*), served at
// /metrics on the master's HTTP edge.
func (m *Master) Metrics() *obsv.Registry { return m.metrics }

// FanWidth bounds batch/sweep fan-out at the edge.
func (m *Master) FanWidth() int { return fanWidth }

// Schedule routes one request to its shard owner and waits, queueing at
// the worker while its backlog is full (the batch/sweep path).
func (m *Master) Schedule(ctx context.Context, req *wire.ScheduleRequest) (*wire.ScheduleReply, error) {
	return m.do(ctx, req, true)
}

// TrySchedule is Schedule with backpressure: a full worker backlog
// returns ErrOverloaded (the HTTP admission path, mapped to 429).
func (m *Master) TrySchedule(ctx context.Context, req *wire.ScheduleRequest) (*wire.ScheduleReply, error) {
	return m.do(ctx, req, false)
}

func (m *Master) do(ctx context.Context, req *wire.ScheduleRequest, wait bool) (*wire.ScheduleReply, error) {
	key, err := req.CacheKey()
	if err != nil {
		return nil, err
	}
	m.requests.Inc()
	t0 := time.Now()

	// Master-level coalescing: concurrent requests for one content
	// address dispatch one RPC; the rest wait here. The worker's own
	// cache would also dedupe them, but coalescing at the master keeps
	// duplicate payloads off the network entirely and — during a reroute
	// — guarantees the scheduler runs once even while ownership moves.
	m.mu.Lock()
	if c, ok := m.inflight[key]; ok {
		m.mu.Unlock()
		m.coalesced.Inc()
		select {
		case <-c.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if c.err != nil {
			return nil, c.err
		}
		m.lat.Observe(time.Since(t0).Seconds())
		return &wire.ScheduleReply{ScheduleResponse: c.reply.ScheduleResponse, Cached: true}, nil
	}
	c := &call{ready: make(chan struct{})}
	m.inflight[key] = c
	m.mu.Unlock()

	reply, err := m.route(ctx, key, req, wait)
	c.reply, c.err = reply, err
	m.mu.Lock()
	delete(m.inflight, key)
	m.mu.Unlock()
	close(c.ready)
	if err != nil {
		return nil, err
	}
	m.lat.Observe(time.Since(t0).Seconds())
	return reply, nil
}

// route walks the key's ring successor list until a worker answers. The
// list is the failover order AND the post-removal ownership order, so a
// rerouted key lands exactly where the ring says it lives once the dead
// worker is gone — the cache entry it creates there stays useful.
func (m *Master) route(ctx context.Context, key string, req *wire.ScheduleRequest, wait bool) (*wire.ScheduleReply, error) {
	payload, err := json.Marshal(scheduleJob{Version: wire.Version, Wait: wait, Request: *req})
	if err != nil {
		return nil, wire.Wrap(wire.CodeBadRequest, err)
	}

	candidates := m.registry.Ring().Successors(key, m.registry.Ring().Len())
	first := true
	for _, id := range candidates {
		if !first {
			m.reroutes.Inc()
		}
		first = false
		client := m.registry.Client(id)
		if client == nil {
			continue
		}
		raw, err := client.Call(ctx, methodSchedule, payload)
		if err == nil {
			return decodeScheduleReply(raw)
		}
		var we *wire.Error
		if errors.As(err, &we) {
			// The worker answered: its verdict stands, except states that
			// mean "not me" — draining and version skew walk to the next
			// candidate.
			switch we.Code {
			case wire.CodeDraining:
				m.registry.MarkDraining(id)
				continue
			case wire.CodeVersionMismatch:
				m.versionSkew.Inc()
				continue
			default:
				return nil, we
			}
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Transport failure: the worker is unreachable. Mark it down now
		// (the prober would need downAfter periods to notice) and walk to
		// the ring successor.
		m.routeErrors.Inc()
		m.registry.MarkDown(id)
	}
	m.noWorker.Inc()
	return nil, wire.ErrWorkerUnavailable
}

// Drain gracefully removes a worker: it stops receiving new work,
// finishes its in-flight tail, and (with handoff) its cache shard and
// warm-start records install on the ring successor so the moved keys
// stay warm. Returns the number of cache entries moved.
func (m *Master) Drain(ctx context.Context, id string, withHandoff bool) (int, error) {
	client := m.registry.Client(id)
	if client == nil {
		return 0, wire.ErrWorkerUnavailable.WithField("worker", id)
	}
	// Off the ring first: new keys route to successors immediately, and
	// in-flight coalescing holds duplicates while the tail finishes.
	m.registry.MarkDraining(id)
	req, err := json.Marshal(handoff{Handoff: withHandoff})
	if err != nil {
		return 0, wire.Wrap(wire.CodeInternal, err)
	}
	raw, err := client.Call(ctx, methodDrain, req)
	if err != nil {
		return 0, err
	}
	var reply handoff
	if err := decodeReply(raw, &reply); err != nil {
		return 0, err
	}
	moved := 0
	if withHandoff && len(reply.Snapshot) > 0 {
		// The drained worker's vnode intervals collapse onto their ring
		// successors; installing at the successor of the worker's own ID
		// position puts the shard where most of its keys now route. The
		// install is additive — entries the target does not own are
		// harmless cache surplus, evicted LRU-first.
		target := m.registry.Ring().Owner(id)
		if target != "" && target != id {
			if tc := m.registry.Client(target); tc != nil {
				iraw, err := tc.Call(ctx, methodInstall, reply.Snapshot)
				if err != nil {
					return 0, err
				}
				var installed handoff
				if err := decodeReply(iraw, &installed); err != nil {
					return 0, err
				}
				moved = installed.Entries
				m.handoffMoved.Add(uint64(moved))
			}
		}
	}
	m.registry.Remove(id)
	m.drains.Inc()
	return moved, nil
}

// Stats aggregates the cluster view for GET /v1/stats: per-worker
// counters summed over a best-effort stats RPC to every known worker
// (unreachable workers are skipped), latency percentiles from the
// master's own edge histogram, Workers = routable worker count.
func (m *Master) Stats() service.Stats {
	out := service.Stats{Workers: m.registry.UpCount()}
	for _, id := range m.registry.Members() {
		client := m.registry.Client(id)
		if client == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), statsTimeout)
		raw, err := client.Call(ctx, methodStats, nil)
		cancel()
		if err != nil {
			continue
		}
		var ws service.Stats
		if err := json.Unmarshal(raw, &ws); err != nil {
			continue
		}
		out.QueueDepth += ws.QueueDepth
		out.QueueCapacity += ws.QueueCapacity
		out.CacheEntries += ws.CacheEntries
		out.CacheCapacity += ws.CacheCapacity
		out.Requests += ws.Requests
		out.CacheHits += ws.CacheHits
		out.CacheMisses += ws.CacheMisses
		out.SchedulerRuns += ws.SchedulerRuns
		out.Rejected += ws.Rejected
		out.Errors += ws.Errors
	}
	if out.Requests > 0 {
		out.HitRate = float64(out.CacheHits) / float64(out.Requests)
	}
	if m.lat.Count() > 0 {
		out.LatencyP50Ms = m.lat.Quantile(0.50) * 1e3
		out.LatencyP90Ms = m.lat.Quantile(0.90) * 1e3
		out.LatencyP99Ms = m.lat.Quantile(0.99) * 1e3
	}
	return out
}
