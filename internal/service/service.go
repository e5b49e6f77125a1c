// Package service is the concurrent scheduling layer on top of the FTBAR
// engine: a long-running service that accepts scheduling problems over
// HTTP/JSON (or in-process), runs them on a bounded worker pool, and
// reuses work between identical requests through a content-addressed LRU
// cache (DESIGN.md Section 9).
//
// The shape of the serving problem is the one the paper implies: a design
// under exploration re-runs the scheduler for every Npf, topology and
// time-table variant, and many of those runs are exact repeats. The
// service turns the repeats into cache hits — a cached response never
// touches the scheduler, which the stats endpoint's scheduler_runs
// counter makes observable — and fans the genuinely new work across
// GOMAXPROCS workers behind a bounded queue that rejects (HTTP 429) when
// the backlog is full.
package service

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftbar/internal/core"
	"ftbar/internal/obsv"
	"ftbar/internal/sched"
	"ftbar/internal/sim"
	"ftbar/internal/wire"
)

// Config sizes the service.
type Config struct {
	// Workers bounds the scheduling worker pool; 0 picks GOMAXPROCS.
	Workers int
	// QueueSize bounds the request queue; values <= 0 pick 4×Workers.
	// When the queue is full, non-blocking submissions are rejected with
	// ErrOverloaded (HTTP 429).
	QueueSize int
	// CacheSize bounds the content-addressed schedule cache, in entries;
	// 0 picks 1024, negative disables caching (in-flight coalescing
	// remains).
	CacheSize int
	// ArenaSize bounds each per-shape run arena (decision records kept
	// for cross-run warm starts), in records; 0 picks 64, negative
	// disables warm starts entirely and every run searches cold.
	ArenaSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4 * c.Workers
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.ArenaSize == 0 {
		c.ArenaSize = 64
	}
	return c
}

// job is one admitted scheduling computation.
type job struct {
	req *ScheduleRequest
	e   *entry
}

// Service is a concurrent scheduling service. Create one with New and
// release its workers with Close.
type Service struct {
	cfg    Config
	cache  *cache
	arenas *arenaPool
	queue  chan *job
	reg    *obsv.Registry

	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	requests      *obsv.Counter
	cacheHits     *obsv.Counter
	cacheMisses   *obsv.Counter
	schedulerRuns *obsv.Counter
	rejected      *obsv.Counter
	errors        *obsv.Counter
	inFlight      atomic.Int64

	// lat is the whole-run request latency distribution, in seconds,
	// recorded on every successful reply (queue wait included).
	lat *obsv.Histogram

	planner plannerMetrics

	// computeHook, when set, runs inside each worker computation before
	// the scheduler; tests use it to hold workers and fill the queue
	// deterministically.
	computeHook func()
	// resultHook, when set, sees every successful run before its schedule
	// is recycled; tests use it to validate what the service serves.
	resultHook func(*core.Result)
}

// plannerMetrics aggregates the core engine's per-run work profile
// (core.PlannerStats) across every scheduler run the service performs.
// The core package stays free of obsv — it returns plain ints and the
// service folds them into counters after each run.
type plannerMetrics struct {
	rounds           *obsv.Counter
	previewsComputed *obsv.Counter
	previewsScreened *obsv.Counter
	sigmaReuses      *obsv.Counter
	warmStarts       *obsv.Counter
	replayedDecns    *obsv.Counter
	replayFallbacks  *obsv.Counter
	sigmaRowsCarried *obsv.Counter
}

func (m *plannerMetrics) add(p core.PlannerStats) {
	m.rounds.Add(uint64(p.Rounds))
	m.previewsComputed.Add(uint64(p.PreviewsComputed))
	m.previewsScreened.Add(uint64(p.PreviewsScreened))
	m.sigmaReuses.Add(uint64(p.SigmaReuses))
	m.warmStarts.Add(uint64(p.WarmStarts))
	m.replayedDecns.Add(uint64(p.ReplayedDecisions))
	m.replayFallbacks.Add(uint64(p.ReplayFallbacks))
	m.sigmaRowsCarried.Add(uint64(p.SigmaRowsCarried))
}

// New starts a service with cfg's worker pool.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := obsv.NewRegistry()
	s := &Service{
		cfg:    cfg,
		cache:  newCache(cfg.CacheSize),
		arenas: newArenaPool(cfg.ArenaSize),
		queue:  make(chan *job, cfg.QueueSize),
		reg:    reg,

		requests:      reg.NewCounter("ftbar_service_requests_total", "Scheduling requests admitted to the cache/queue path."),
		cacheHits:     reg.NewCounter("ftbar_service_cache_hits_total", "Requests answered from the content-addressed cache or by coalescing."),
		cacheMisses:   reg.NewCounter("ftbar_service_cache_misses_total", "Requests that owned a cache entry and went to the queue."),
		schedulerRuns: reg.NewCounter("ftbar_service_scheduler_runs_total", "Core scheduler executions (cache misses that were admitted)."),
		rejected:      reg.NewCounter("ftbar_service_rejected_total", "Requests rejected with backpressure (HTTP 429) on a full queue."),
		errors:        reg.NewCounter("ftbar_service_errors_total", "Scheduler computations that returned an error."),
		lat: reg.NewHistogramOpts("ftbar_service_request_duration_seconds",
			"End-to-end latency of successful requests, queue wait included.",
			obsv.HistogramOpts{Lowest: 1e-6}),
		planner: plannerMetrics{
			rounds:           reg.NewCounter("ftbar_planner_rounds_total", "Scheduling rounds across all runs."),
			previewsComputed: reg.NewCounter("ftbar_planner_previews_computed_total", "Candidate previews computed (σ-cache misses)."),
			previewsScreened: reg.NewCounter("ftbar_planner_previews_screened_total", "Candidate previews skipped by the cache-aware screen."),
			sigmaReuses:      reg.NewCounter("ftbar_planner_sigma_reuses_total", "σ-cache entries revalidated and reused without recompute."),
			warmStarts:       reg.NewCounter("ftbar_planner_warm_starts_total", "Runs warm-started from a recorded decision log (cross-run reuse)."),
			replayedDecns:    reg.NewCounter("ftbar_planner_replayed_decisions_total", "Decisions replayed from records instead of searched."),
			replayFallbacks:  reg.NewCounter("ftbar_planner_replay_fallbacks_total", "Replays abandoned on a stale decision log (run restarted cold)."),
			sigmaRowsCarried: reg.NewCounter("ftbar_planner_sigma_rows_carried_total", "Recorded σ rows carried into warm runs instead of recomputed."),
		},
	}
	reg.NewGaugeFunc("ftbar_service_queue_depth", "Jobs waiting in the bounded queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.NewGaugeFunc("ftbar_service_queue_capacity", "Capacity of the bounded queue.",
		func() float64 { return float64(cfg.QueueSize) })
	reg.NewGaugeFunc("ftbar_service_in_flight", "Requests between admission and reply.",
		func() float64 { return float64(s.inFlight.Load()) })
	reg.NewGaugeFunc("ftbar_service_cache_entries", "Entries in the content-addressed schedule cache.",
		func() float64 { return float64(s.cache.len()) })
	reg.NewGaugeFunc("ftbar_service_arena_shapes", "Problem shapes holding a live run arena.",
		func() float64 { return float64(s.arenas.shapes()) })
	reg.NewGaugeFunc("ftbar_service_arena_records", "Decision records retained across the per-shape run arenas.",
		func() float64 { return float64(s.arenas.records()) })
	reg.NewGaugeFunc("ftbar_service_workers", "Size of the scheduling worker pool.",
		func() float64 { return float64(cfg.Workers) })
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the service's registry, for /metrics exposition and
// periodic reporters. The registry lives as long as the service.
func (s *Service) Metrics() *obsv.Registry { return s.reg }

// Close rejects further submissions, drains the queued jobs and stops the
// workers.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.closeMu.Unlock()
	s.wg.Wait()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		resp, err := s.compute(j.req)
		if err != nil {
			s.errors.Inc()
		}
		s.cache.complete(j.e, resp, err)
	}
}

// compute runs the scheduler and builds the cacheable response.
func (s *Service) compute(req *ScheduleRequest) (*ScheduleResponse, error) {
	if s.computeHook != nil {
		s.computeHook()
	}
	// Classify the failure's side before running: a spec-invalid problem
	// is the caller's fault (INVALID_PROBLEM), whatever the scheduler
	// rejects beyond that failed on a well-formed problem
	// (VALIDATION_FAILED). Wrap keeps the message text — and with it the
	// edge's 422 body — unchanged. Compile validates and memoises the
	// task graph, so the scheduler's own Compile does not re-validate.
	if _, err := req.Problem.Compile(); err != nil {
		return nil, wire.Wrap(wire.CodeInvalidProblem, err)
	}
	s.schedulerRuns.Inc()
	// Run through the shape's arena: a problem equal to a recorded one up
	// to its real-time constraints replays that record (a nil arena — pool
	// disabled — degrades to a plain cold run). The schedule is recycled into the
	// arena's donor pool at the end: the response carries only marshalled
	// copies, never the live schedule.
	arena := s.arenas.get(req.Problem)
	res, err := arena.Run(req.Problem, req.Options.CoreOptions())
	if err != nil {
		return nil, wire.Wrap(wire.CodeValidationFailed, err)
	}
	s.planner.add(res.Planner)
	if s.resultHook != nil {
		s.resultHook(res)
	}
	data, err := res.Schedule.MarshalJSON()
	if err != nil {
		return nil, err
	}
	resp := &ScheduleResponse{
		Length:        res.Schedule.Length(),
		MeetsRtc:      res.MeetsRtc,
		RtcViolation:  res.RtcViolation,
		Steps:         len(res.Steps),
		ExtraReplicas: res.ExtraReplicas,
		Schedule:      data,
	}
	if req.Include.Gantt {
		var b strings.Builder
		if err := res.Schedule.Render(&b, sched.GanttOptions{Bars: true}); err != nil {
			return nil, err
		}
		resp.Gantt = b.String()
	}
	if req.Include.Stats {
		st := res.Schedule.Stats()
		resp.Stats = &st
	}
	if req.Include.Sweep {
		reports, err := sim.SingleFailureSweep(res.Schedule)
		if err != nil {
			return nil, err
		}
		resp.Sweep = reports
	}
	// The response is fully built (Stats is a value copy, Sweep holds only
	// value reports, Schedule is marshalled bytes): hand the schedule's
	// slab back to the arena as a warm-start donor.
	arena.Recycle(res.Schedule)
	return resp, nil
}

// Schedule submits a request and waits for its result, blocking while the
// queue is full (the in-process and batch path). The context bounds the
// wait.
func (s *Service) Schedule(ctx context.Context, req *ScheduleRequest) (*ScheduleReply, error) {
	return s.do(ctx, req, true)
}

// TrySchedule is Schedule with backpressure: a full queue rejects
// immediately with ErrOverloaded instead of waiting (the HTTP admission
// path, mapped to 429).
func (s *Service) TrySchedule(ctx context.Context, req *ScheduleRequest) (*ScheduleReply, error) {
	return s.do(ctx, req, false)
}

func (s *Service) do(ctx context.Context, req *ScheduleRequest, wait bool) (*ScheduleReply, error) {
	key, err := req.CacheKey()
	if err != nil {
		return nil, err
	}
	s.requests.Inc()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	t0 := time.Now()
	for {
		e, owner := s.cache.acquire(key)
		if owner {
			s.cacheMisses.Inc()
			if err := s.submit(ctx, &job{req: req, e: e}, wait); err != nil {
				s.cache.abandon(e, err)
				if err == ErrOverloaded {
					s.rejected.Inc()
				}
				return nil, err
			}
		}
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if !owner && e.abandoned {
			// The owner's admission failed (its queue slot, context or
			// shutdown — not ours); contend for the key again under this
			// request's own admission mode.
			continue
		}
		if e.err != nil {
			return nil, e.err
		}
		if !owner {
			s.cacheHits.Inc()
		}
		s.lat.Observe(time.Since(t0).Seconds())
		return &ScheduleReply{ScheduleResponse: e.resp, Cached: !owner}, nil
	}
}

// submit enqueues an admitted job. The RLock pairs with Close's Lock so a
// send never races the channel close.
func (s *Service) submit(ctx context.Context, j *job, wait bool) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if wait {
		select {
		case s.queue <- j:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return ErrOverloaded
	}
}

// Stats is the observable state of the service, the body of GET /v1/stats.
type Stats struct {
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	CacheEntries  int     `json:"cache_entries"`
	CacheCapacity int     `json:"cache_capacity"`
	Requests      uint64  `json:"requests"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	HitRate       float64 `json:"hit_rate"`
	SchedulerRuns uint64  `json:"scheduler_runs"`
	Rejected      uint64  `json:"rejected"`
	Errors        uint64  `json:"errors"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
}

// Stats snapshots the counters. The latency percentiles cover every
// successful request since the service started, end to end (queue wait
// included), read from the streaming histogram — not a sliding window.
func (s *Service) Stats() Stats {
	st := Stats{
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueSize,
		CacheEntries:  s.cache.len(),
		CacheCapacity: s.cfg.CacheSize,
		Requests:      s.requests.Value(),
		CacheHits:     s.cacheHits.Value(),
		CacheMisses:   s.cacheMisses.Value(),
		SchedulerRuns: s.schedulerRuns.Value(),
		Rejected:      s.rejected.Value(),
		Errors:        s.errors.Value(),
	}
	if st.Requests > 0 {
		st.HitRate = float64(st.CacheHits) / float64(st.Requests)
	}
	if s.lat.Count() > 0 {
		st.LatencyP50Ms = s.lat.Quantile(0.50) * 1e3
		st.LatencyP90Ms = s.lat.Quantile(0.90) * 1e3
		st.LatencyP99Ms = s.lat.Quantile(0.99) * 1e3
	}
	return st
}
