package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ftbar/internal/gen"
	"ftbar/internal/obsv"
	"ftbar/internal/paperex"
	"ftbar/internal/service"
	"ftbar/internal/spec"
	"ftbar/internal/wire"
)

// testCluster is a master plus n in-process workers on real loopback TCP.
type testCluster struct {
	master  *Master
	workers []*Worker
}

// oneWorker is the per-worker service most tests run: one scheduling
// goroutine and the default cache.
var oneWorker = service.Config{Workers: 1}

// startCluster boots a master and n workers, each over its own service
// built from wcfg.
func startCluster(t *testing.T, n int, cfg MasterConfig, wcfg service.Config) *testCluster {
	t.Helper()
	tc := &testCluster{master: NewMaster(cfg)}
	for i := 0; i < n; i++ {
		svc := service.New(wcfg)
		w := NewWorker(fmt.Sprintf("worker-%d", i), svc)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w.Serve(ln)
		tc.master.AddWorker(w.ID(), w.Addr())
		tc.workers = append(tc.workers, w)
	}
	t.Cleanup(func() {
		tc.master.Close()
		for _, w := range tc.workers {
			w.Close()
			w.Service().Close()
		}
	})
	return tc
}

func testProblem(t *testing.T, seed int64) *spec.Problem {
	t.Helper()
	p, err := gen.Generate(gen.Params{
		N: 12, CCR: 2, Procs: 4, Npf: int(seed % 2),
		Topology: gen.Topology(seed % 4), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func schedulerRunsTotal(tc *testCluster) uint64 {
	var total uint64
	for _, w := range tc.workers {
		total += w.Service().Stats().SchedulerRuns
	}
	return total
}

// TestMasterEdgeByteIdentical pins the tentpole's compatibility claim:
// the paper example scheduled through a master + 2 workers returns the
// byte-identical body the standalone service is pinned to by its golden
// files.
func TestMasterEdgeByteIdentical(t *testing.T) {
	tc := startCluster(t, 2, MasterConfig{}, oneWorker)
	srv := httptest.NewServer(service.NewHandler(tc.master))
	defer srv.Close()

	pj, err := paperex.Problem().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/schedule", "application/json",
		strings.NewReader(`{"problem":`+string(pj)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	golden, err := os.ReadFile(filepath.Join("..", "service", "testdata", "golden", "schedule_paper.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("master edge drifted from the standalone golden\ngot:  %.300s\nwant: %.300s", body, golden)
	}
}

// TestRoutingIsShardedAndCached drives distinct problems through the
// master twice: the first pass runs each exactly once cluster-wide, the
// second pass is all cache hits on whichever worker owns the key.
func TestRoutingIsShardedAndCached(t *testing.T) {
	tc := startCluster(t, 3, MasterConfig{}, oneWorker)
	const d = 9
	ctx := context.Background()
	for pass := 0; pass < 2; pass++ {
		for seed := int64(1); seed <= d; seed++ {
			reply, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: testProblem(t, seed)})
			if err != nil {
				t.Fatalf("pass %d seed %d: %v", pass, seed, err)
			}
			if wantCached := pass == 1; reply.Cached != wantCached {
				t.Errorf("pass %d seed %d: cached=%v, want %v", pass, seed, reply.Cached, wantCached)
			}
		}
	}
	if got := schedulerRunsTotal(tc); got != d {
		t.Errorf("scheduler ran %d times cluster-wide, want exactly %d", got, d)
	}
	// The keyspace actually sharded: with 9 keys on 3 workers it is
	// astronomically unlikely (and with this fixed corpus, simply false)
	// that one worker owns everything.
	owners := 0
	for _, w := range tc.workers {
		if w.Service().Stats().SchedulerRuns > 0 {
			owners++
		}
	}
	if owners < 2 {
		t.Errorf("all keys landed on %d worker(s); routing is not sharding", owners)
	}
}

// TestWorkerKillReroutes is the fault-injection satellite: kill a worker
// mid-service, then (a) requests for keys it owned reroute to the ring
// successor and succeed, (b) the master counts the death, and (c)
// concurrent duplicates of one key still run the scheduler exactly once
// cluster-wide — coalescing holds across the reroute.
func TestWorkerKillReroutes(t *testing.T) {
	tc := startCluster(t, 3, MasterConfig{
		Registry: RegistryConfig{ProbeEvery: 50 * time.Millisecond},
	}, oneWorker)
	ctx := context.Background()

	// Warm every worker so each owns part of the keyspace.
	for seed := int64(1); seed <= 9; seed++ {
		if _, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: testProblem(t, seed)}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the worker that owns the most keys (it certainly owns some).
	victim := 0
	for i, w := range tc.workers {
		if w.Service().Stats().SchedulerRuns > tc.workers[victim].Service().Stats().SchedulerRuns {
			victim = i
		}
	}
	tc.workers[victim].Close()

	// Every previously scheduled problem must still answer — rerouted and
	// recomputed on the successor where the victim owned the key.
	failures := 0
	for seed := int64(1); seed <= 9; seed++ {
		if _, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: testProblem(t, seed)}); err != nil {
			failures++
			t.Errorf("seed %d after kill: %v", seed, err)
		}
	}
	if failures > 0 {
		t.Fatalf("%d/9 requests failed after a single worker death", failures)
	}
	if got := tc.master.workerDown.Value(); got < 1 {
		t.Errorf("ftbar_cluster_worker_down_total = %d, want >= 1", got)
	}

	// Concurrent duplicates of a fresh key: exactly one scheduler run.
	before := schedulerRunsTotal(tc)
	fresh := testProblem(t, 77)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: fresh})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("duplicate during post-kill window: %v", err)
		}
	}
	if got := schedulerRunsTotal(tc) - before; got != 1 {
		t.Errorf("8 concurrent duplicates caused %d scheduler runs, want exactly 1", got)
	}
}

// TestShardingAddsCacheCapacity: sharding multiplies cache capacity,
// not only scheduler throughput. Sixteen problems cycle through workers
// whose caches hold 12 entries each. One worker cannot hold the set, and
// cyclic access defeats LRU, so every pass recomputes; two workers split
// the keys below 12 per shard, so each problem runs exactly once.
func TestShardingAddsCacheCapacity(t *testing.T) {
	const problems, passes = 16, 3
	small := service.Config{Workers: 1, CacheSize: 12}
	runs := map[int]uint64{}
	for _, n := range []int{1, 2} {
		tc := startCluster(t, n, MasterConfig{}, small)
		for pass := 0; pass < passes; pass++ {
			for seed := int64(1); seed <= problems; seed++ {
				if _, err := tc.master.Schedule(context.Background(),
					&wire.ScheduleRequest{Problem: testProblem(t, seed)}); err != nil {
					t.Fatalf("%d workers, pass %d, seed %d: %v", n, pass, seed, err)
				}
			}
		}
		runs[n] = schedulerRunsTotal(tc)
	}
	t.Logf("scheduler runs over %d passes: 1 worker %d, 2 workers %d", passes, runs[1], runs[2])
	if runs[2] != problems {
		t.Errorf("2 workers ran the scheduler %d times for %d problems, want exactly %d",
			runs[2], problems, problems)
	}
	if runs[1] <= runs[2] {
		t.Errorf("1 worker ran the scheduler %d times, 2 workers %d: sharding added no cache capacity",
			runs[1], runs[2])
	}
}

// TestWorkerKillUnderConcurrentLoad kills a worker while concurrent
// clients are mid-pass, so requests are in flight on the severed
// connections. The master must reroute them: the client-visible error
// rate stays under 5% and the death is counted.
func TestWorkerKillUnderConcurrentLoad(t *testing.T) {
	const clients, problems, passes = 4, 16, 3
	tc := startCluster(t, 3, MasterConfig{}, oneWorker)
	ctx := context.Background()
	probs := make([]*spec.Problem, problems)
	for i := range probs {
		probs[i] = testProblem(t, int64(i+1))
	}

	const quota = problems * passes // requests per client
	const total = clients * quota
	var progress [clients]atomic.Int64
	var completed, failures atomic.Int64
	quarter := make(chan struct{}) // closed when a quarter of all requests completed
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < quota; i++ {
				// Offset starts so the clients are on different keys.
				p := probs[(i+c*problems/clients)%problems]
				if _, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: p}); err != nil {
					failures.Add(1)
				}
				progress[c].Add(1)
				if completed.Add(1) == total/4 {
					close(quarter)
				}
			}
		}(c)
	}

	// Kill the first worker once a quarter of all requests completed.
	<-quarter
	midPass := 0
	for c := range progress {
		if n := progress[c].Load(); n > 0 && n < quota {
			midPass++
		}
	}
	tc.workers[0].Close()
	wg.Wait()
	reroutes := counterValue(tc.master.Metrics(), "ftbar_cluster_reroutes_total")
	t.Logf("%d failed of %d, %d reroutes", failures.Load(), total, reroutes)

	if midPass < clients {
		t.Fatalf("only %d of %d clients were mid-pass at the kill; the test did not load the cluster", midPass, clients)
	}
	if rate := float64(failures.Load()) / total; rate >= 0.05 {
		t.Errorf("%d of %d requests failed across the kill (%.1f%%), want < 5%%",
			failures.Load(), total, rate*100)
	}
	if got := counterValue(tc.master.Metrics(), "ftbar_cluster_worker_down_total"); got < 1 {
		t.Errorf("ftbar_cluster_worker_down_total = %d, want >= 1", got)
	}
	// No prober runs here, so only a routed request can find the dead
	// worker: at least one must have been rerouted to a successor.
	if reroutes < 1 {
		t.Errorf("ftbar_cluster_reroutes_total = %d, want >= 1", reroutes)
	}
}

// TestDrainHandoff pins the graceful-drain protocol: the drained
// worker's cache shard installs on the ring successor, so the moved keys
// answer as cache hits without a single new scheduler run.
func TestDrainHandoff(t *testing.T) {
	tc := startCluster(t, 2, MasterConfig{}, oneWorker)
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		if _, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: testProblem(t, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain whichever worker holds cache entries (with 6 keys both do).
	victim := tc.workers[0]
	if victim.Service().Stats().CacheEntries == 0 {
		victim = tc.workers[1]
	}
	victimEntries := victim.Service().Stats().CacheEntries
	if victimEntries == 0 {
		t.Fatal("no worker holds cache entries; test corpus too small")
	}
	moved, err := tc.master.Drain(ctx, victim.ID(), true)
	if err != nil {
		t.Fatal(err)
	}
	if moved < victimEntries {
		t.Errorf("drain moved %d entries, victim held %d", moved, victimEntries)
	}
	if got := tc.master.drains.Value(); got != 1 {
		t.Errorf("ftbar_cluster_drains_total = %d", got)
	}

	runsBefore := schedulerRunsTotal(tc)
	for seed := int64(1); seed <= 6; seed++ {
		reply, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: testProblem(t, seed)})
		if err != nil {
			t.Fatalf("seed %d after drain: %v", seed, err)
		}
		if !reply.Cached {
			t.Errorf("seed %d recomputed after handoff; shard did not move warm", seed)
		}
	}
	if got := schedulerRunsTotal(tc) - runsBefore; got != 0 {
		t.Errorf("%d scheduler runs after handoff, want 0 (all hits)", got)
	}
}

// counterValue reads one named counter out of a service's metrics
// registry; the planner counters are not part of Stats, so the cluster
// tests observe them the way a reporter would.
func counterValue(reg *obsv.Registry, name string) uint64 {
	for _, s := range reg.Gather().Samples {
		if s.Name == name {
			return uint64(s.Value)
		}
	}
	return 0
}

// TestDrainHandoffWarmStartsAtScale is the arena side of the drain
// protocol, at a size where the handed-off shard matters: the snapshot
// carries the warm-start decision records along with the cache entries,
// so after the drain the receiving worker REPLAYS the moved problems
// instead of re-searching them. The test drains the more-loaded of two
// workers, then re-requests every problem with different Include flags —
// a different content key, so each request misses the response cache and
// must compute — and asserts a floor on the replay hit rate of those
// computes on the receiving shard.
func TestDrainHandoffWarmStartsAtScale(t *testing.T) {
	tc := startCluster(t, 2, MasterConfig{}, oneWorker)
	ctx := context.Background()
	const problems = 24
	for seed := int64(1); seed <= problems; seed++ {
		if _, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: testProblem(t, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	// Drain the loaded worker: the one that computed the larger shard.
	victim, survivor := tc.workers[0], tc.workers[1]
	if survivor.Service().Stats().SchedulerRuns > victim.Service().Stats().SchedulerRuns {
		victim, survivor = survivor, victim
	}
	victimRuns := victim.Service().Stats().SchedulerRuns
	if victimRuns == 0 {
		t.Fatal("victim computed nothing; test corpus too small")
	}
	moved, err := tc.master.Drain(ctx, victim.ID(), true)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("drain moved no cache entries")
	}

	reg := survivor.Service().Metrics()
	warmBefore := counterValue(reg, "ftbar_planner_warm_starts_total")
	runsBefore := survivor.Service().Stats().SchedulerRuns
	// Different Include flags change the content key, so every request
	// below misses the response cache and computes on the survivor — from
	// a transferred (or local) decision record if the handoff worked.
	for seed := int64(1); seed <= problems; seed++ {
		reply, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{
			Problem: testProblem(t, seed),
			Include: wire.Include{Stats: true},
		})
		if err != nil {
			t.Fatalf("seed %d after drain: %v", seed, err)
		}
		if reply.Cached {
			t.Fatalf("seed %d hit the response cache; the test needs computes", seed)
		}
	}
	computes := survivor.Service().Stats().SchedulerRuns - runsBefore
	if computes != problems {
		t.Fatalf("survivor computed %d of %d re-requests", computes, problems)
	}
	warm := counterValue(reg, "ftbar_planner_warm_starts_total") - warmBefore
	rate := float64(warm) / float64(computes)
	// The floor, not 1.0 exactly: the guarantee under test is that the
	// moved records replay, not that no future record is ever evicted.
	if rate < 0.9 {
		t.Errorf("replay hit rate after drain = %d/%d = %.2f, want >= 0.9 "+
			"(handoff dropped the victim's %d-run decision log)",
			warm, computes, rate, victimRuns)
	}
	if got := counterValue(reg, "ftbar_planner_replayed_decisions_total"); got == 0 {
		t.Error("no decisions replayed on the receiving shard")
	}
}

// TestDrainingWorkerBouncesNewWork: a worker mid-drain rejects Schedule
// RPCs with DRAINING and the master walks on.
func TestDrainingWorkerBouncesNewWork(t *testing.T) {
	tc := startCluster(t, 1, MasterConfig{}, oneWorker)
	tc.workers[0].draining.Store(true)
	_, err := tc.master.Schedule(context.Background(),
		&wire.ScheduleRequest{Problem: testProblem(t, 3)})
	if !errors.Is(err, wire.ErrWorkerUnavailable) {
		t.Errorf("draining-only cluster returned %v, want WORKER_UNAVAILABLE", err)
	}
}

// TestNoWorkers: an empty cluster fails typed, and the HTTP edge maps it
// to 503 with the code header.
func TestNoWorkers(t *testing.T) {
	m := NewMaster(MasterConfig{})
	defer m.Close()
	srv := httptest.NewServer(service.NewHandler(m))
	defer srv.Close()
	pj, _ := paperex.Problem().MarshalJSON()
	resp, err := http.Post(srv.URL+"/v1/schedule", "application/json",
		strings.NewReader(`{"problem":`+string(pj)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Ftbar-Error-Code"); h != string(wire.CodeWorkerUnavailable) {
		t.Errorf("error code header %q", h)
	}
	if string(body) != "cluster: no worker available\n" {
		t.Errorf("body %q", body)
	}
}

// TestVersionedJobRejected: a job stamped with a future wire version is
// rejected as VERSION_MISMATCH by the worker, not misinterpreted.
func TestVersionedJobRejected(t *testing.T) {
	tc := startCluster(t, 1, MasterConfig{}, oneWorker)
	client := NewClient(tc.workers[0].Addr())
	defer client.Close()
	payload, _ := json.Marshal(scheduleJob{Version: wire.Version + 41, Wait: true,
		Request: wire.ScheduleRequest{Problem: paperex.Problem()}})
	_, err := client.Call(context.Background(), methodSchedule, payload)
	if !errors.Is(err, wire.ErrVersionMismatch) {
		t.Errorf("future-versioned job: %v, want VERSION_MISMATCH", err)
	}
}

// TestHandshakeVersionMismatch: a server speaking another wire version
// is refused during the handshake, before any request bytes flow.
func TestHandshakeVersionMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 16)
		conn.Read(buf)
		// Reply FTBW + uvarint(99): a future-versioned peer.
		conn.Write(append([]byte(transportMagic), 99))
	}()
	client := NewClient(ln.Addr().String())
	defer client.Close()
	payload, _ := json.Marshal(probe{Version: wire.Version})
	_, err = client.Call(context.Background(), methodHealth, payload)
	if !errors.Is(err, wire.ErrVersionMismatch) {
		t.Errorf("mismatched handshake: %v, want VERSION_MISMATCH", err)
	}
}

// TestMasterStatsAggregate: the cluster /v1/stats sums the shards.
func TestMasterStatsAggregate(t *testing.T) {
	tc := startCluster(t, 2, MasterConfig{}, oneWorker)
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := tc.master.Schedule(ctx, &wire.ScheduleRequest{Problem: testProblem(t, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	st := tc.master.Stats()
	if st.Workers != 2 {
		t.Errorf("Workers = %d, want 2", st.Workers)
	}
	if st.SchedulerRuns != 4 {
		t.Errorf("aggregated SchedulerRuns = %d, want 4", st.SchedulerRuns)
	}
	if st.CacheEntries != 4 {
		t.Errorf("aggregated CacheEntries = %d, want 4", st.CacheEntries)
	}
}

// TestProberRevivesWorker: a worker marked down by a routing failure
// comes back once health probes succeed again.
func TestProberRevivesWorker(t *testing.T) {
	tc := startCluster(t, 2, MasterConfig{
		Registry: RegistryConfig{ProbeEvery: 20 * time.Millisecond},
	}, oneWorker)
	tc.master.Start()
	id := tc.workers[0].ID()
	tc.master.Registry().MarkDown(id)
	if tc.master.Registry().State(id) != StateDown {
		t.Fatal("MarkDown did not take")
	}
	deadline := time.Now().Add(3 * time.Second)
	for tc.master.Registry().State(id) != StateUp && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := tc.master.Registry().State(id); got != StateUp {
		t.Errorf("worker stuck %v after revival window", got)
	}
	if got := tc.master.workerUp.Value(); got < 1 {
		t.Errorf("ftbar_cluster_worker_up_total = %d, want >= 1", got)
	}
}
