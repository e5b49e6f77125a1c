package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ftbar/internal/gen"
	"ftbar/internal/spec"
)

func genProblem(tb testing.TB, seed int64) *spec.Problem {
	tb.Helper()
	p, err := gen.Generate(gen.Params{N: 8, CCR: 1, Procs: 3, Npf: 1, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestCacheKeyContentAddressing(t *testing.T) {
	// Two independently generated copies of the same problem share a key.
	a := &ScheduleRequest{Problem: genProblem(t, 5)}
	b := &ScheduleRequest{Problem: genProblem(t, 5)}
	ka, err := a.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("identical problems hash differently: %s vs %s", ka, kb)
	}
	// Any semantic difference separates the keys.
	for name, req := range map[string]*ScheduleRequest{
		"problem": {Problem: genProblem(t, 6)},
		"options": {Problem: genProblem(t, 5), Options: RequestOptions{NoDuplication: true}},
		"include": {Problem: genProblem(t, 5), Include: Include{Stats: true}},
	} {
		k, err := req.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if k == ka {
			t.Errorf("%s variant collides with the base key", name)
		}
	}
	if _, err := (&ScheduleRequest{}).CacheKey(); !errors.Is(err, ErrBadRequest) {
		t.Error("missing problem accepted")
	}
}

// TestCachedResponsesBypassScheduler pins the acceptance criterion: a
// repeated request is served from memory, with the scheduler_runs counter
// proving the engine never ran again.
func TestCachedResponsesBypassScheduler(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ctx := context.Background()
	first, err := s.Schedule(ctx, &ScheduleRequest{Problem: genProblem(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("cold request reported cached")
	}
	for i := 0; i < 5; i++ {
		again, err := s.Schedule(ctx, &ScheduleRequest{Problem: genProblem(t, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Errorf("repeat %d not served from cache", i)
		}
		if string(again.Schedule) != string(first.Schedule) {
			t.Errorf("repeat %d returned a different schedule", i)
		}
	}
	st := s.Stats()
	if st.SchedulerRuns != 1 {
		t.Errorf("scheduler ran %d times for 6 identical requests, want 1", st.SchedulerRuns)
	}
	if st.CacheHits != 5 || st.CacheMisses != 1 || st.Requests != 6 {
		t.Errorf("counters hits=%d misses=%d requests=%d, want 5/1/6",
			st.CacheHits, st.CacheMisses, st.Requests)
	}
	if want := 5.0 / 6.0; st.HitRate != want {
		t.Errorf("hit rate %g, want %g", st.HitRate, want)
	}
}

// TestBackpressure fills the pool and the queue with held computations
// and checks the next non-blocking submission is rejected.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	s := New(Config{Workers: 1, QueueSize: 1})
	s.computeHook = func() {
		entered <- struct{}{}
		<-gate
	}
	defer s.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	results := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = s.Schedule(ctx, &ScheduleRequest{Problem: genProblem(t, int64(10+i))})
		}(i)
		if i == 0 {
			<-entered // the worker holds request 0; request 1 will sit in the queue
		}
	}
	// Wait until request 1 occupies the queue slot.
	for len(s.queue) == 0 {
		runtime.Gosched()
	}
	if _, err := s.TrySchedule(ctx, &ScheduleRequest{Problem: genProblem(t, 12)}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow submission got %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", st.Rejected)
	}
	close(gate)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Errorf("held request %d failed: %v", i, err)
		}
	}
	// The rejected key was abandoned, so a later identical request works.
	if _, err := s.Schedule(ctx, &ScheduleRequest{Problem: genProblem(t, 12)}); err != nil {
		t.Errorf("retry after rejection failed: %v", err)
	}
}

// TestInFlightCoalescing checks identical concurrent requests run the
// scheduler once and everyone gets the same response.
func TestInFlightCoalescing(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 16)
	s := New(Config{Workers: 2})
	s.computeHook = func() {
		entered <- struct{}{}
		<-gate
	}
	defer s.Close()
	ctx := context.Background()

	const clients = 8
	var wg sync.WaitGroup
	replies := make([]*ScheduleReply, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = s.Schedule(ctx, &ScheduleRequest{Problem: genProblem(t, 77)})
		}(i)
	}
	<-entered // one owner is computing; the rest must coalesce
	close(gate)
	wg.Wait()
	cached := 0
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if replies[i].Cached {
			cached++
		}
		if string(replies[i].Schedule) != string(replies[0].Schedule) {
			t.Errorf("client %d got a different schedule", i)
		}
	}
	if st := s.Stats(); st.SchedulerRuns != 1 {
		t.Errorf("scheduler ran %d times for %d coalesced requests", st.SchedulerRuns, clients)
	}
	if cached != clients-1 {
		t.Errorf("%d of %d requests reported cached, want %d", cached, clients, clients-1)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: 2})
	defer s.Close()
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := s.Schedule(ctx, &ScheduleRequest{Problem: genProblem(t, seed)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheEntries != 2 {
		t.Errorf("cache holds %d entries, capacity 2", st.CacheEntries)
	}
	// Seed 1 was evicted (LRU), so it recomputes; seed 3 is still warm.
	runs := s.Stats().SchedulerRuns
	if _, err := s.Schedule(ctx, &ScheduleRequest{Problem: genProblem(t, 3)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SchedulerRuns; got != runs {
		t.Errorf("warm entry recomputed (runs %d -> %d)", runs, got)
	}
	if _, err := s.Schedule(ctx, &ScheduleRequest{Problem: genProblem(t, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SchedulerRuns; got != runs+1 {
		t.Errorf("evicted entry not recomputed (runs %d -> %d)", runs, got)
	}
}

func TestSweepVariantsAndOverhead(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	p, err := gen.Generate(gen.Params{N: 12, CCR: 1, Procs: 4, Npf: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Sweep(context.Background(), &SweepRequest{Problem: p, Npfs: []int{0, 1, 2, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Variants) != 4 {
		t.Fatalf("got %d variants, want 4", len(resp.Variants))
	}
	if resp.Variants[3].Error == "" {
		t.Error("negative npf variant did not error")
	}
	l0 := resp.Variants[0].Length
	for i, v := range resp.Variants[:3] {
		if v.ScheduleResponse == nil {
			t.Fatalf("variant npf=%d failed: %s", v.Npf, v.Error)
		}
		if v.Length < l0-1e-9 {
			t.Errorf("npf=%d length %g below npf=0 length %g", v.Npf, v.Length, l0)
		}
		wantOvh := (v.Length - l0) / v.Length * 100
		if v.Length > 0 && v.Overhead != wantOvh {
			t.Errorf("variant %d overhead %g, want %g", i, v.Overhead, wantOvh)
		}
	}
	// A re-run of the same sweep is fully cached.
	again, err := s.Sweep(context.Background(), &SweepRequest{Problem: p, Npfs: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range again.Variants {
		if !v.Cached {
			t.Errorf("re-swept npf=%d not cached", v.Npf)
		}
	}
}

func TestBatch(t *testing.T) {
	s := New(Config{Workers: 2, QueueSize: 1})
	defer s.Close()
	// More elements than queue+workers: blocking submission must still
	// finish every element.
	reqs := make([]ScheduleRequest, 8)
	for i := range reqs {
		reqs[i] = ScheduleRequest{Problem: genProblem(t, int64(i%3))} // repeats hit the cache
	}
	resp := s.Batch(context.Background(), &BatchRequest{Requests: reqs})
	for i, item := range resp.Responses {
		if item.Error != "" {
			t.Errorf("item %d: %s", i, item.Error)
		}
		if item.ScheduleResponse == nil || len(item.Schedule) == 0 {
			t.Errorf("item %d: empty response", i)
		}
	}
	if st := s.Stats(); st.SchedulerRuns != 3 {
		t.Errorf("scheduler ran %d times for 3 distinct problems", st.SchedulerRuns)
	}
}

func TestErrorsNotCached(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	// An unschedulable problem: Npf+1 replicas cannot fit 2 processors.
	p := genProblem(t, 3)
	p.Npf = 5
	ctx := context.Background()
	if _, err := s.Schedule(ctx, &ScheduleRequest{Problem: p}); err == nil {
		t.Fatal("unschedulable problem succeeded")
	}
	st := s.Stats()
	if st.Errors != 1 {
		t.Errorf("errors counter = %d, want 1", st.Errors)
	}
	if st.CacheEntries != 0 {
		t.Errorf("failed computation retained in cache (%d entries)", st.CacheEntries)
	}
}

// TestAbandonedEntryRetries pins that a blocking request coalesced onto
// an entry whose owner failed admission (queue full, owner's context)
// does not inherit the owner's failure: it re-contends for the key and
// succeeds on its own terms.
func TestAbandonedEntryRetries(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := &ScheduleRequest{Problem: genProblem(t, 21)}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	e, owner := s.cache.acquire(key)
	if !owner {
		t.Fatal("test did not own the fresh entry")
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Schedule(context.Background(), &ScheduleRequest{Problem: genProblem(t, 21)})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request coalesce onto e
	s.cache.abandon(e, ErrOverloaded)
	if err := <-done; err != nil {
		t.Fatalf("coalesced waiter inherited the owner's admission failure: %v", err)
	}
}

func TestNegativeSizesFallBack(t *testing.T) {
	s := New(Config{Workers: 1, QueueSize: -3})
	defer s.Close()
	if _, err := s.Schedule(context.Background(), &ScheduleRequest{Problem: genProblem(t, 4)}); err != nil {
		t.Errorf("negative queue size broke the service: %v", err)
	}
	if st := s.Stats(); st.QueueCapacity != 4 {
		t.Errorf("queue capacity %d, want the 4x-workers default", st.QueueCapacity)
	}
}

func TestCloseRejectsNewWork(t *testing.T) {
	s := New(Config{})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Schedule(context.Background(), &ScheduleRequest{Problem: genProblem(t, 2)}); !errors.Is(err, ErrClosed) {
		t.Errorf("closed service accepted work: %v", err)
	}
}
