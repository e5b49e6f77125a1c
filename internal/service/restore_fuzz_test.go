package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"ftbar/internal/core"
	"ftbar/internal/paperex"
)

// maxFuzzSnapshot caps the snapshot documents FuzzSnapshotRestore decodes,
// at more than twice the seed snapshot with three problems and their
// records.
const maxFuzzSnapshot = 128 << 10

// FuzzSnapshotRestore feeds any snapshot document to RestoreBytes, then
// asks the restored service for the paper example and two generated
// problems. Restoring and serving never panic, and every reply the
// scheduler computes — cold, or replayed from a restored warm-start
// record — carries a schedule that passes Validate and decides each task
// exactly once: a corrupt record degrades to a cold start. Replies served
// from restored cache entries are trusted by design (the snapshot version
// gates them). Run it with
//
//	go test ./internal/service -run '^$' -fuzz FuzzSnapshotRestore -fuzztime 10s -fuzzminimizetime 50x
func FuzzSnapshotRestore(f *testing.F) {
	reqs := []*ScheduleRequest{
		{Problem: paperex.Problem()},
		{Problem: genProblem(f, 41)},
		{Problem: genProblem(f, 42)},
	}
	// The seed snapshot's entries key the plain requests; the fuzzed
	// requests ask for stats, so they miss the response cache and reach
	// the restored records.
	seed := New(Config{Workers: 1})
	for _, req := range reqs {
		if _, err := seed.Schedule(context.Background(), req); err != nil {
			f.Fatal(err)
		}
	}
	v3, err := seed.SnapshotBytes()
	seed.Close()
	if err != nil {
		f.Fatal(err)
	}
	if len(v3) > maxFuzzSnapshot/2 {
		f.Fatalf("seed snapshot is %d bytes, too close to the %d-byte cap", len(v3), maxFuzzSnapshot)
	}
	f.Add(v3)
	var snap cacheSnapshot
	if err := json.Unmarshal(v3, &snap); err != nil {
		f.Fatal(err)
	}
	snap.Version, snap.Records = 2, nil
	v2, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	for _, data := range craftedRecordSnapshots(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzSnapshot {
			return
		}
		s := New(Config{Workers: 1})
		defer s.Close()
		var mu sync.Mutex
		var bad []string
		s.resultHook = func(res *core.Result) {
			if err := res.Schedule.Validate(); err != nil {
				mu.Lock()
				bad = append(bad, err.Error())
				mu.Unlock()
			}
			if n := res.Schedule.Tasks().NumTasks(); len(res.Steps) != n {
				mu.Lock()
				bad = append(bad, fmt.Sprintf("%d decisions for %d tasks", len(res.Steps), n))
				mu.Unlock()
			}
		}
		_, _ = s.RestoreBytes(data) // a refused document is a cold start
		for _, req := range reqs {
			if _, err := s.Schedule(context.Background(), &ScheduleRequest{Problem: req.Problem, Include: Include{Stats: true}}); err != nil {
				t.Fatalf("request after restore: %v", err)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(bad) > 0 {
			t.Fatalf("served schedules fail their checks: %v", bad)
		}
	})
}
