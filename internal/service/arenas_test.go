package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ftbar/internal/core"
	"ftbar/internal/paperex"
)

// TestServiceWarmStarts pins the arena value story inside the service:
// the same problem requested with different Include flags misses the
// response cache (the flags are part of the key) but warm-starts the
// scheduler from the first run's decision log, and the replayed schedule
// is byte-identical to the searched one.
func TestServiceWarmStarts(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	p := genProblem(t, 7)
	cold, err := s.Schedule(context.Background(), &ScheduleRequest{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.planner.warmStarts.Value(); got != 0 {
		t.Fatalf("first run warm-started (%d), want a cold search", got)
	}
	warm, err := s.Schedule(context.Background(), &ScheduleRequest{
		Problem: p, Include: Include{Stats: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cached {
		t.Fatal("second request hit the response cache; the test needs a compute")
	}
	if got := s.planner.warmStarts.Value(); got != 1 {
		t.Errorf("warm starts = %d, want 1", got)
	}
	if s.planner.replayedDecns.Value() == 0 {
		t.Error("no decisions replayed on the warm start")
	}
	if !bytes.Equal(cold.Schedule, warm.Schedule) {
		t.Error("warm-started schedule differs from the cold one")
	}
	if warm.Stats == nil {
		t.Error("warm response missing the requested stats")
	}
}

// TestServiceArenaDisabled pins the off switch: a negative ArenaSize
// disables the pool and every repeat request searches cold.
func TestServiceArenaDisabled(t *testing.T) {
	s := New(Config{Workers: 1, ArenaSize: -1})
	defer s.Close()
	p := genProblem(t, 8)
	for _, inc := range []Include{{}, {Stats: true}, {Gantt: true}} {
		if _, err := s.Schedule(context.Background(), &ScheduleRequest{Problem: p, Include: inc}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.planner.warmStarts.Value(); got != 0 {
		t.Errorf("disabled arena pool warm-started %d runs", got)
	}
	if s.arenas.shapes() != 0 || s.arenas.records() != 0 {
		t.Error("disabled arena pool reports live arenas")
	}
}

// TestPersistCarriesWarmStartLogs is the restart round trip for the
// version 3 snapshot: decision records saved alongside the cache let the
// restarted service replay — not re-search — a problem it has seen, even
// when the request misses the response cache.
func TestPersistCarriesWarmStartLogs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	p := genProblem(t, 9)

	first := New(Config{Workers: 1})
	if _, err := first.Schedule(context.Background(), &ScheduleRequest{Problem: p}); err != nil {
		t.Fatal(err)
	}
	if _, err := first.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := New(Config{Workers: 1})
	defer second.Close()
	if _, err := second.LoadCacheFile(path); err != nil {
		t.Fatal(err)
	}
	if got := second.arenas.records(); got != 1 {
		t.Fatalf("restored %d warm-start records, want 1", got)
	}
	// Different Include flags: a response-cache miss, so the scheduler
	// runs — from the restored log. Regenerate the problem so the content
	// key is recomputed the way a wire request would compute it.
	reply, err := second.Schedule(context.Background(), &ScheduleRequest{
		Problem: genProblem(t, 9), Include: Include{Stats: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Cached {
		t.Fatal("request hit the response cache; the test needs a compute")
	}
	if got := second.planner.warmStarts.Value(); got != 1 {
		t.Errorf("restored service warm starts = %d, want 1", got)
	}
}

// TestLoadVersion2SnapshotEntriesOnly pins backward compatibility: a
// version 2 file (no Records field) still restores its cache entries;
// the arenas just start cold. Version 1 stays rejected.
func TestLoadVersion2SnapshotEntriesOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")
	first := New(Config{Workers: 1})
	req := &ScheduleRequest{Problem: genProblem(t, 10)}
	if _, err := first.Schedule(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := first.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}
	first.Close()

	// Rewrite the snapshot as an old service would have written it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap cacheSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Version, snap.Records = 2, nil
	data, err = json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	second := New(Config{Workers: 1})
	defer second.Close()
	n, err := second.LoadCacheFile(path)
	if err != nil {
		t.Fatalf("version 2 snapshot rejected: %v", err)
	}
	if n != 1 {
		t.Errorf("restored %d entries from the version 2 snapshot, want 1", n)
	}
	if got := second.arenas.records(); got != 0 {
		t.Errorf("version 2 snapshot restored %d warm-start records", got)
	}
	reply, err := second.Schedule(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Cached {
		t.Error("restored entry not served as a cache hit")
	}

	v1 := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(v1, []byte(`{"version": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := second.LoadCacheFile(v1); err == nil {
		t.Error("version 1 snapshot loaded without error")
	}
}

// craftedRecordSnapshots returns version 3 snapshots that each carry one
// corrupted warm-start record of the paper example and no cache entries,
// so the first request for the example reaches the record: a placement
// naming task 999, processor 999 or task -1, and the placement log cut
// to half its length.
func craftedRecordSnapshots(tb testing.TB) map[string][]byte {
	tb.Helper()
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Schedule(context.Background(), &ScheduleRequest{Problem: paperex.Problem()}); err != nil {
		tb.Fatal(err)
	}
	data, err := s.SnapshotBytes()
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string][]byte)
	for name, corrupt := range map[string]func(*core.RunRecord){
		"task-999":  func(r *core.RunRecord) { r.Places[len(r.Places)/2].Task = 999 },
		"proc-999":  func(r *core.RunRecord) { r.Places[len(r.Places)/2].Proc = 999 },
		"task-neg":  func(r *core.RunRecord) { r.Places[len(r.Places)/2].Task = -1 },
		"truncated": func(r *core.RunRecord) { r.Places = r.Places[:len(r.Places)/2] },
	} {
		var snap cacheSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			tb.Fatal(err)
		}
		if len(snap.Records) != 1 {
			tb.Fatalf("snapshot carries %d records, want 1", len(snap.Records))
		}
		corrupt(snap.Records[0])
		snap.Entries = nil
		b, err := json.Marshal(snap)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = b
	}
	return out
}

// TestCorruptRecordsStartCold: a restored record that does not rebuild a
// valid schedule of its own problem is dropped at restore, so the request
// it would have served runs cold and gets a fresh service's reply instead
// of panicking the worker or serving a broken schedule.
func TestCorruptRecordsStartCold(t *testing.T) {
	req := &ScheduleRequest{Problem: paperex.Problem()}
	fresh := New(Config{Workers: 1})
	want, err := fresh.Schedule(context.Background(), req)
	fresh.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want.ScheduleResponse)
	for name, data := range craftedRecordSnapshots(t) {
		t.Run(name, func(t *testing.T) {
			s := New(Config{Workers: 1})
			defer s.Close()
			if _, err := s.RestoreBytes(data); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := s.arenas.records(); got != 0 {
				t.Errorf("kept %d corrupt records, want 0", got)
			}
			reply, err := s.Schedule(context.Background(), &ScheduleRequest{Problem: paperex.Problem()})
			if err != nil {
				t.Fatal(err)
			}
			if reply.Cached {
				t.Fatal("request hit the response cache; the test needs a compute")
			}
			if got, _ := json.Marshal(reply.ScheduleResponse); !bytes.Equal(got, wantJSON) {
				t.Errorf("reply differs from a fresh service's:\n%s\n%s", got, wantJSON)
			}
			if got := s.planner.warmStarts.Value(); got != 0 {
				t.Errorf("warm starts = %d, want 0", got)
			}
		})
	}
}

// TestRestoreSnapshotWithStepColumns: testdata/snapshot_v3_step_columns.json
// is a version 3 snapshot written before records lost their per-step
// columns (step_places, mask_after, masked). Restoring it ignores those
// fields, and each of its records still replays in full: one warm start,
// every decision replayed, and the schedule a cold run builds.
func TestRestoreSnapshotWithStepColumns(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "snapshot_v3_step_columns.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap cacheSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 || len(snap.Records) != 2 {
		t.Fatalf("fixture is version %d with %d records, want 3 and 2", snap.Version, len(snap.Records))
	}
	for _, rec := range snap.Records {
		// Different Include flags from the fixture's entries: a response
		// cache miss, so the scheduler runs from the restored record.
		req := &ScheduleRequest{Problem: rec.Problem, Include: Include{Stats: true}}
		cold := New(Config{Workers: 1, ArenaSize: -1})
		want, err := cold.Schedule(context.Background(), req)
		cold.Close()
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 1})
		if _, err := s.RestoreBytes(data); err != nil {
			t.Fatal(err)
		}
		reply, err := s.Schedule(context.Background(), req)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := rec.Problem.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Cached {
			t.Fatal("request hit the response cache; the test needs a compute")
		}
		if got := s.planner.warmStarts.Value(); got != 1 {
			t.Errorf("%s: warm starts = %d, want 1", rec.Key, got)
		}
		if got := s.planner.replayedDecns.Value(); got != uint64(tasks.NumTasks()) {
			t.Errorf("%s: replayed %d decisions, want %d", rec.Key, got, tasks.NumTasks())
		}
		if !bytes.Equal(reply.Schedule, want.Schedule) || reply.Steps != want.Steps {
			t.Errorf("%s: replayed schedule differs from a cold run's", rec.Key)
		}
	}
}
