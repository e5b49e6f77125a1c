package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ftbar"
)

// TestServeScheduleShutdown boots the real server on an ephemeral port,
// schedules the paper example over HTTP, reads the stats, and shuts down.
func TestServeScheduleShutdown(t *testing.T) {
	announced := make(chan net.Addr, 1)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var logs strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &logs, announced, stop)
	}()
	addr := <-announced
	base := fmt.Sprintf("http://%s", addr)

	body, err := json.Marshal(map[string]any{"problem": ftbar.PaperExample()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule status %d", resp.StatusCode)
	}
	var reply struct {
		Length   float64 `json:"length"`
		MeetsRtc bool    `json:"meets_rtc"`
		Schedule struct {
			Replicas []json.RawMessage `json:"replicas"`
		} `json:"schedule"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if !reply.MeetsRtc || len(reply.Schedule.Replicas) == 0 {
		t.Errorf("implausible reply: %+v", reply)
	}

	stats, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if stats.StatusCode != http.StatusOK {
		t.Errorf("stats status %d", stats.StatusCode)
	}

	metrics, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if metrics.StatusCode != http.StatusOK {
		t.Errorf("metrics status %d", metrics.StatusCode)
	}
	if !strings.Contains(string(mb), "ftbar_service_requests_total 1") {
		t.Errorf("exposition missing request counter:\n%s", mb)
	}

	// pprof is off by default.
	pp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}

	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"listening", "shutting down"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log missing %q: %s", want, logs.String())
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-log-level", "shouting"},
		{"-log-format", "xml"},
		{"-report-file", "x.json"}, // needs -report-every
	} {
		if err := run(args, io.Discard, nil, nil); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestLogFlags checks the slog wiring: JSON format emits parseable lines
// and a raised level suppresses the info-level startup log.
func TestLogFlags(t *testing.T) {
	boot := func(extra ...string) string {
		announced := make(chan net.Addr, 1)
		stop := make(chan os.Signal, 1)
		done := make(chan error, 1)
		var logs strings.Builder
		go func() {
			done <- run(append([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, extra...),
				&logs, announced, stop)
		}()
		<-announced
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Fatalf("run %v: %v", extra, err)
		}
		return logs.String()
	}

	jsonLogs := boot("-log-format", "json")
	for _, line := range strings.Split(strings.TrimSpace(jsonLogs), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q (%v)", line, err)
		}
		if rec["msg"] == "" || rec["level"] == "" {
			t.Errorf("JSON log line missing msg/level: %q", line)
		}
	}
	if !strings.Contains(jsonLogs, `"msg":"listening"`) {
		t.Errorf("JSON logs missing startup line: %s", jsonLogs)
	}

	if quiet := boot("-log-level", "error"); strings.Contains(quiet, "listening") {
		t.Errorf("error level still logged startup info: %s", quiet)
	}
}

// TestPprofFlag mounts the profiler and fetches an index page.
func TestPprofFlag(t *testing.T) {
	announced := make(chan net.Addr, 1)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-pprof"},
			io.Discard, announced, stop)
	}()
	addr := <-announced
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index status %d body %.80s", resp.StatusCode, body)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// lockedWriter serialises writers that share one log stream: the logger
// and the console reporter write from different goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestReportFlags drives the periodic reporters: console summaries land
// in the log stream and the JSON snapshot file appears.
func TestReportFlags(t *testing.T) {
	reportFile := t.TempDir() + "/metrics.json"
	announced := make(chan net.Addr, 1)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var logs strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1",
			"-report-every", "10ms", "-report-file", reportFile}, &lockedWriter{w: &logs}, announced, stop)
	}()
	addr := <-announced
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(reportFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("report file never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("report file is not JSON: %v", err)
	}
	if !strings.Contains(logs.String(), "ftbar_service_requests_total") {
		t.Errorf("console report missing from log stream: %s", logs.String())
	}
}

// TestCacheFileRestart boots the server with -cache-file, schedules the
// paper example, shuts down (snapshotting the cache), boots a second
// server on the same file and checks the same request is served from the
// restored cache without a scheduler run.
func TestCacheFileRestart(t *testing.T) {
	cacheFile := t.TempDir() + "/cache.json"
	body, err := json.Marshal(map[string]any{"problem": ftbar.PaperExample()})
	if err != nil {
		t.Fatal(err)
	}

	boot := func() (string, chan os.Signal, chan error, *strings.Builder) {
		announced := make(chan net.Addr, 1)
		stop := make(chan os.Signal, 1)
		done := make(chan error, 1)
		var logs strings.Builder
		go func() {
			done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-cache-file", cacheFile},
				&logs, announced, stop)
		}()
		addr := <-announced
		return fmt.Sprintf("http://%s", addr), stop, done, &logs
	}
	post := func(base string) (cached bool) {
		t.Helper()
		resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule status %d", resp.StatusCode)
		}
		var reply struct {
			Cached bool `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply.Cached
	}

	base, stop, done, _ := boot()
	if post(base) {
		t.Error("first request on a cold cache reported cached")
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}

	base, stop, done, logs := boot()
	if !post(base) {
		t.Error("request after restart not served from the persisted cache")
	}
	stats, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		SchedulerRuns uint64 `json:"scheduler_runs"`
	}
	if err := json.NewDecoder(stats.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	stats.Body.Close()
	if st.SchedulerRuns != 0 {
		t.Errorf("restarted server ran the scheduler %d times", st.SchedulerRuns)
	}
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("second run: %v", err)
	}
	if got := logs.String(); !strings.Contains(got, "restored cached schedules") || !strings.Contains(got, "count=1") {
		t.Errorf("log missing restore line: %s", got)
	}
}

// TestCorruptCacheFileStartsCold pins that a bad snapshot never wedges
// startup: the server logs, starts with a cold cache, and overwrites the
// file on shutdown.
func TestCorruptCacheFileStartsCold(t *testing.T) {
	cacheFile := t.TempDir() + "/cache.json"
	if err := os.WriteFile(cacheFile, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	announced := make(chan net.Addr, 1)
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	var logs strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-cache-file", cacheFile}, &logs, announced, stop)
	}()
	<-announced
	stop <- os.Interrupt
	if err := <-done; err != nil {
		t.Fatalf("corrupt cache file failed startup: %v", err)
	}
	if !strings.Contains(logs.String(), "ignoring cache file") {
		t.Errorf("log missing cold-start warning: %s", logs.String())
	}
}
