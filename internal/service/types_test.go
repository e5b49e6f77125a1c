package service

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ftbar/internal/paperex"
)

// roundTrip marshals v, unmarshals into fresh, and re-marshals, failing
// unless the two documents are byte-identical.
func roundTrip(t *testing.T, v, fresh any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	if err := json.Unmarshal(data, fresh); err != nil {
		t.Fatalf("unmarshal %T: %v", fresh, err)
	}
	again, err := json.Marshal(fresh)
	if err != nil {
		t.Fatalf("re-marshal %T: %v", fresh, err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("%T round trip not byte-identical:\n%s\n%s", v, data, again)
	}
}

// TestWireTypesRoundTrip pins the service contract: every request and
// response type survives JSON both ways, with realistic content produced
// by an actual service run (raw schedule documents, sweep reports, stats).
func TestWireTypesRoundTrip(t *testing.T) {
	req := &ScheduleRequest{
		Problem: paperex.Problem(),
		Options: RequestOptions{NoDuplication: true},
		Include: Include{Gantt: true, Stats: true, Sweep: true},
	}
	roundTrip(t, req, &ScheduleRequest{})

	s := New(Config{})
	defer s.Close()
	reply, err := s.Schedule(context.Background(), &ScheduleRequest{
		Problem: paperex.Problem(), Include: Include{Gantt: true, Stats: true, Sweep: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, reply, &ScheduleReply{})

	batch := s.Batch(context.Background(), &BatchRequest{Requests: []ScheduleRequest{
		{Problem: paperex.Problem()},
	}})
	roundTrip(t, batch, &BatchResponse{})

	sweep, err := s.Sweep(context.Background(), &SweepRequest{
		Problem: paperex.Problem(), Npfs: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, sweep, &SweepResponse{})

	roundTrip(t, &SweepRequest{Problem: paperex.Problem(), Npfs: []int{0, 2}}, &SweepRequest{})
	roundTrip(t, &BatchRequest{Requests: []ScheduleRequest{{Problem: paperex.Problem()}}}, &BatchRequest{})

	st := s.Stats()
	roundTrip(t, &st, &Stats{})
}
