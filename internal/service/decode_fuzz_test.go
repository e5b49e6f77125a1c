package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"ftbar/internal/gen"
	"ftbar/internal/paperex"
	"ftbar/internal/wire"
)

// FuzzScheduleRequestDecode sends any body through decodeBody as
// POST /v1/schedule does. Decoding never panics; a refused body answers
// 400 or 413 with the BAD_REQUEST code; and an accepted request either
// has no cache key, refused as wire.ErrBadRequest, or keys exactly as its
// re-encoded form does. Run it with
//
//	go test ./internal/service -run '^$' -fuzz FuzzScheduleRequestDecode -fuzztime 10s -fuzzminimizetime 50x
func FuzzScheduleRequestDecode(f *testing.F) {
	generated, err := gen.Generate(gen.Params{N: 8, CCR: 2, Procs: 4, Topology: gen.TopoRing, Npf: 1, Nmf: 1, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	for _, req := range []ScheduleRequest{
		{Problem: paperex.Problem()},
		{Problem: generated, Options: wire.RequestOptions{NoDuplication: true}, Include: wire.Include{Gantt: true, Sweep: true}},
	} {
		body, err := json.Marshal(&req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(append(body, body...))
		f.Add(body[:len(body)/2])
	}
	for _, body := range []string{``, `{}`, `[]`, `null`, `{"problem":null}`, `{"problem":{}}`, `{"problem":`,
		`{"problem":{"algorithm":{"ops":[],"edges":[]},"architecture":{"procs":["P"],"media":[]},"exec":[],"comm":[]}}`,
		`{"problem":{},"problem":{}}`, `{"options":{"no_duplication":"yes"}}`, `{"include":{"stats":true}} trailing`} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, ok := decodeScheduleRequest(t, body)
		if !ok {
			return
		}
		key, err := req.CacheKey()
		if err != nil {
			if !errors.Is(err, wire.ErrBadRequest) {
				t.Fatalf("cache key error %v is not a bad request", err)
			}
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("a keyed request does not encode: %v", err)
		}
		back, ok := decodeScheduleRequest(t, again)
		if !ok {
			t.Fatalf("re-encoded request refused:\n%s", again)
		}
		if backKey, err := back.CacheKey(); err != nil || backKey != key {
			t.Fatalf("re-encoded request keys %q (%v), want %q:\n%s", backKey, err, key, again)
		}
	})
}

// decodeScheduleRequest decodes body as the /v1/schedule handler does and
// checks a refusal's edge status and error code.
func decodeScheduleRequest(t *testing.T, body []byte) (*ScheduleRequest, bool) {
	t.Helper()
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body))
	var req ScheduleRequest
	if decodeBody(w, r, &req) {
		return &req, true
	}
	if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("refused body answered %d, want 400 or 413", w.Code)
	}
	if code := w.Header().Get(errorCodeHeader); code != string(wire.CodeBadRequest) {
		t.Fatalf("refused body carries code %q, want %q", code, wire.CodeBadRequest)
	}
	return nil, false
}
