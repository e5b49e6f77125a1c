package wire

import (
	"ftbar/internal/paperex"
	"ftbar/internal/spec"

	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenRoundTrips decodes every committed golden response body
// (captured from the pre-extraction service) into the moved wire structs
// and re-encodes it: byte equality proves the move kept every JSON field
// name, order and omitempty decision intact.
func TestGoldenRoundTrips(t *testing.T) {
	dir := filepath.Join("..", "service", "testdata", "golden")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("golden corpus missing: %v", err)
	}
	if len(files) < 10 {
		t.Fatalf("suspiciously small golden corpus: %d files", len(files))
	}
	for _, f := range files {
		t.Run(f.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			var into any
			switch {
			case f.Name() == "batch_seeds.json":
				into = new(BatchResponse)
			case f.Name() == "sweep_paper.json":
				into = new(SweepResponse)
			default:
				into = new(ScheduleReply)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			if err := dec.Decode(into); err != nil {
				t.Fatalf("decode into %T: %v", into, err)
			}
			var out bytes.Buffer
			enc := json.NewEncoder(&out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(into); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Errorf("round trip through %T drifted from golden\ngot:  %.300s\nwant: %.300s",
					into, out.Bytes(), data)
			}
		})
	}
}

// TestCacheKeyStability pins the content-address semantics the cluster
// routes on: equal problems share a key whatever the decoded object
// identity, include flags alter the key (a response is cached with
// exactly its artefacts), and a missing problem fails as BAD_REQUEST.
func TestCacheKeyStability(t *testing.T) {
	if _, err := (&ScheduleRequest{}).CacheKey(); CodeOf(err) != CodeBadRequest {
		t.Errorf("missing problem: CodeOf = %s, want BAD_REQUEST", CodeOf(err))
	}
	a := ScheduleRequest{Problem: paperex.Problem()}
	b := ScheduleRequest{Problem: paperex.Problem()}
	ka, err := a.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Error("identical problems in distinct objects got different keys")
	}
	b.Include.Gantt = true
	if kb3, _ := b.CacheKey(); kb3 == ka {
		t.Error("include flags did not change the key")
	}
}

// TestRetiredPreviewWorkersIgnored pins request compatibility across the
// removal of the planner's preview pool: a body that still carries the
// retired "preview_workers" option decodes to the same request, and keys
// to the same cache entry, as the body without it.
func TestRetiredPreviewWorkersIgnored(t *testing.T) {
	problem, err := json.Marshal(paperex.Problem())
	if err != nil {
		t.Fatal(err)
	}
	decode := func(options string) (ScheduleRequest, string) {
		t.Helper()
		body := `{"problem":` + string(problem) + `,"options":` + options + `,"include":{"stats":true}}`
		var req ScheduleRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("decode options %s: %v", options, err)
		}
		key, err := req.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return req, key
	}
	for _, opts := range [][2]string{
		{`{"preview_workers":3}`, `{}`},
		{`{"no_duplication":true,"preview_workers":3}`, `{"no_duplication":true}`},
	} {
		old, oldKey := decode(opts[0])
		cur, curKey := decode(opts[1])
		if old.Options != cur.Options || old.Include != cur.Include {
			t.Errorf("%s decoded to %+v, want %+v", opts[0], old.Options, cur.Options)
		}
		if oldKey != curKey {
			t.Errorf("%s keys to %s, want %s as without the field", opts[0], oldKey, curKey)
		}
	}
}

// TestCacheKeyMalformedProblem pins that an in-process problem whose
// encoding is refused — a nil table, or tables built before a processor
// was added — fails as BAD_REQUEST instead of panicking.
func TestCacheKeyMalformedProblem(t *testing.T) {
	nilComm := paperex.Problem()
	nilComm.Comm = nil
	grown := paperex.Problem()
	grown.Arc.MustAddProcessor("late")
	for name, p := range map[string]*spec.Problem{"nil comm": nilComm, "late processor": grown} {
		_, err := (&ScheduleRequest{Problem: p}).CacheKey()
		if CodeOf(err) != CodeBadRequest || !strings.Contains(err.Error(), spec.ErrShape.Error()) {
			t.Errorf("%s: CacheKey error %v (code %s), want BAD_REQUEST naming the shape error", name, err, CodeOf(err))
		}
	}
}

// TestCacheKeyFormatPinned pins the paper example's content address
// byte for byte. Persisted cache snapshots and drain handoffs key their
// entries on these exact bytes, so a change to the hashed format (the
// retained "engine=incremental" literal included) must fail here rather
// than silently orphan every saved entry.
func TestCacheKeyFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts RequestOptions
		want string
	}{
		{"default", RequestOptions{}, "d7de9ad43fae314d924de8de365e47775e67d932c51dcd19875d4bc1284a2291"},
		{"no_duplication", RequestOptions{NoDuplication: true}, "ccc2475a417bc1d7c4bf4193fb89e3d511cb7721db542ceddc59ee4b690f7096"},
	} {
		r := ScheduleRequest{Problem: paperex.Problem(), Options: tc.opts}
		got, err := r.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: CacheKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
