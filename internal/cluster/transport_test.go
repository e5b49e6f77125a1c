package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"

	"ftbar/internal/paperex"
	"ftbar/internal/service"
	"ftbar/internal/wire"
)

// frameBytes encodes one frame the way the transport writes it.
func frameBytes(head uint64, payload []byte) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, head, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func handshakeBytes() []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeHandshake(bw); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fakeWorker completes the handshake on every connection and answers
// each request frame with the fixed (status, payload) reply.
func fakeWorker(t *testing.T, status uint64, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
				if _, err := readHandshake(br); err != nil || writeHandshake(bw) != nil {
					return
				}
				for {
					if _, _, err := readFrame(br); err != nil {
						return
					}
					if writeFrame(bw, status, reply) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestGarbledScheduleKeepsConnection: an undecodable Schedule payload is
// the caller's fault (BAD_REQUEST), and the connection that carried it
// goes back to the pool and serves the next call.
func TestGarbledScheduleKeepsConnection(t *testing.T) {
	tc := startCluster(t, 1, MasterConfig{}, oneWorker)
	client := NewClient(tc.workers[0].Addr())
	defer client.Close()
	ctx := context.Background()
	_, err := client.Call(ctx, methodSchedule, []byte(`{"version":2,"request":{"problem":`))
	if !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("garbled job: %v, want BAD_REQUEST", err)
	}
	if n := len(client.idle); n != 1 {
		t.Fatalf("%d idle connections after an application error, want 1", n)
	}
	reply, err := client.Call(ctx, methodHealth, mustJSON(t, probe{Version: wire.Version}))
	if err != nil {
		t.Fatalf("call after a garbled job: %v", err)
	}
	var hr probe
	if err := json.Unmarshal(reply, &hr); err != nil || hr.Status != "up" {
		t.Errorf("health reply %q (%v), want status up", reply, err)
	}
	if n := len(client.idle); n != 1 {
		t.Errorf("%d idle connections after the follow-up call, want the one reused", n)
	}
}

// TestUnknownMethodBadRequest: a method number outside 1-5 is refused
// typed, not dropped.
func TestUnknownMethodBadRequest(t *testing.T) {
	tc := startCluster(t, 1, MasterConfig{}, oneWorker)
	client := NewClient(tc.workers[0].Addr())
	defer client.Close()
	_, err := client.Call(context.Background(), 99, nil)
	if !errors.Is(err, wire.ErrBadRequest) {
		t.Errorf("unknown method: %v, want BAD_REQUEST", err)
	}
}

// TestCodelessErrorFrameIsInternal: an error frame without a code still
// surfaces as a typed error, classified INTERNAL, with its message.
func TestCodelessErrorFrameIsInternal(t *testing.T) {
	client := NewClient(fakeWorker(t, statusErr, []byte(`{"message":"boom"}`)))
	defer client.Close()
	_, err := client.Call(context.Background(), methodStats, nil)
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("code-less error frame: %v (%T), want a *wire.Error", err, err)
	}
	if we.Code != wire.CodeInternal || we.Message != "boom" {
		t.Errorf("decoded %+v, want INTERNAL \"boom\"", we)
	}
}

// TestUndecodableErrorFrameIsTransportError: an error frame that is not
// a wire.Error document is a transport failure (the master's reroute
// signal), never a typed verdict.
func TestUndecodableErrorFrameIsTransportError(t *testing.T) {
	client := NewClient(fakeWorker(t, statusErr, []byte("\x0a\x04oops")))
	defer client.Close()
	_, err := client.Call(context.Background(), methodStats, nil)
	if err == nil {
		t.Fatal("undecodable error frame returned no error")
	}
	var we *wire.Error
	if errors.As(err, &we) {
		t.Errorf("undecodable error frame decoded as typed %+v", we)
	}
}

// TestFramePayloadRoundTrip covers the growing read path: payloads below,
// at and well above payloadChunk come back intact, and a payload cut
// short by one byte is an error, not a shorter frame.
func TestFramePayloadRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, payloadChunk, payloadChunk + 1, 5*payloadChunk + 7} {
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 7)
		}
		data := frameBytes(methodInstall, payload)
		head, got, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil || head != methodInstall || !bytes.Equal(got, payload) {
			t.Fatalf("size %d: head %d, %d bytes, err %v", size, head, len(got), err)
		}
		if size == 0 {
			continue
		}
		_, _, err = readFrame(bufio.NewReader(bytes.NewReader(data[:len(data)-1])))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("size %d truncated by one byte: %v, want ErrUnexpectedEOF", size, err)
		}
	}
}

// TestHugeFrameHeaderAllocatesLittle: a peer that declares a 200 MB frame
// and hangs up must not make the reader allocate the declared size.
func TestHugeFrameHeaderAllocatesLittle(t *testing.T) {
	hdr := binary.AppendUvarint(nil, methodSchedule)
	hdr = binary.AppendUvarint(hdr, 200_000_000)
	r := bufio.NewReader(bytes.NewReader(hdr))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(r)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 200 MB frame decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("reading a bare 200 MB header allocated %d bytes, want < 1 MiB", grew)
	}
}

// FuzzFrameDecode pushes arbitrary bytes through the handshake and frame
// readers and every RPC envelope decoder: hostile input must produce
// errors, never panics or unbounded allocations.
func FuzzFrameDecode(f *testing.F) {
	snapshot := []byte(`{"version":3,"entries":[]}`)
	seeds := [][]byte{
		frameBytes(methodSchedule, mustJSON(f, scheduleJob{Version: wire.Version, Wait: true,
			Request: wire.ScheduleRequest{Problem: paperex.Problem()}})),
		frameBytes(methodHealth, mustJSON(f, probe{Version: wire.Version})),
		frameBytes(methodStats, nil),
		frameBytes(methodDrain, mustJSON(f, handoff{Handoff: true})),
		frameBytes(methodInstall, snapshot),
		frameBytes(statusErr, mustJSON(f, wire.ErrOverloaded.WithField("worker", "w1"))),
		frameBytes(statusOK, mustJSON(f, handoff{Entries: 3, Snapshot: snapshot})),
	}
	for _, s := range seeds {
		f.Add(append(handshakeBytes(), s...))
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		if _, err := readHandshake(r); err != nil {
			r = bufio.NewReader(bytes.NewReader(data))
		}
		for {
			_, payload, err := readFrame(r)
			if err != nil {
				return
			}
			decodeEnvelopes(t, payload)
		}
	})
}

// decodeEnvelopes runs one payload through every request and reply
// decoder and checks the invariants their callers rely on.
func decodeEnvelopes(t *testing.T, payload []byte) {
	decodeRequest(payload, new(scheduleJob))
	decodeRequest(payload, new(probe))
	decodeRequest(payload, new(handoff))
	decodeReply(payload, new(probe))
	decodeReply(payload, new(service.Stats))
	decodeReply(payload, new(handoff))
	if reply, err := decodeScheduleReply(payload); err == nil && reply.ScheduleResponse == nil {
		t.Fatal("schedule reply decoded without a response")
	}
	if we, err := decodeError(payload); err == nil && we.Code == "" {
		t.Fatal("error frame decoded without a code")
	}
}
