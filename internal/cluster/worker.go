package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"ftbar/internal/service"
	"ftbar/internal/wire"
)

// typed coerces an error into the RPC's structured form: an error that
// already carries a wire.Error keeps its code, anything else is
// classified as code with its text preserved (the same byte-compat
// contract as wire.Wrap).
func typed(code wire.Code, err error) *wire.Error {
	var we *wire.Error
	if errors.As(err, &we) {
		return we
	}
	return &wire.Error{Code: code, Message: err.Error()}
}

// Worker wraps one standalone service.Service as a cluster member: the
// same scheduler pool, content-addressed cache and warm-start arena
// pool, exposed over the versioned RPC instead of (or alongside) HTTP.
// The master routes each content address to exactly one worker, so this
// worker's cache and arenas hold one shard of the cluster's keyspace.
type Worker struct {
	id  string
	svc *service.Service
	srv *Server

	draining atomic.Bool
	inFlight atomic.Int64
}

// NewWorker wraps svc as cluster member id. The caller keeps ownership
// of svc (and closes it after the worker).
func NewWorker(id string, svc *service.Service) *Worker {
	return &Worker{id: id, svc: svc}
}

// Service returns the wrapped standalone service.
func (w *Worker) Service() *service.Service { return w.svc }

// ID returns the member ID.
func (w *Worker) ID() string { return w.id }

// Serve starts the RPC server on ln and returns immediately.
func (w *Worker) Serve(ln net.Listener) {
	w.srv = NewServer(ln, w.handle)
}

// Addr returns the RPC listen address ("" before Serve).
func (w *Worker) Addr() string {
	if w.srv == nil {
		return ""
	}
	return w.srv.Addr()
}

// Close stops the RPC server. The wrapped service is the caller's to
// close.
func (w *Worker) Close() {
	if w.srv != nil {
		w.srv.Close()
	}
}

// handle dispatches one RPC (rpc.go lists the methods and their
// documents).
func (w *Worker) handle(method uint64, payload []byte) ([]byte, *wire.Error) {
	switch method {
	case methodSchedule:
		return w.handleSchedule(payload)
	case methodHealth:
		return w.handleHealth(payload)
	case methodStats:
		return encodeReply(w.svc.Stats())
	case methodDrain:
		return w.handleDrain(payload)
	case methodInstall:
		return w.handleInstall(payload)
	default:
		return nil, &wire.Error{Code: wire.CodeBadRequest,
			Message: fmt.Sprintf("cluster: unknown method %d", method)}
	}
}

func (w *Worker) handleSchedule(payload []byte) ([]byte, *wire.Error) {
	var job scheduleJob
	if err := decodeRequest(payload, &job); err != nil {
		return nil, err
	}
	if job.Version != wire.Version {
		return nil, wire.ErrVersionMismatch.WithField("job_version", fmt.Sprint(job.Version))
	}
	if w.draining.Load() {
		return nil, wire.ErrDraining.WithField("worker", w.id)
	}
	w.inFlight.Add(1)
	defer w.inFlight.Add(-1)
	var reply *wire.ScheduleReply
	var err error
	if job.Wait {
		reply, err = w.svc.Schedule(context.Background(), &job.Request)
	} else {
		reply, err = w.svc.TrySchedule(context.Background(), &job.Request)
	}
	if err != nil {
		return nil, typed(wire.CodeOf(err), err)
	}
	return encodeReply(reply)
}

func (w *Worker) handleHealth(payload []byte) ([]byte, *wire.Error) {
	var req probe
	if err := decodeRequest(payload, &req); err != nil {
		return nil, err
	}
	if req.Version != wire.Version {
		return nil, wire.ErrVersionMismatch.WithField("probe_version", fmt.Sprint(req.Version))
	}
	status := "up"
	if w.draining.Load() {
		status = "draining"
	}
	return encodeReply(probe{Status: status})
}

// drainSettle bounds how long a drain waits for in-flight schedules to
// complete before snapshotting anyway; the snapshot stays consistent
// either way (late completions just miss the handoff).
const drainSettle = 10 * time.Second

func (w *Worker) handleDrain(payload []byte) ([]byte, *wire.Error) {
	var req handoff
	if err := decodeRequest(payload, &req); err != nil {
		return nil, err
	}
	// Flip to draining first: new Schedule RPCs bounce with DRAINING and
	// the master reroutes them, then wait out the in-flight tail.
	w.draining.Store(true)
	deadline := time.Now().Add(drainSettle)
	for w.inFlight.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	reply := handoff{Entries: w.svc.Stats().CacheEntries}
	if req.Handoff {
		snap, err := w.svc.SnapshotBytes()
		if err != nil {
			return nil, typed(wire.CodeInternal, err)
		}
		reply.Snapshot = snap
	}
	return encodeReply(reply)
}

func (w *Worker) handleInstall(payload []byte) ([]byte, *wire.Error) {
	n, err := w.svc.RestoreBytes(payload)
	if err != nil {
		return nil, typed(wire.CodeBadRequest, err)
	}
	return encodeReply(handoff{Entries: n})
}
