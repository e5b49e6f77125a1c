package cluster

import (
	"encoding/json"

	"ftbar/internal/wire"
)

// The worker RPC. Every payload is a JSON document; the request frame's
// head is the method number, fixed since wire version 1:
//
//	method      request payload                 reply payload
//	1 Schedule  scheduleJob                     wire.ScheduleReply
//	2 Health    probe{version}                  probe{status}
//	3 Stats     empty                           service.Stats
//	4 Drain     handoff{handoff}                handoff{entries, snapshot}
//	5 Install   the snapshot document itself    handoff{entries}
//
// The documents are the ones the edge already serves and persists, so the
// RPC adds no encoding of its own: the master marshals the request once,
// the worker marshals the reply once.
const (
	methodSchedule uint64 = iota + 1
	methodHealth
	methodStats
	methodDrain
	methodInstall
)

// scheduleJob routes one scheduling computation to the worker owning the
// request's content address. Version repeats the handshake's check per
// job, so a proxy between master and worker cannot smuggle version skew.
type scheduleJob struct {
	Version uint64               `json:"version"`
	Wait    bool                 `json:"wait"`
	Request wire.ScheduleRequest `json:"request"`
}

// probe is the Health exchange: the master's request carries its wire
// version, so a worker refuses a skewed master before any job is routed
// to it; the worker's reply carries its status ("up" or "draining").
type probe struct {
	Version uint64 `json:"version,omitempty"`
	Status  string `json:"status,omitempty"`
}

// handoff is the Drain exchange and the Install reply. The Drain request
// sets Handoff to ask for the worker's cache shard; the reply counts the
// shard's entries and, with handoff, carries the snapshot document
// verbatim (service.SnapshotBytes is already JSON). The Install reply
// counts the entries the ring successor absorbed.
type handoff struct {
	Handoff  bool            `json:"handoff,omitempty"`
	Entries  int             `json:"entries,omitempty"`
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
}

// decodeRequest unmarshals a request payload, classifying a malformed
// document as the caller's fault.
func decodeRequest(payload []byte, v any) *wire.Error {
	if err := json.Unmarshal(payload, v); err != nil {
		return typed(wire.CodeBadRequest, err)
	}
	return nil
}

// encodeReply marshals a reply document.
func encodeReply(v any) ([]byte, *wire.Error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, typed(wire.CodeInternal, err)
	}
	return data, nil
}

// decodeReply unmarshals a worker's reply; a reply the master cannot read
// is an internal fault, not the caller's.
func decodeReply(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return wire.Wrap(wire.CodeInternal, err)
	}
	return nil
}

// decodeScheduleReply decodes the Schedule reply; a document without a
// response is as unreadable as a malformed one.
func decodeScheduleReply(payload []byte) (*wire.ScheduleReply, error) {
	reply := new(wire.ScheduleReply)
	if err := decodeReply(payload, reply); err != nil {
		return nil, err
	}
	if reply.ScheduleResponse == nil {
		return nil, &wire.Error{Code: wire.CodeInternal, Message: "cluster: schedule reply without a response"}
	}
	return reply, nil
}

// decodeError rebuilds the typed error of a status-1 reply. The result
// satisfies errors.Is against the sentinel of the same code, so a
// worker's rejection classifies identically on the master; a code-less
// error degrades to CodeInternal rather than losing the error.
func decodeError(payload []byte) (*wire.Error, error) {
	e := new(wire.Error)
	if err := json.Unmarshal(payload, e); err != nil {
		return nil, err
	}
	if e.Code == "" {
		e.Code = wire.CodeInternal
	}
	return e, nil
}
