// Package wire is the versioned API surface of the scheduling service:
// the request/response documents shared by the REST/JSON edge and the
// internal master/worker RPC, and the typed error vocabulary both speak
// (DESIGN.md Section 16).
//
// The package sits below internal/service and internal/cluster: both
// import it, it imports neither. Three contracts live here:
//
//   - Documents. ScheduleRequest, ScheduleResponse and the batch/sweep
//     composites are the JSON bodies of the edge API. Their field names
//     are frozen — internal/service re-exports them as type aliases, so
//     the HTTP surface is byte-identical to the pre-cluster service
//     (pinned by internal/service's golden tests).
//   - Errors. Error carries a machine-readable Code plus fields instead
//     of a stringly error; codes map deterministically onto HTTP
//     statuses at the edge (HTTPStatus) and travel unchanged through
//     the internal RPC, so a worker's backpressure rejection surfaces
//     at the edge as the same 429 a standalone service produces.
//   - Version. The internal RPC (internal/cluster) frames these same
//     documents as JSON; Version gates the master/worker handshake.
package wire

// Version is the internal wire-protocol version. Masters and workers
// exchange it during the transport handshake, in health probes and on
// every schedule job; a mismatch refuses the connection with
// CodeVersionMismatch rather than mis-decoding frames. Bump on any
// incompatible change to the RPC envelopes or the framing. Version 2
// replaced the protobuf envelopes of version 1 with JSON documents.
const Version = 2
