package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ftbar/internal/arch"
)

// MutationKind names the single-step mutations Derive understands. The
// catalogue is deliberately the sweep vocabulary — the ways sim, bench and
// the service actually perturb a problem between two solver runs — so a
// cross-run reuse layer can reason about exactly what changed instead of
// treating every derived problem as brand new.
type MutationKind int

const (
	// MutIdentical derives a problem equal to its parent (useful to share
	// the compiled task graph across repeated solves).
	MutIdentical MutationKind = iota
	// MutRtc replaces the real-time constraints. The decision procedure
	// never reads Rtc — it is checked post hoc — so this mutation is
	// invisible to the schedule itself.
	MutRtc
	// MutForbidMedium forbids one medium for every data-dependency, the
	// "this link failed, replan" scenario. The medium stays in the
	// architecture; only the communication table changes.
	MutForbidMedium
	// MutCrashProc forbids one processor for every operation, the "this
	// processor failed permanently, replan" scenario. The processor stays
	// in the architecture as a potential relay hop.
	MutCrashProc
	// MutFaults replaces the fault budget (Npf, Nmf).
	MutFaults
)

// String names the kind for logs and test failures.
func (k MutationKind) String() string {
	switch k {
	case MutIdentical:
		return "identical"
	case MutRtc:
		return "rtc"
	case MutForbidMedium:
		return "forbid-medium"
	case MutCrashProc:
		return "crash-proc"
	case MutFaults:
		return "faults"
	}
	return fmt.Sprintf("MutationKind(%d)", int(k))
}

// Mutation is one Derive step. Kind selects which of the remaining fields
// are read: Proc for MutCrashProc, Medium for MutForbidMedium, Faults for
// MutFaults, Rtc for MutRtc.
type Mutation struct {
	Kind   MutationKind
	Proc   arch.ProcID
	Medium arch.MediumID
	Faults FaultModel
	Rtc    Rtc
}

// Delta describes how a derived problem relates to its parent. It is the
// contract between Derive and a cross-run reuse layer: Kind tells the
// consumer which cached state survives the mutation, and ParentKey is the
// parent's content address, so a cache can find the parent's artefacts
// without holding the parent itself.
type Delta struct {
	Kind      MutationKind `json:"kind"`
	ParentKey string       `json:"parent_key"`
}

// Derive builds a child problem by applying one mutation to p, returning
// the child together with the Delta a reuse layer needs. The child shares
// the parent's algorithm graph, architecture and compiled task graph —
// Derive mutates tables, never structure — and shares the unmutated
// tables too, so deriving is O(mutated table), not O(problem). Callers
// must therefore treat problems as immutable after Derive, which the rest
// of the codebase already assumes.
//
// The child is validated before it is returned: a mutation can make a
// problem unsolvable (crashing a processor below Npf+1 allowed placements,
// forbidding the only medium of a dependency), and that is reported here
// rather than from deep inside a later Run.
func (p *Problem) Derive(m Mutation) (*Problem, Delta, error) {
	child := &Problem{
		Alg:    p.Alg,
		Arc:    p.Arc,
		Exec:   p.Exec,
		Comm:   p.Comm,
		Rtc:    cloneRtc(p.Rtc),
		Faults: p.Faults,
		Npf:    p.Npf,
		tasks:  p.tasks,
	}
	d := Delta{Kind: m.Kind}
	switch m.Kind {
	case MutIdentical:
		// Nothing to mutate; the child is the parent under a new identity.
	case MutRtc:
		if err := m.Rtc.Validate(p.Alg); err != nil {
			return nil, Delta{}, err
		}
		child.Rtc = cloneRtc(m.Rtc)
	case MutFaults:
		child.SetFaults(m.Faults)
		// The budget interacts with the tables: every op still needs
		// Npf+1 placements, and Nmf > 0 demands media diversity.
		fm := child.FaultModel()
		if err := fm.Validate(); err != nil {
			return nil, Delta{}, err
		}
		for _, op := range child.Alg.Ops() {
			if allowed := child.Exec.AllowedProcs(op.ID); len(allowed) < fm.Replicas() {
				return nil, Delta{}, fmt.Errorf("%w: %q runs on %d processors, Npf+1 = %d",
					ErrTooFewprocs, op.Name, len(allowed), fm.Replicas())
			}
		}
		if err := child.validateMediaDiversity(fm); err != nil {
			return nil, Delta{}, err
		}
	case MutCrashProc:
		if int(m.Proc) < 0 || int(m.Proc) >= p.Arc.NumProcs() {
			return nil, Delta{}, fmt.Errorf("%w: crash proc %d of %d", ErrShape, m.Proc, p.Arc.NumProcs())
		}
		ex := p.Exec.Clone()
		for op := 0; op < ex.nOps; op++ {
			ex.t[op*ex.nProcs+int(m.Proc)] = Forbidden
		}
		child.Exec = ex
		if err := child.Validate(); err != nil {
			return nil, Delta{}, err
		}
	case MutForbidMedium:
		if int(m.Medium) < 0 || int(m.Medium) >= p.Arc.NumMedia() {
			return nil, Delta{}, fmt.Errorf("%w: forbid medium %d of %d", ErrShape, m.Medium, p.Arc.NumMedia())
		}
		cm := p.Comm.Clone()
		for e := 0; e < cm.nEdges; e++ {
			cm.t[e*cm.nMedia+int(m.Medium)] = Forbidden
		}
		child.Comm = cm
		if err := child.Validate(); err != nil {
			return nil, Delta{}, err
		}
	default:
		return nil, Delta{}, fmt.Errorf("spec: unknown mutation kind %d", int(m.Kind))
	}
	key, err := p.ContentKey()
	if err != nil {
		return nil, Delta{}, err
	}
	d.ParentKey = key
	child.ckey = derivedKey(key, m)
	return child, d, nil
}

// derivedKey computes a Derive child's content key structurally: the
// parent's key plus the mutation pins the child's content exactly
// (Derive is deterministic in both), so hashing the child — which for a
// dense problem costs about as much as solving it — is never needed. An
// identical child keeps the parent's key outright; the other kinds get
// keys in a disjoint "+"-suffixed namespace. The cost of the shortcut
// is only missed sharing: a content-equal problem built another way
// (two mutation orders, a wire round-trip) hashes to a different key,
// which a reuse layer recovers from by comparing problems
// (SameExceptRtc), never by misbehaving.
func derivedKey(parent string, m Mutation) string {
	switch m.Kind {
	case MutIdentical:
		return parent
	case MutCrashProc:
		return fmt.Sprintf("%s+crash:%d", parent, m.Proc)
	case MutForbidMedium:
		return fmt.Sprintf("%s+nomedium:%d", parent, m.Medium)
	case MutFaults:
		return fmt.Sprintf("%s+faults:%d,%d", parent, m.Faults.Npf, m.Faults.Nmf)
	case MutRtc:
		// The new constraint is the only novel content; fingerprint it.
		// json.Marshal sorts the per-operation map, so the encoding is
		// canonical.
		b, err := json.Marshal(m.Rtc)
		if err != nil {
			return "" // unhashable: leave the key to lazy ContentKey
		}
		sum := sha256.Sum256(b)
		return fmt.Sprintf("%s+rtc:%s", parent, hex.EncodeToString(sum[:8]))
	}
	return ""
}

// ContentKey returns the content address of the problem: a SHA-256 over
// its canonical JSON encoding, or — for a Derive-built child — the
// parent's address extended with the mutation (see derivedKey), which
// identifies the same content without the marshal. Equal content hashed
// through the same path yields equal keys, the property the service
// cache relies on; across paths (a derived child versus its wire
// round-trip) keys may differ, and reuse layers fall back to structural
// comparison.
// Like the compiled task graph, the key is memoised on first use under
// the package convention that a problem is immutable once it starts
// being scheduled; a caller that mutates tables afterwards keeps the
// stale key, exactly as it would keep the stale task graph.
func (p *Problem) ContentKey() (string, error) {
	if p.ckey != "" {
		return p.ckey, nil
	}
	b, err := p.MarshalJSON() // equals json.Marshal(p), minus a compaction pass
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	p.ckey = hex.EncodeToString(sum[:])
	return p.ckey, nil
}

// SameExceptRtc reports whether two problems are equal up to their
// real-time constraints: the same fault budget, bit-identical exec and
// comm tables, and the same algorithm graph and architecture. The
// decision procedure never reads Rtc — it is checked against the
// finished schedule — so a run recorded for one replays whole onto the
// other. It is the recovery path for callers that did not build the
// problem through Derive (a service receiving two wire requests, say).
// The cheap comparisons run first, so unrelated problems of one shape
// rarely reach the structure marshal.
func SameExceptRtc(a, b *Problem) bool {
	if a == nil || b == nil || a.Alg == nil || b.Alg == nil {
		return false
	}
	if a.Exec == nil || b.Exec == nil || a.Comm == nil || b.Comm == nil {
		return false
	}
	if a.Exec.nOps != b.Exec.nOps || a.Exec.nProcs != b.Exec.nProcs ||
		a.Comm.nEdges != b.Comm.nEdges || a.Comm.nMedia != b.Comm.nMedia {
		return false
	}
	return a.FaultModel() == b.FaultModel() &&
		tablesEqual(a.Exec.t, b.Exec.t) && tablesEqual(a.Comm.t, b.Comm.t) &&
		sameStructure(a, b)
}

// sameStructure reports whether the two problems share an algorithm graph
// and architecture: pointer identity (the Derive guarantee) or, failing
// that, equal canonical JSON — two same-shaped but different DAGs must
// not be declared equal.
func sameStructure(a, b *Problem) bool {
	if a.Alg != b.Alg {
		ja, erra := json.Marshal(a.Alg)
		jb, errb := json.Marshal(b.Alg)
		if erra != nil || errb != nil || string(ja) != string(jb) {
			return false
		}
	}
	if a.Arc != b.Arc {
		ja, erra := json.Marshal(a.Arc)
		jb, errb := json.Marshal(b.Arc)
		if erra != nil || errb != nil || string(ja) != string(jb) {
			return false
		}
	}
	return true
}

// tablesEqual compares two flat time tables bit-for-bit (∞ entries
// included; NaN never reaches a stored table, Set rejects it).
func tablesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
