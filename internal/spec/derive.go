package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/model"
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
// contract between Derive and a cross-run reuse layer: Kind (plus the
// mutated Proc/Medium) tells the consumer which cached state survives the
// mutation, and ParentKey is the parent's content address, so a cache can
// find the parent's artefacts without holding the parent itself.
type Delta struct {
	Kind      MutationKind  `json:"kind"`
	Proc      arch.ProcID   `json:"proc,omitempty"`
	Medium    arch.MediumID `json:"medium,omitempty"`
	ParentKey string        `json:"parent_key"`
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
		d.Proc = m.Proc
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
		d.Medium = m.Medium
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
// which a reuse layer recovers from by diffing, never by misbehaving.
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
// diffing.
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

// Diff recognises whether child is one Derive step away from parent and
// returns the corresponding Delta. It is the recovery path for callers
// that did not build the child through Derive (a service receiving two
// wire requests, say): when Diff succeeds, the child may be treated
// exactly as if Derive had produced it. The second result is false when
// the problems differ structurally or by more than one mutation.
func Diff(parent, child *Problem) (Delta, bool) {
	if parent == nil || child == nil || parent.Alg == nil || child.Alg == nil {
		return Delta{}, false
	}
	if parent.Exec == nil || child.Exec == nil || parent.Comm == nil || child.Comm == nil {
		return Delta{}, false
	}
	if parent.Exec.nOps != child.Exec.nOps || parent.Exec.nProcs != child.Exec.nProcs ||
		parent.Comm.nEdges != child.Comm.nEdges || parent.Comm.nMedia != child.Comm.nMedia {
		return Delta{}, false
	}
	if !sameStructure(parent, child) {
		return Delta{}, false
	}
	execEq := tablesEqual(parent.Exec.t, child.Exec.t)
	commEq := tablesEqual(parent.Comm.t, child.Comm.t)
	rtcEq := rtcEqual(parent.Rtc, child.Rtc)
	faultsEq := parent.FaultModel() == child.FaultModel()
	key, err := parent.ContentKey()
	if err != nil {
		return Delta{}, false
	}
	switch {
	case execEq && commEq && rtcEq && faultsEq:
		return Delta{Kind: MutIdentical, ParentKey: key}, true
	case execEq && commEq && faultsEq: // only Rtc differs
		return Delta{Kind: MutRtc, ParentKey: key}, true
	case execEq && commEq && rtcEq: // only the budget differs
		return Delta{Kind: MutFaults, ParentKey: key}, true
	case !execEq && commEq && rtcEq && faultsEq:
		if q, ok := crashedColumn(parent.Exec.t, child.Exec.t, parent.Exec.nProcs); ok {
			return Delta{Kind: MutCrashProc, Proc: arch.ProcID(q), ParentKey: key}, true
		}
	case execEq && !commEq && rtcEq && faultsEq:
		if m, ok := crashedColumn(parent.Comm.t, child.Comm.t, parent.Comm.nMedia); ok {
			return Delta{Kind: MutForbidMedium, Medium: arch.MediumID(m), ParentKey: key}, true
		}
	}
	return Delta{}, false
}

// sameStructure reports whether the two problems share an algorithm graph
// and architecture: pointer identity (the Derive guarantee) or, failing
// that, equal canonical JSON — two same-shaped but different DAGs must
// not be declared one mutation apart.
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

// crashedColumn reports whether child differs from parent exactly by one
// column being entirely Forbidden: every row r has child[r][q] = ∞ for a
// single q while all other entries match, and parent allowed q somewhere
// (otherwise the tables would be equal). Returns that column.
func crashedColumn(parent, child []float64, cols int) (int, bool) {
	q := -1
	for i := range parent {
		if parent[i] == child[i] {
			continue
		}
		c := i % cols
		// The only admissible difference is "became forbidden", all in
		// one column.
		if !isInf(child[i]) || (q >= 0 && c != q) {
			return 0, false
		}
		q = c
	}
	if q < 0 {
		return 0, false
	}
	// Every entry of column q must be forbidden in the child, including
	// the ones the parent already forbade.
	for r := 0; r*cols+q < len(child); r++ {
		if !isInf(child[r*cols+q]) {
			return 0, false
		}
	}
	return q, true
}

func isInf(v float64) bool { return math.IsInf(v, 1) }

// rtcEqual compares two real-time constraint sets.
func rtcEqual(a, b Rtc) bool {
	if a.Deadline != b.Deadline || len(a.OpDeadlines) != len(b.OpDeadlines) {
		return false
	}
	for op, d := range a.OpDeadlines {
		if bd, ok := b.OpDeadlines[op]; !ok || bd != d {
			return false
		}
	}
	return true
}

// CompiledTasks returns the memoised task graph when the problem has been
// compiled, nil otherwise. Reuse layers use it to detect that two
// problems share a compiled structure without forcing compilation.
func (p *Problem) CompiledTasks() *model.TaskGraph {
	return p.tasks
}
