package spec

import (
	"encoding/json"
	"fmt"
	"math"

	"ftbar/internal/arch"
	"ftbar/internal/model"
)

// Differential oracles, kept verbatim from the code they replaced:
//
//   - the per-cell problem codec: encoding/json called once per cell on
//     the way out, and a [][]JSONTime document on the way in.
//     FuzzProblemCodec (codec_test.go) holds the production codec to it;
//   - the route-table reachability check of Validate.
//     TestReachabilityMatchesOracle (reach_test.go) holds the
//     connected-components check to it.

// oracleTime is JSONTime's encoder before the table codec: +Inf as "inf",
// everything else through json.Marshal(float64).
type oracleTime float64

func (t oracleTime) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(t), 1) {
		return []byte(`"inf"`), nil
	}
	return json.Marshal(float64(t))
}

// OracleMarshal is Problem.MarshalJSON before the table codec.
func OracleMarshal(p *Problem) ([]byte, error) {
	type oracleRtc struct {
		Deadline    oracleTime            `json:"deadline,omitempty"`
		OpDeadlines map[string]oracleTime `json:"op_deadlines,omitempty"`
	}
	var doc struct {
		Alg    *model.Graph       `json:"algorithm"`
		Arc    *arch.Architecture `json:"architecture"`
		Exec   [][]oracleTime     `json:"exec"`
		Comm   [][]oracleTime     `json:"comm"`
		Rtc    oracleRtc          `json:"rtc"`
		Npf    int                `json:"npf"`
		Faults *FaultModel        `json:"faults,omitempty"`
	}
	fm := p.FaultModel()
	doc.Alg, doc.Arc, doc.Npf = p.Alg, p.Arc, fm.Npf
	if fm.Nmf != 0 {
		doc.Faults = &fm
	}
	doc.Exec = make([][]oracleTime, p.Alg.NumOps())
	for op := range doc.Exec {
		row := make([]oracleTime, p.Arc.NumProcs())
		for proc := range row {
			row[proc] = oracleTime(p.Exec.Time(model.OpID(op), arch.ProcID(proc)))
		}
		doc.Exec[op] = row
	}
	doc.Comm = make([][]oracleTime, p.Alg.NumEdges())
	for e := range doc.Comm {
		row := make([]oracleTime, p.Arc.NumMedia())
		for m := range row {
			row[m] = oracleTime(p.Comm.Time(model.EdgeID(e), arch.MediumID(m)))
		}
		doc.Comm[e] = row
	}
	doc.Rtc.Deadline = oracleTime(p.Rtc.Deadline)
	if len(p.Rtc.OpDeadlines) > 0 {
		doc.Rtc.OpDeadlines = make(map[string]oracleTime, len(p.Rtc.OpDeadlines))
		for op, d := range p.Rtc.OpDeadlines {
			doc.Rtc.OpDeadlines[p.Alg.Op(op).Name] = oracleTime(d)
		}
	}
	return json.Marshal(doc)
}

// OracleUnmarshalTime is JSONTime.UnmarshalJSON before its fast path.
func OracleUnmarshalTime(data []byte) (float64, error) {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		if s == "inf" {
			return math.Inf(1), nil
		}
		return 0, fmt.Errorf("spec: bad time string %q (only \"inf\" is allowed)", s)
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("spec: bad time: %w", err)
	}
	return f, nil
}

// OracleUnmarshal is Problem.UnmarshalJSON before the table codec. Its
// cells decode through JSONTime, whose own fast path the fuzz target
// holds to OracleUnmarshalTime; the generic document's error texts name
// the JSONTime type, so the oracle must too.
func OracleUnmarshal(data []byte) (*Problem, error) {
	p := new(Problem)
	var doc struct {
		Alg    json.RawMessage `json:"algorithm"`
		Arc    json.RawMessage `json:"architecture"`
		Exec   [][]JSONTime    `json:"exec"`
		Comm   [][]JSONTime    `json:"comm"`
		Rtc    rtcJSON         `json:"rtc"`
		Npf    int             `json:"npf"`
		Faults *FaultModel     `json:"faults"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("spec: decode problem: %w", err)
	}
	g := model.NewGraph()
	if err := json.Unmarshal(doc.Alg, g); err != nil {
		return nil, err
	}
	a := arch.New()
	if err := json.Unmarshal(doc.Arc, a); err != nil {
		return nil, err
	}
	p.Alg, p.Arc = g, a
	if doc.Faults != nil {
		p.SetFaults(*doc.Faults)
	} else {
		p.SetFaults(FaultModel{Npf: doc.Npf})
	}
	p.Exec = NewExecTable(g, a)
	if len(doc.Exec) != g.NumOps() {
		return nil, fmt.Errorf("%w: exec rows %d, ops %d", ErrShape, len(doc.Exec), g.NumOps())
	}
	for op, row := range doc.Exec {
		if len(row) != a.NumProcs() {
			return nil, fmt.Errorf("%w: exec row %d has %d cols, procs %d", ErrShape, op, len(row), a.NumProcs())
		}
		for proc, v := range row {
			if math.IsInf(float64(v), 1) {
				continue
			}
			if err := p.Exec.Set(model.OpID(op), arch.ProcID(proc), float64(v)); err != nil {
				return nil, err
			}
		}
	}
	p.Comm = NewCommTable(g, a)
	if len(doc.Comm) != g.NumEdges() {
		return nil, fmt.Errorf("%w: comm rows %d, edges %d", ErrShape, len(doc.Comm), g.NumEdges())
	}
	for e, row := range doc.Comm {
		if len(row) != a.NumMedia() {
			return nil, fmt.Errorf("%w: comm row %d has %d cols, media %d", ErrShape, e, len(row), a.NumMedia())
		}
		for m, v := range row {
			if math.IsInf(float64(v), 1) {
				continue
			}
			if err := p.Comm.Set(model.EdgeID(e), arch.MediumID(m), float64(v)); err != nil {
				return nil, err
			}
		}
	}
	p.Rtc = Rtc{Deadline: float64(doc.Rtc.Deadline)}
	for name, d := range doc.Rtc.OpDeadlines {
		op, ok := g.OpByName(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownForRtc, name)
		}
		if p.Rtc.OpDeadlines == nil {
			p.Rtc.OpDeadlines = make(map[model.OpID]float64)
		}
		p.Rtc.OpDeadlines[op.ID] = float64(d)
	}
	return p, nil
}

// TableCells returns the problem's exec and comm cells, row-major, for
// bit-level comparisons.
func TableCells(p *Problem) (exec, comm []float64) { return p.Exec.t, p.Comm.t }

// OracleValidate is Problem.Validate before reachability was decided by
// connected components: the same checks in the same order, with the
// per-edge route-table check below.
func OracleValidate(p *Problem) error {
	if err := p.checkComponents(); err != nil {
		return err
	}
	if err := p.Alg.Validate(); err != nil {
		return err
	}
	if err := p.Arc.Validate(); err != nil {
		return err
	}
	if err := p.checkShape(); err != nil {
		return err
	}
	fm := p.FaultModel()
	if err := fm.Validate(); err != nil {
		return err
	}
	for _, op := range p.Alg.Ops() {
		allowed := p.Exec.AllowedProcs(op.ID)
		if len(allowed) == 0 {
			return fmt.Errorf("%w: %q", ErrOpUnplaceable, op.Name)
		}
		if len(allowed) < fm.Replicas() {
			return fmt.Errorf("%w: %q runs on %d processors, Npf+1 = %d",
				ErrTooFewprocs, op.Name, len(allowed), fm.Replicas())
		}
	}
	if err := p.validateMediaDiversity(fm); err != nil {
		return err
	}
	if err := p.oracleEdgeReachability(); err != nil {
		return err
	}
	return p.Rtc.Validate(p.Alg)
}

// oracleEdgeReachability is validateEdgeReachability before connected
// components, kept verbatim: every edge with a pair lacking a direct
// allowed medium builds its Dijkstra route table and asks it for a route.
func (p *Problem) oracleEdgeReachability() error {
	nProcs := p.Arc.NumProcs()
	direct := p.Arc.DirectMedia()
	allowed := make([][]arch.ProcID, p.Alg.NumOps())
	procsOf := func(op model.OpID) []arch.ProcID {
		if allowed[op] == nil {
			allowed[op] = p.Exec.AllowedProcs(op)
		}
		return allowed[op]
	}
	for _, e := range p.Alg.Edges() {
		var rt *arch.RouteTable // built on the first pair with no direct medium
		for _, sp := range procsOf(e.Src) {
			for _, dp := range procsOf(e.Dst) {
				if sp == dp || p.anyAllowed(e.ID, direct[int(sp)*nProcs+int(dp)]) {
					continue
				}
				if rt == nil {
					var err error
					if rt, err = p.EdgeRoutes(e.ID); err != nil {
						return err
					}
				}
				if _, err := rt.Route(sp, dp); err != nil {
					return fmt.Errorf("%w: %s from %q to %q",
						ErrEdgeUntravel, p.Alg.EdgeName(e.ID),
						p.Arc.Proc(sp).Name, p.Arc.Proc(dp).Name)
				}
			}
		}
	}
	return nil
}

// ReadsInOnePass reports whether UnmarshalJSON reads data with its
// one-pass reader rather than the generic decoder.
func ReadsInOnePass(data []byte) bool {
	_, ok := readDocument(data)
	return ok
}
