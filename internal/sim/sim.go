package sim

import (
	"fmt"
	"math"

	"ftbar/internal/model"
	"ftbar/internal/sched"
)

// ErrStalled is returned when the executor cannot make progress although
// items remain: a scheduling deadlock. The paper proves the static total
// order per medium makes this impossible, so hitting it indicates a broken
// schedule; the property tests lean on this guard.
var ErrStalled = fmt.Errorf("sim: execution stalled (deadlock)")

type itemStatus int

const (
	stPending itemStatus = iota
	stDone               // replica executed / comm delivered
	stDead               // replica never executes / comm never transmits
)

type replicaState struct {
	status itemStatus
	start  float64
	end    float64
}

// IterationResult reports one iteration of the data-flow graph.
type IterationResult struct {
	Index int
	// Makespan is the absolute completion time of the last replica that
	// executed during this iteration (0 when nothing ran).
	Makespan float64
	// OutputsOK reports whether every output operation was produced by at
	// least one replica: the failure-masking criterion.
	OutputsOK bool
	// Done and Dead count replicas that executed and that never will.
	Done int
	Dead int
	// Delivered and Skipped count comm hops.
	Delivered int
	Skipped   int

	opDone map[model.OpID]float64
	repl   map[replKey]replicaState
}

type replKey struct {
	task  model.TaskID
	index int
}

// OpCompletion returns the earliest completion of op in this iteration, or
// +Inf when no replica produced it.
func (ir *IterationResult) OpCompletion(op model.OpID) float64 {
	if t, ok := ir.opDone[op]; ok {
		return t
	}
	return math.Inf(1)
}

// ReplicaWindow returns the executed window of a replica, with ok=false if
// it never executed in this iteration.
func (ir *IterationResult) ReplicaWindow(t model.TaskID, index int) (start, end float64, ok bool) {
	st, found := ir.repl[replKey{t, index}]
	if !found || st.status != stDone {
		return 0, 0, false
	}
	return st.start, st.end, true
}

// Result is a whole simulated execution.
type Result struct {
	Scenario   Scenario
	Iterations []IterationResult
}

// Makespan returns the absolute completion time over all iterations.
func (r *Result) Makespan() float64 {
	var m float64
	for i := range r.Iterations {
		if r.Iterations[i].Makespan > m {
			m = r.Iterations[i].Makespan
		}
	}
	return m
}

// AllOutputsOK reports whether every iteration masked the failures.
func (r *Result) AllOutputsOK() bool {
	for i := range r.Iterations {
		if !r.Iterations[i].OutputsOK {
			return false
		}
	}
	return true
}

// Run executes the schedule under the scenario and returns the per-iteration
// report.
func Run(s *sched.Schedule, sc Scenario) (*Result, error) {
	if err := sc.Validate(s.Problem().Arc); err != nil {
		return nil, err
	}
	iters := sc.Iterations
	if iters == 0 {
		iters = 1
	}
	st := newPlan(s).newState()
	st.load(sc)
	res := &Result{Scenario: sc}
	for k := 0; k < iters; k++ {
		if err := st.iterate(k); err != nil {
			return nil, err
		}
		res.Iterations = append(res.Iterations, st.result(k))
	}
	return res, nil
}

// outputTasks returns the tasks whose completion defines failure masking:
// extio sinks when present, otherwise every sink except mem writes,
// otherwise all sinks.
func outputTasks(tg *model.TaskGraph) []model.TaskID {
	var extio, nonMem, all []model.TaskID
	for _, t := range tg.Sinks() {
		all = append(all, t)
		task := tg.Task(t)
		if task.Kind == model.ExtIO {
			extio = append(extio, t)
		}
		if task.Role != model.MemWrite {
			nonMem = append(nonMem, t)
		}
	}
	if len(extio) > 0 {
		return extio
	}
	if len(nonMem) > 0 {
		return nonMem
	}
	return all
}
