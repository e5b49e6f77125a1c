package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
)

// Errors reported by the runtime.
var (
	ErrBadRunConfig = errors.New("exec: invalid run configuration")
)

// Kill is a fault-injection directive: processor Proc dies right before
// executing replica (Task, Index) of iteration Iteration. Death is
// fail-silent: the goroutine stops computing and sending, and the hops it
// relays pass nothing on from then; values it already handed to
// communication units are still delivered. A medium checks a relay when
// the previous hop's message arrives, so which of the hops it relays in
// earlier iterations still pass depends on goroutine timing: the relay
// rule is exact only for KillAtStart. Every copy such a kill can drop is
// one the processor's death from the start drops too.
type Kill struct {
	Proc      arch.ProcID
	Task      model.TaskID
	Index     int
	Iteration int
}

// RunConfig configures one distributed execution.
type RunConfig struct {
	// Iterations of the data-flow graph; 0 means 1.
	Iterations int
	// Kills are the injected failures.
	Kills []Kill
	// KillAtStart lists processors dead from the beginning.
	KillAtStart []arch.ProcID
	// Timeout bounds the whole run; 0 means 10 seconds. A run that cannot
	// finish (more failures than Npf block a receiver forever) is
	// cancelled and reported as stalled instead of hanging the test.
	Timeout time.Duration
}

// Result is the outcome of a distributed execution.
type Result struct {
	// Outputs[iter][task] is the first value delivered for each output
	// task (extio sinks, or all sinks when the graph has none).
	Outputs []map[model.TaskID]Value
	// Reference is the sequential oracle for the same iterations.
	Reference []map[model.TaskID]Value
	// Stalled reports that the run timed out with processors blocked —
	// expected when more than Npf processors were killed. A run that masks
	// its crashes can stall too: a replica whose every input copy died
	// blocks the rest of its processor's program, in this iteration and
	// every later one, also on a branch that feeds no output; the
	// simulator does the same.
	Stalled bool
}

// Match reports whether every produced output of every iteration equals the
// sequential reference, every iteration produced one, and the run did not
// stall. A run that masks its crashes (Complete) fails Match when it
// stalls on a branch that feeds no output.
func (r *Result) Match() bool {
	for iter := range r.Outputs {
		for task, want := range r.Reference[iter] {
			got, ok := r.Outputs[iter][task]
			if ok && got != want {
				return false
			}
		}
		if len(r.Outputs[iter]) == 0 {
			return false
		}
	}
	return !r.Stalled
}

// Complete reports whether every output task produced a value in every
// iteration (failure masking held).
func (r *Result) Complete(outputs []model.TaskID) bool {
	for iter := range r.Outputs {
		for _, t := range outputs {
			if _, ok := r.Outputs[iter][t]; !ok {
				return false
			}
		}
	}
	return true
}

// message travels through communication units; skip marks a transmission
// that never happened because its producer died.
type message struct {
	value Value
	skip  bool
}

// runtime holds the channel fabric of one execution, addressed by the
// schedule's delivery index: one handoff channel per comm id and one
// mailbox per comm-served replica input.
type runtime struct {
	s     *sched.Schedule
	tg    *model.TaskGraph
	ix    *sched.DeliveryIndex
	iters int

	// handoff[iter][comm] carries the value from the producing replica
	// (hop 0) or the previous hop into the comm's sending unit.
	handoff [][]chan message
	// mailbox[iter][input] collects the copies of one comm-served input;
	// capacity equals its arrival count, so senders never block.
	mailbox [][]chan Value
	// outgoing[replica] lists the hop-0 comms the replica feeds.
	outgoing [][]int32
	// next[comm] is the following hop of a chain, -1 at the last hop;
	// feeds[comm] is the input a last hop delivers to, -1 for none.
	next  []int32
	feeds []int32

	dead    []chan struct{} // closed when processor dies
	outputs []model.TaskID
	results chan outputEvent
}

type outputEvent struct {
	iter  int
	task  model.TaskID
	value Value
}

// Run executes the schedule's distributed programs and compares the outputs
// against the sequential reference.
func Run(s *sched.Schedule, cfg RunConfig) (*Result, error) {
	iters := cfg.Iterations
	if iters == 0 {
		iters = 1
	}
	if iters < 0 {
		return nil, fmt.Errorf("%w: iterations %d", ErrBadRunConfig, cfg.Iterations)
	}
	nP := s.Problem().Arc.NumProcs()
	for _, k := range cfg.Kills {
		if int(k.Proc) < 0 || int(k.Proc) >= nP || k.Iteration < 0 || k.Iteration >= iters {
			return nil, fmt.Errorf("%w: kill %+v", ErrBadRunConfig, k)
		}
	}
	for _, p := range cfg.KillAtStart {
		if int(p) < 0 || int(p) >= nP {
			return nil, fmt.Errorf("%w: kill at start of proc %d", ErrBadRunConfig, p)
		}
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	rt := newRuntime(s, iters)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	var wg sync.WaitGroup
	killAt := make(map[arch.ProcID]map[replicaIter]bool)
	for _, k := range cfg.Kills {
		if killAt[k.Proc] == nil {
			killAt[k.Proc] = make(map[replicaIter]bool)
		}
		killAt[k.Proc][replicaIter{k.Task, k.Index, k.Iteration}] = true
	}
	deadAtStart := make(map[arch.ProcID]bool)
	for _, p := range cfg.KillAtStart {
		deadAtStart[p] = true
	}
	for p := 0; p < nP; p++ {
		proc := arch.ProcID(p)
		if deadAtStart[proc] {
			close(rt.dead[p])
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.runNode(ctx, proc, killAt[proc])
		}()
	}
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		medium := arch.MediumID(m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.runMedium(ctx, medium)
		}()
	}
	doneCh := make(chan struct{})
	go func() {
		wg.Wait()
		close(doneCh)
	}()
	stalled := false
	select {
	case <-doneCh:
	case <-ctx.Done():
		stalled = true
		<-doneCh // goroutines exit via ctx in every blocking select
	}
	close(rt.results)
	res := &Result{
		Outputs:   make([]map[model.TaskID]Value, iters),
		Reference: Reference(s, iters),
		Stalled:   stalled,
	}
	for i := range res.Outputs {
		res.Outputs[i] = make(map[model.TaskID]Value)
	}
	for ev := range rt.results {
		if _, ok := res.Outputs[ev.iter][ev.task]; !ok {
			res.Outputs[ev.iter][ev.task] = ev.value // first arrival wins
		}
	}
	return res, nil
}

type replicaIter struct {
	task  model.TaskID
	index int
	iter  int
}

func newRuntime(s *sched.Schedule, iters int) *runtime {
	tg := s.Tasks()
	ix := s.Deliveries()
	n := len(ix.Comms)
	rt := &runtime{
		s:        s,
		tg:       tg,
		ix:       ix,
		iters:    iters,
		outgoing: make([][]int32, len(ix.Replicas)),
		next:     make([]int32, n),
		feeds:    make([]int32, n),
		dead:     make([]chan struct{}, s.Problem().Arc.NumProcs()),
		outputs:  tg.Outputs(),
	}
	for p := range rt.dead {
		rt.dead[p] = make(chan struct{})
	}
	for id := range ix.Comms {
		rt.next[id], rt.feeds[id] = -1, -1
	}
	for id, r := range ix.Sender {
		if r >= 0 {
			rt.outgoing[r] = append(rt.outgoing[r], int32(id))
		}
	}
	for id, prev := range ix.Prev {
		if prev >= 0 {
			rt.next[prev] = int32(id)
		}
	}
	for i, in := range ix.Inputs {
		for _, c := range in.Arrivals {
			rt.feeds[c] = int32(i)
		}
	}
	rt.handoff = make([][]chan message, iters)
	rt.mailbox = make([][]chan Value, iters)
	for i := 0; i < iters; i++ {
		rt.handoff[i] = make([]chan message, n)
		for id := range rt.handoff[i] {
			rt.handoff[i][id] = make(chan message, 1)
		}
		rt.mailbox[i] = make([]chan Value, len(ix.Inputs))
		for j, in := range ix.Inputs {
			if len(in.Arrivals) > 0 {
				rt.mailbox[i][j] = make(chan Value, len(in.Arrivals))
			}
		}
	}
	nOut := 0
	for _, t := range rt.outputs {
		nOut += int(ix.RepStart[t+1] - ix.RepStart[t])
	}
	rt.results = make(chan outputEvent, nOut*iters+1)
	return rt
}

// runNode is one processor's static program: execute the replica sequence
// in order for every iteration, reading inputs from mailboxes (first value
// wins) or local memory, and handing results to the communication units.
func (rt *runtime) runNode(ctx context.Context, p arch.ProcID, kills map[replicaIter]bool) {
	memState := make(map[model.OpID]Value)
	for _, mp := range rt.tg.MemPairs() {
		memState[mp.Op] = initValue(rt.s.Problem().Alg.Op(mp.Op).Name)
	}
	ix := rt.ix
	for iter := 0; iter < rt.iters; iter++ {
		local := make(map[int32]Value) // by replica id; -1 reads the zero value
		for _, id := range ix.Programs[p] {
			r := ix.Replicas[id]
			if kills[replicaIter{r.Task, r.Index, iter}] {
				close(rt.dead[p])
				return
			}
			task := rt.tg.Task(r.Task)
			var inputs []edgeValue
			for j := ix.InputStart[id]; j < ix.InputStart[id+1]; j++ {
				in := &ix.Inputs[j]
				if len(in.Arrivals) == 0 {
					inputs = append(inputs, edgeValue{in.Edge, local[in.Local]})
					continue
				}
				select {
				case v := <-rt.mailbox[iter][j]:
					inputs = append(inputs, edgeValue{in.Edge, v})
				case <-ctx.Done():
					close(rt.dead[p])
					return
				}
			}
			v, newState := evalTask(rt.tg, r.Task, iter, inputs, memState[task.Op])
			if task.Role == model.MemWrite {
				memState[task.Op] = newState
			}
			local[id] = v
			for _, c := range rt.outgoing[id] {
				rt.handoff[iter][c] <- message{value: v}
			}
			if rt.isOutput(r.Task) {
				rt.results <- outputEvent{iter: iter, task: r.Task, value: v}
			}
		}
	}
}

func (rt *runtime) isOutput(t model.TaskID) bool {
	for _, o := range rt.outputs {
		if o == t {
			return true
		}
	}
	return false
}

// runMedium is one communication medium: it processes its static comm
// sequence in order, for every iteration. A value is taken from the hop's
// handoff; a dead sender resolves the handoff as a skip so the medium
// never waits on a silent processor (the paper's "no timeout" property
// holds because the data is replicated, not because senders are awaited).
func (rt *runtime) runMedium(ctx context.Context, m arch.MediumID) {
	lo, hi := rt.ix.MediumStart[m], rt.ix.MediumStart[m+1]
	for iter := 0; iter < rt.iters; iter++ {
		for c := lo; c < hi; c++ {
			msg, ok := rt.takeHandoff(ctx, iter, c)
			if !ok {
				return // cancelled
			}
			if next := rt.next[c]; next >= 0 {
				rt.handoff[iter][next] <- msg
				continue
			}
			if in := rt.feeds[c]; in >= 0 && !msg.skip {
				rt.mailbox[iter][in] <- msg.value
			}
		}
	}
}

// takeHandoff waits for the hop's input value and applies the one failure
// rule of the simulator to every hop: a hop whose sending processor is dead
// passes a skip on. At hop 0 that processor is the producer, and a value it
// handed off before dying is still preferred over the death signal. At a
// later hop it is the relay, which forwards the previous medium's message,
// value or skip, only if it is alive when that message arrives; death is
// per processor, not per iteration, so a relay killed mid-run (Kill) may
// also drop copies of iterations before its death.
func (rt *runtime) takeHandoff(ctx context.Context, iter int, c int32) (message, bool) {
	ch := rt.handoff[iter][c]
	comm := rt.ix.Comms[c]
	deadCh := rt.dead[comm.From]
	if comm.Hop > 0 {
		select {
		case msg := <-ch:
			select {
			case <-deadCh:
				return message{skip: true}, true
			default:
				return msg, true
			}
		case <-ctx.Done():
			return message{}, false
		}
	}
	select {
	case msg := <-ch:
		return msg, true
	case <-deadCh:
		// The producer died; it may still have handed the value off
		// just before dying.
		select {
		case msg := <-ch:
			return msg, true
		default:
			return message{skip: true}, true
		}
	case <-ctx.Done():
		return message{}, false
	}
}
