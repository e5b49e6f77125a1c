package exec

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"ftbar/internal/arch"
	"ftbar/internal/model"
	"ftbar/internal/sched"
)

// Errors reported by the runtime.
var (
	ErrBadRunConfig = errors.New("exec: invalid run configuration")
	// ErrNoOrder refuses a schedule whose wiring has no dependency order
	// (sched.DeliveryIndex.Order): a cycle, or a hop without a source.
	// Some unit of such a run could wait forever, so none is started.
	ErrNoOrder = errors.New("exec: the schedule's wiring has no dependency order")
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
}

// Result is the outcome of a distributed execution.
type Result struct {
	// Outputs[iter][task] is the first value delivered for each output
	// task (extio sinks, or all sinks when the graph has none).
	Outputs []map[model.TaskID]Value
	// Reference is the sequential oracle for the same iterations.
	Reference []map[model.TaskID]Value
	// Stalled reports that a processor that was not killed stopped on an
	// input whose every copy died: it runs nothing more, in that iteration
	// or any later one, which is the simulator's stuck rule. Expected when
	// more than Npf processors were killed; a run that masks its crashes
	// can stall too, on a branch that feeds no output.
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
// that never happened because its source or its sending processor died.
type message struct {
	value Value
	skip  bool
}

// runtime holds the channel fabric of one execution, addressed by the
// schedule's delivery index: one handoff channel per comm id and one
// mailbox per comm-served replica input. Every handoff and every mailbox
// slot receives exactly one message per iteration, so no send blocks and
// every wait ends (DESIGN.md Section 5).
type runtime struct {
	s     *sched.Schedule
	tg    *model.TaskGraph
	ix    *sched.DeliveryIndex
	iters int

	// handoff[iter][comm] carries the value from the producing replica
	// (hop 0) or the previous hop into the comm's sending unit.
	handoff [][]chan message
	// mailbox[iter][input] collects the copies of one comm-served input,
	// values and skips; capacity equals its arrival count.
	mailbox [][]chan message
	// outgoing[replica] lists the hop-0 comms the replica feeds.
	outgoing [][]int32
	// next[comm] is the following hop of a chain, -1 at the last hop;
	// feeds[comm] is the input a last hop delivers to, -1 for none.
	next  []int32
	feeds []int32

	// dead[p] is closed when processor p is killed; silent[p] when it
	// stops running its program, killed or stuck. stuck[p] is written by
	// p's goroutine alone and read after every goroutine ended.
	dead, silent []chan struct{}
	stuck        []bool
	outputs      []model.TaskID
	results      chan outputEvent
}

type outputEvent struct {
	iter  int
	task  model.TaskID
	value Value
}

// Run executes the schedule's distributed programs and compares the outputs
// against the sequential reference. It refuses a wiring with no dependency
// order (ErrNoOrder) before starting a goroutine; on any other, every unit
// ends by construction (DESIGN.md Section 5), so Run always returns.
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
	ix := s.Deliveries()
	if ix.Order() == nil {
		return nil, fmt.Errorf("%w: %d replicas, %d comms", ErrNoOrder, len(ix.Replicas), len(ix.Comms))
	}
	rt := newRuntime(s, ix, iters)

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
			rt.kill(proc)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.runNode(proc, killAt[proc])
		}()
	}
	for m := 0; m < s.Problem().Arc.NumMedia(); m++ {
		medium := arch.MediumID(m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.runMedium(medium)
		}()
	}
	wg.Wait()
	close(rt.results)
	res := &Result{
		Outputs:   make([]map[model.TaskID]Value, iters),
		Reference: Reference(s, iters),
		Stalled:   slices.Contains(rt.stuck, true),
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

func newRuntime(s *sched.Schedule, ix *sched.DeliveryIndex, iters int) *runtime {
	tg := s.Tasks()
	n := len(ix.Comms)
	nP := s.Problem().Arc.NumProcs()
	rt := &runtime{
		s:        s,
		tg:       tg,
		ix:       ix,
		iters:    iters,
		outgoing: make([][]int32, len(ix.Replicas)),
		next:     make([]int32, n),
		feeds:    make([]int32, n),
		dead:     make([]chan struct{}, nP),
		silent:   make([]chan struct{}, nP),
		stuck:    make([]bool, nP),
		outputs:  tg.Outputs(),
	}
	for p := range rt.dead {
		rt.dead[p], rt.silent[p] = make(chan struct{}), make(chan struct{})
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
	rt.mailbox = make([][]chan message, iters)
	for i := 0; i < iters; i++ {
		rt.handoff[i] = make([]chan message, n)
		for id := range rt.handoff[i] {
			rt.handoff[i][id] = make(chan message, 1)
		}
		rt.mailbox[i] = make([]chan message, len(ix.Inputs))
		for j, in := range ix.Inputs {
			if len(in.Arrivals) > 0 {
				rt.mailbox[i][j] = make(chan message, len(in.Arrivals))
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

// kill stops processor p for good: it computes, sends and relays nothing
// more.
func (rt *runtime) kill(p arch.ProcID) {
	close(rt.dead[p])
	close(rt.silent[p])
}

// runNode is one processor's static program: execute the replica sequence
// in order for every iteration, reading inputs from mailboxes (first value
// wins) or local memory, and handing results to the communication units.
// A replica whose input lost every copy can never run, so the processor
// stops there, stuck, as the simulator's does.
func (rt *runtime) runNode(p arch.ProcID, kills map[replicaIter]bool) {
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
				rt.kill(p)
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
				v, ok := rt.receive(iter, j)
				if !ok {
					rt.stuck[p] = true
					close(rt.silent[p])
					return
				}
				inputs = append(inputs, edgeValue{in.Edge, v})
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

// receive reads input j's copies of iteration iter up to the first value;
// ok is false when every copy was a skip.
func (rt *runtime) receive(iter int, j int32) (v Value, ok bool) {
	for range rt.ix.Inputs[j].Arrivals {
		if msg := <-rt.mailbox[iter][j]; !msg.skip {
			return msg.value, true
		}
	}
	return v, false
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
// sequence in order, for every iteration. It takes each hop's message,
// value or skip, from the hop's handoff, passes it to the next hop and
// hands every last hop's to its input's mailbox, so a receiver learns
// that a copy died instead of waiting for it (the paper's "no timeout"
// property holds because the data is replicated, not because senders
// are awaited).
func (rt *runtime) runMedium(m arch.MediumID) {
	lo, hi := rt.ix.MediumStart[m], rt.ix.MediumStart[m+1]
	for iter := 0; iter < rt.iters; iter++ {
		for c := lo; c < hi; c++ {
			msg := rt.takeHandoff(iter, c)
			if next := rt.next[c]; next >= 0 {
				rt.handoff[iter][next] <- msg
			}
			if in := rt.feeds[c]; in >= 0 {
				rt.mailbox[iter][in] <- msg
			}
		}
	}
}

// takeHandoff waits for the hop's input message and applies the one
// failure rule of the simulator to every hop: a hop whose sending
// processor is dead passes a skip on. At hop 0 the sender replica's
// processor either runs the replica and hands its value off, or stops
// before it (killed or stuck) and closes its silent channel, after which
// the hop passes a skip; a value handed off before stopping is still
// preferred. At a later hop the previous hop's message always comes, and
// the relay forwards it only if the relay is alive when it arrives: a
// stuck processor keeps relaying, as in the simulator. Death is per
// processor, not per iteration, so a relay killed mid-run (Kill) may also
// drop copies of iterations before its death.
func (rt *runtime) takeHandoff(iter int, c int32) message {
	ch := rt.handoff[iter][c]
	if comm := rt.ix.Comms[c]; comm.Hop > 0 {
		msg := <-ch
		select {
		case <-rt.dead[comm.From]:
			return message{skip: true}
		default:
			return msg
		}
	}
	select {
	case msg := <-ch:
		return msg
	case <-rt.silent[rt.ix.Replicas[rt.ix.Sender[c]].Proc]:
		select {
		case msg := <-ch:
			return msg
		default:
			return message{skip: true}
		}
	}
}
