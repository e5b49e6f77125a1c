package model

import (
	"fmt"
)

// TaskID indexes a task inside a TaskGraph, densely from 0.
type TaskID int

// TaskEdgeID indexes a dependency inside a TaskGraph, densely from 0.
type TaskEdgeID int

// MemRole says which half of a split mem a task implements.
type MemRole int

// Mem roles. NotMem marks ordinary tasks; MemRead is the register read that
// delivers last iteration's value (a source task); MemWrite stores this
// iteration's value (a sink task).
const (
	NotMem MemRole = iota
	MemRead
	MemWrite
)

// String returns a short human-readable role name.
func (r MemRole) String() string {
	switch r {
	case NotMem:
		return "op"
	case MemRead:
		return "read"
	case MemWrite:
		return "write"
	default:
		return fmt.Sprintf("MemRole(%d)", int(r))
	}
}

// Task is one schedulable unit: an operation, or one half of a mem.
type Task struct {
	ID   TaskID
	Op   OpID // operation this task implements
	Kind Kind
	Role MemRole
	Name string // op name, suffixed "/read" or "/write" for mem halves
}

// TaskEdge is a precedence dependency of the compiled, acyclic task graph.
// Orig is the algorithm edge it derives from, which keys the communication
// time table.
type TaskEdge struct {
	ID   TaskEdgeID
	Src  TaskID
	Dst  TaskID
	Orig EdgeID
}

// MemPair records the two tasks a mem was split into. Schedulers must place
// the k-th replica of Write on the same processor as the k-th replica of
// Read so the register state stays local (see DESIGN.md Section 4).
type MemPair struct {
	Op    OpID
	Read  TaskID
	Write TaskID
}

// TaskGraph is the acyclic scheduling view of an algorithm graph, produced
// by Compile. It is immutable after construction.
type TaskGraph struct {
	graph    *Graph
	tasks    []Task
	edges    []TaskEdge
	outs     [][]TaskEdgeID
	ins      [][]TaskEdgeID
	taskOf   []TaskID // first task of each op (read half for mems)
	memPairs []MemPair
	topo     []TaskID // topological order, deterministic
	// preds and succs are the distinct-neighbour lists, deduplicated and
	// sorted once at compile time: schedulers ask for them per task per run,
	// and rebuilding them through a map each time shows up in profiles.
	preds [][]TaskID
	succs [][]TaskID
}

// Compile validates g and builds its acyclic TaskGraph: each mem vertex is
// split into a read source and a write sink; every other operation maps to
// exactly one task. Edge identities are preserved through TaskEdge.Orig.
func Compile(g *Graph) (*TaskGraph, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	tg := &TaskGraph{graph: g, taskOf: make([]TaskID, g.NumOps())}
	writeOf := make(map[OpID]TaskID)
	for _, op := range g.ops {
		switch op.Kind {
		case Mem:
			read := tg.addTask(Task{Op: op.ID, Kind: Mem, Role: MemRead, Name: op.Name + "/read"})
			write := tg.addTask(Task{Op: op.ID, Kind: Mem, Role: MemWrite, Name: op.Name + "/write"})
			tg.taskOf[op.ID] = read
			writeOf[op.ID] = write
			tg.memPairs = append(tg.memPairs, MemPair{Op: op.ID, Read: read, Write: write})
		default:
			tg.taskOf[op.ID] = tg.addTask(Task{Op: op.ID, Kind: op.Kind, Role: NotMem, Name: op.Name})
		}
	}
	for _, e := range g.edges {
		src := tg.taskOf[e.Src] // read half when Src is a mem
		dst := tg.taskOf[e.Dst]
		if w, ok := writeOf[e.Dst]; ok {
			dst = w // values flowing into a mem feed its write half
		}
		id := TaskEdgeID(len(tg.edges))
		tg.edges = append(tg.edges, TaskEdge{ID: id, Src: src, Dst: dst, Orig: e.ID})
		tg.outs[src] = append(tg.outs[src], id)
		tg.ins[dst] = append(tg.ins[dst], id)
	}
	topo, err := tg.computeTopo()
	if err != nil {
		return nil, err
	}
	tg.topo = topo
	tg.preds = make([][]TaskID, len(tg.tasks))
	tg.succs = make([][]TaskID, len(tg.tasks))
	for t := range tg.tasks {
		tg.preds[t] = tg.taskNeighbors(tg.ins[t], func(e TaskEdge) TaskID { return e.Src })
		tg.succs[t] = tg.taskNeighbors(tg.outs[t], func(e TaskEdge) TaskID { return e.Dst })
	}
	return tg, nil
}

func (tg *TaskGraph) addTask(t Task) TaskID {
	t.ID = TaskID(len(tg.tasks))
	tg.tasks = append(tg.tasks, t)
	tg.outs = append(tg.outs, nil)
	tg.ins = append(tg.ins, nil)
	return t.ID
}

// computeTopo returns a deterministic topological order (Kahn's algorithm
// with a smallest-id tie-break). Compile's construction guarantees
// acyclicity when Graph.Validate passed, so an error here flags an internal
// inconsistency.
func (tg *TaskGraph) computeTopo() ([]TaskID, error) {
	indeg := make([]int, len(tg.tasks))
	for _, e := range tg.edges {
		indeg[e.Dst]++
	}
	ready := newTaskIDHeap()
	for id := range tg.tasks {
		if indeg[id] == 0 {
			ready.push(TaskID(id))
		}
	}
	order := make([]TaskID, 0, len(tg.tasks))
	for ready.len() > 0 {
		u := ready.pop()
		order = append(order, u)
		for _, eid := range tg.outs[u] {
			v := tg.edges[eid].Dst
			indeg[v]--
			if indeg[v] == 0 {
				ready.push(v)
			}
		}
	}
	if len(order) != len(tg.tasks) {
		return nil, fmt.Errorf("%w: task graph", ErrCycle)
	}
	return order, nil
}

// Graph returns the algorithm graph this task graph was compiled from.
func (tg *TaskGraph) Graph() *Graph { return tg.graph }

// NumTasks returns the number of schedulable tasks.
func (tg *TaskGraph) NumTasks() int { return len(tg.tasks) }

// NumEdges returns the number of precedence dependencies.
func (tg *TaskGraph) NumEdges() int { return len(tg.edges) }

// Task returns the task with the given id.
func (tg *TaskGraph) Task(id TaskID) Task { return tg.tasks[id] }

// Edge returns the dependency with the given id.
func (tg *TaskGraph) Edge(id TaskEdgeID) TaskEdge { return tg.edges[id] }

// TaskOf returns the task implementing op: its only task for non-mems, the
// read half for mems.
func (tg *TaskGraph) TaskOf(op OpID) TaskID { return tg.taskOf[op] }

// MemPairs returns the read/write task pairs of all mems, in op order.
func (tg *TaskGraph) MemPairs() []MemPair {
	out := make([]MemPair, len(tg.memPairs))
	copy(out, tg.memPairs)
	return out
}

// In returns the ids of the dependencies entering t.
func (tg *TaskGraph) In(t TaskID) []TaskEdgeID {
	out := make([]TaskEdgeID, len(tg.ins[t]))
	copy(out, tg.ins[t])
	return out
}

// InView returns the ids of the dependencies entering t without copying.
// The returned slice aliases internal storage; callers must not mutate it.
// Scheduling hot paths use it to preview placements allocation-free.
func (tg *TaskGraph) InView(t TaskID) []TaskEdgeID { return tg.ins[t] }

// Out returns the ids of the dependencies leaving t.
func (tg *TaskGraph) Out(t TaskID) []TaskEdgeID {
	out := make([]TaskEdgeID, len(tg.outs[t]))
	copy(out, tg.outs[t])
	return out
}

// NumIn returns the in-degree of t without allocating.
func (tg *TaskGraph) NumIn(t TaskID) int { return len(tg.ins[t]) }

// NumOut returns the out-degree of t without allocating.
func (tg *TaskGraph) NumOut(t TaskID) int { return len(tg.outs[t]) }

// Preds returns the distinct predecessors of t in ascending id order. The
// returned slice aliases internal storage; callers must not mutate it.
func (tg *TaskGraph) Preds(t TaskID) []TaskID { return tg.preds[t] }

// Succs returns the distinct successors of t in ascending id order. The
// returned slice aliases internal storage; callers must not mutate it.
func (tg *TaskGraph) Succs(t TaskID) []TaskID { return tg.succs[t] }

func (tg *TaskGraph) taskNeighbors(edges []TaskEdgeID, pick func(TaskEdge) TaskID) []TaskID {
	seen := make(map[TaskID]bool, len(edges))
	out := make([]TaskID, 0, len(edges))
	for _, eid := range edges {
		id := pick(tg.edges[eid])
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Topo returns a deterministic topological order of the tasks.
func (tg *TaskGraph) Topo() []TaskID {
	out := make([]TaskID, len(tg.topo))
	copy(out, tg.topo)
	return out
}

// Sources returns tasks with no predecessors in id order.
func (tg *TaskGraph) Sources() []TaskID {
	var out []TaskID
	for id := range tg.tasks {
		if len(tg.ins[id]) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// Sinks returns tasks with no successors in id order.
func (tg *TaskGraph) Sinks() []TaskID {
	var out []TaskID
	for id := range tg.tasks {
		if len(tg.outs[id]) == 0 {
			out = append(out, TaskID(id))
		}
	}
	return out
}

// Outputs returns the tasks whose production defines failure masking, in
// id order: the extio sinks when there are any, otherwise every sink
// except mem writes, otherwise every sink.
func (tg *TaskGraph) Outputs() []TaskID {
	var extio, nonMem, all []TaskID
	for _, t := range tg.Sinks() {
		all = append(all, t)
		if tg.tasks[t].Kind == ExtIO {
			extio = append(extio, t)
		}
		if tg.tasks[t].Role != MemWrite {
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

// taskIDHeap is a tiny min-heap of TaskIDs used for deterministic Kahn
// ordering.
type taskIDHeap struct{ a []TaskID }

func newTaskIDHeap() *taskIDHeap { return &taskIDHeap{} }

func (h *taskIDHeap) len() int { return len(h.a) }

func (h *taskIDHeap) push(v TaskID) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *taskIDHeap) pop() TaskID {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.a) && h.a[l] < h.a[small] {
			small = l
		}
		if r < len(h.a) && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
