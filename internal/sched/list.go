package sched

import (
	"fmt"
)

// Priorities assigns each task a rank; list schedulers always prefer the
// numerically smallest value (negate a "higher is better" priority before
// passing it in). Ties break on TaskID for determinism.
type Priorities []int64

// ListSchedule runs priority list scheduling with a fixed cell-to-processor
// assignment (§3, "List Scheduling"): at every timestep each processor runs
// the ready task of smallest priority among the tasks assigned to it. The
// result is a complete, validated-shape Schedule (call Validate to check).
//
// prio may be nil, in which case all tasks share one priority and ties
// break on TaskID.
//
// ListSchedule is a convenience wrapper over ListScheduleInto with a
// pooled workspace; trial loops that schedule the same instance shape
// repeatedly should hold a Workspace and call the Into form directly.
func ListSchedule(inst *Instance, assign Assignment, prio Priorities) (*Schedule, error) {
	return ListScheduleWithRelease(inst, assign, prio, nil)
}

// ListScheduleWithRelease is ListSchedule with per-task release times: task
// t may not start before step release[t] even if its predecessors are done.
// This implements the "random delays + heuristic" combinations of §5.2,
// where direction i is held back by X_i steps. A nil release means all
// zeros.
func ListScheduleWithRelease(inst *Instance, assign Assignment, prio Priorities, release []int32) (*Schedule, error) {
	ws := GetWorkspace(inst)
	defer ws.Release()
	dst := &Schedule{}
	if err := ListScheduleInto(ws, dst, inst, assign, prio, release); err != nil {
		return nil, err
	}
	return dst, nil
}

// GreedySchedule runs Graham's list scheduling on the union DAG H of all
// directions with m identical machines and no processor pinning: at every
// step up to m ready tasks run, smallest priority first. It returns the
// completion step (1-based level) of every task — exactly the L'
// preprocessing levels of Algorithm 3 — and the makespan T. Its transient
// state (ready set, task nodes, step batch) comes from the shape-keyed
// workspace pool, so trial loops pay only for the returned level slice.
func GreedySchedule(inst *Instance, prio Priorities) (level []int32, makespan int, err error) {
	ws := GetWorkspace(inst)
	defer ws.Release()
	level = make([]int32, inst.NTasks())
	makespan, err = GreedyScheduleInto(ws, level, inst, prio)
	if err != nil {
		return nil, 0, err
	}
	return level, makespan, nil
}

// GreedyScheduleInto is GreedySchedule writing the preprocessing levels
// into the caller-provided level slice (len = NTasks) and drawing all
// transient state from ws. It allocates nothing on a warm workspace.
func GreedyScheduleInto(ws *Workspace, level []int32, inst *Instance, prio Priorities) (makespan int, err error) {
	nt := inst.NTasks()
	if len(level) != nt {
		return 0, fmt.Errorf("sched: %d level slots for %d tasks", len(level), nt)
	}
	ws.ensure(inst)
	if prio == nil {
		prio = ws.zeroPrio
	} else if len(prio) != nt {
		return 0, fmt.Errorf("sched: %d priorities for %d tasks", len(prio), nt)
	}
	g, err := inst.taskGraph()
	if err != nil {
		return 0, err
	}
	span := ws.col.Span("sched.greedy.time")
	// No task is pinned, so the ready set is one partition of the rank
	// bitmaps — every cell on processor 0 of 1 — and the m smallest ready
	// (prio, id) run each step.
	rq := &ws.rq
	rq.build(prio, nt, 1, ws.zeroAssign, int32(inst.N()))
	rq.reset()
	nodes, succ := rq.node, g.succ
	remaining := fillNodes(nodes, inst, g, ws.zeroAssign, nil)
	for t := TaskID(0); t < TaskID(nt); t++ {
		if nodes[t].indeg == 0 {
			rq.push(0, t)
		}
	}
	batch := ws.completed[:0]
	for step := int32(1); remaining > 0; step++ {
		batch = batch[:0]
		for len(batch) < inst.M && rq.count[0] > 0 {
			batch = append(batch, rq.pop(0))
		}
		if len(batch) == 0 {
			ws.completed = batch
			return 0, fmt.Errorf("sched: greedy deadlock at step %d", step)
		}
		remaining -= len(batch)
		for _, t := range batch {
			level[t] = step
			for _, wt := range succ[nodes[t].off:nodes[t+1].off] {
				w := &nodes[wt]
				w.indeg--
				if w.indeg == 0 {
					rq.push(0, wt)
				}
			}
		}
		makespan = int(step)
	}
	ws.completed = batch[:0]
	span.End()
	ws.col.Counter("sched.greedy.runs").Inc()
	ws.col.Counter("sched.greedy.steps").Add(int64(makespan))
	return makespan, nil
}

// LayeredSchedule implements the layer-synchronous execution of Algorithms
// 1 and 3: tasks carry a layer index (≥ 1); layer r+1 starts only after all
// of layer r finishes; within a layer each processor drains its tasks in
// arbitrary (here: TaskID) order. Returns a complete Schedule.
func LayeredSchedule(inst *Instance, assign Assignment, layer []int32) (*Schedule, error) {
	if err := assign.Validate(inst.N(), inst.M); err != nil {
		return nil, err
	}
	nt := inst.NTasks()
	if len(layer) != nt {
		return nil, fmt.Errorf("sched: %d layer indices for %d tasks", len(layer), nt)
	}
	maxLayer := int32(0)
	for t, l := range layer {
		if l < 1 {
			return nil, fmt.Errorf("sched: task %d has layer %d < 1", t, l)
		}
		if l > maxLayer {
			maxLayer = l
		}
	}
	// The layer function must strictly increase along every DAG edge; this
	// is what lets same-layer tasks run in arbitrary relative order.
	n32 := int32(inst.N())
	for i, d := range inst.DAGs {
		base := int32(i) * n32
		for u := int32(0); u < n32; u++ {
			lu := layer[base+u]
			for _, w := range d.Out(u) {
				if layer[base+w] <= lu {
					return nil, fmt.Errorf("sched: layer not monotone on edge (%d,%d)->(%d,%d): %d -> %d",
						u, i, w, i, lu, layer[base+w])
				}
			}
		}
	}
	// Bucket tasks by layer, preserving TaskID order.
	counts := make([]int32, maxLayer+2)
	for _, l := range layer {
		counts[l+1]++
	}
	for i := int32(1); i < maxLayer+2; i++ {
		counts[i] += counts[i-1]
	}
	bucket := make([]TaskID, nt)
	cursor := make([]int32, maxLayer+2)
	for t := 0; t < nt; t++ {
		l := layer[t]
		bucket[counts[l]+cursor[l]] = TaskID(t)
		cursor[l]++
	}

	start := make([]int32, nt)
	procClock := make([]int32, inst.M)
	base := int32(0)
	for l := int32(1); l <= maxLayer; l++ {
		lo, hi := counts[l], counts[l+1]
		if lo == hi {
			continue
		}
		for p := range procClock {
			procClock[p] = 0
		}
		layerTime := int32(0)
		for _, t := range bucket[lo:hi] {
			v, _ := inst.Split(t)
			p := assign[v]
			start[t] = base + procClock[p]
			procClock[p]++
			if procClock[p] > layerTime {
				layerTime = procClock[p]
			}
		}
		base += layerTime
	}
	s := &Schedule{Inst: inst, Assign: assign, Start: start}
	s.computeMakespan()
	return s, nil
}
