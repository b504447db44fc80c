package sched

import (
	"fmt"
)

// Priorities assigns each task a rank; list schedulers always prefer the
// numerically smallest value (negate a "higher is better" priority before
// passing it in). Ties break on TaskID for determinism.
type Priorities []int64

// GreedyScheduleInto runs Graham's list scheduling on the union DAG H of
// all directions on m unpinned machines: each step up to m ready tasks
// run, smallest priority first. It writes every task's completion step —
// the L' preprocessing levels of Algorithm 3 — into level (len = NTasks)
// and returns the makespan T, allocating nothing on a warm workspace.
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
	remaining := rq.load(prelude{prio: prio, nt: nt, m: 1, n: int32(inst.N()), assign: ws.zeroAssign, dags: inst.DAGs, g: g})
	nodes, succ, ready, slotLevel := rq.node, g.succ, &rq.procs[0], ws.start
	batch := ws.completed[:0]
	for step := int32(1); remaining > 0; step++ {
		batch = batch[:0]
		for len(batch) < inst.M && ready.count > 0 {
			s := rq.pop(0)
			slotLevel[s] = step
			batch = append(batch, popped{0, nodes[s].off, nodes[s+1].off})
		}
		if len(batch) == 0 {
			ws.completed = batch
			return 0, fmt.Errorf("sched: greedy deadlock at step %d", step)
		}
		remaining -= len(batch)
		for _, ran := range batch {
			for _, sw := range succ[ran.lo:ran.hi] {
				w := &nodes[sw]
				w.indeg--
				rq.pushIf(0, w.rank, zeroBit(w.indeg))
			}
		}
		makespan = int(step)
	}
	ws.completed = batch[:0]
	fromSlots(g, level, slotLevel)
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
