package sched

import (
	"fmt"
	"math"
)

// The paper takes uniform processing time p=1 ("we will assume that each
// task takes uniform time p") — fine for theory, but real transport meshes
// have heterogeneous cell costs (graded cells, material-dependent solves).
// This file extends list scheduling to per-cell integer weights: all k
// copies of a cell share its weight (the cost is the local solve), tasks
// are still non-preemptive, and the engine becomes event-driven rather
// than step-driven.
//
// On top of weights the engine accepts a MachineModel (Papp & Karanasiou,
// "Efficient Multi-Processor Scheduling in Increasingly Realistic Models"):
// per-processor integer speeds (a task on processor p runs for
// ceil(w(v)/speed(p)) time) and a two-level hierarchical communication
// delay (intra-group vs cross-group, NUMA/rack-style). A nil model is the
// uniform machine and reproduces the historical engine bit for bit; the
// uniform machine with all-ones weights reproduces the unit ListScheduleInto
// bit for bit (both reductions are fuzzer-enforced, see
// FuzzWeightedEquivalence).

// CellWeights gives every cell a positive processing cost.
type CellWeights []int32

// Validate checks coverage and positivity.
func (w CellWeights) Validate(n int) error {
	if len(w) != n {
		return fmt.Errorf("sched: %d weights for %d cells", len(w), n)
	}
	for v, x := range w {
		if x <= 0 {
			return fmt.Errorf("sched: cell %d has non-positive weight %d", v, x)
		}
	}
	return nil
}

// MachineModel describes the processors the weighted engine schedules
// onto. The zero model (nil pointer, or all fields at their zero values)
// is the paper's uniform machine: unit speeds, no communication cost.
type MachineModel struct {
	// Speeds holds one positive integer speed per processor; a task of
	// weight w runs for ceil(w/speed) on its processor. nil means all 1.
	Speeds []int32
	// Group assigns each processor to a locality group (NUMA node, rack).
	// nil means a single group. Group ids must be non-negative.
	Group []int32
	// IntraDelay is the communication delay charged on a precedence edge
	// whose endpoints run on different processors in the same group;
	// CrossDelay applies across groups. Same-processor edges are free.
	// 0 ≤ IntraDelay ≤ CrossDelay.
	IntraDelay int32
	CrossDelay int32
}

// Validate checks the model against a processor count.
func (mm *MachineModel) Validate(m int) error {
	if mm == nil {
		return nil
	}
	if mm.Speeds != nil {
		if len(mm.Speeds) != m {
			return fmt.Errorf("sched: %d speeds for %d processors", len(mm.Speeds), m)
		}
		for p, s := range mm.Speeds {
			if s <= 0 {
				return fmt.Errorf("sched: processor %d has non-positive speed %d", p, s)
			}
		}
	}
	if mm.Group != nil {
		if len(mm.Group) != m {
			return fmt.Errorf("sched: %d group ids for %d processors", len(mm.Group), m)
		}
		for p, g := range mm.Group {
			if g < 0 {
				return fmt.Errorf("sched: processor %d has negative group %d", p, g)
			}
		}
	}
	if mm.IntraDelay < 0 || mm.CrossDelay < mm.IntraDelay {
		return fmt.Errorf("sched: delays must satisfy 0 <= intra (%d) <= cross (%d)",
			mm.IntraDelay, mm.CrossDelay)
	}
	return nil
}

// SpeedOf returns processor p's speed under the model (1 for the uniform
// machine). Safe on a nil model.
func (mm *MachineModel) SpeedOf(p int32) int32 {
	if mm == nil || mm.Speeds == nil {
		return 1
	}
	return mm.Speeds[p]
}

// MaxSpeed returns the fastest processor's speed (1 for the uniform
// machine). Safe on a nil model.
func (mm *MachineModel) MaxSpeed() int32 {
	if mm == nil || mm.Speeds == nil {
		return 1
	}
	best := int32(1)
	for _, s := range mm.Speeds {
		if s > best {
			best = s
		}
	}
	return best
}

// DelayOf returns the communication delay charged on an edge from a task
// on processor p to a successor on processor q. Safe on a nil model.
func (mm *MachineModel) DelayOf(p, q int32) int64 {
	if mm == nil || p == q {
		return 0
	}
	if mm.Group == nil || mm.Group[p] == mm.Group[q] {
		return int64(mm.IntraDelay)
	}
	return int64(mm.CrossDelay)
}

// hasDelays reports whether any edge can be charged a delay; when false
// the engine takes exactly the historical delay-free path.
func (mm *MachineModel) hasDelays() bool {
	return mm != nil && (mm.IntraDelay > 0 || mm.CrossDelay > 0)
}

// durationOn is ceil(w/speed): the run time of a weight-w task on a
// speed-s processor.
func durationOn(w, s int32) int64 {
	return (int64(w) + int64(s) - 1) / int64(s)
}

// WeightedSchedule is a completed weighted run: per-task start and finish
// times (finish = start + ceil(weight/speed) of the task's cell on its
// processor). Model is the machine it was scheduled for (nil = uniform).
type WeightedSchedule struct {
	Inst     *Instance
	Assign   Assignment
	Weights  CellWeights
	Model    *MachineModel
	Start    []int64
	Finish   []int64
	Makespan int64
}

// Validate checks weighted feasibility: durations under the model's
// speeds, precedence with finish-to-start semantics plus the model's
// hierarchical communication delays, no overlapping intervals on a
// processor, and Makespan equal to the last finish time. It is
// ValidateWorkers(0).
func (s *WeightedSchedule) Validate() error { return s.ValidateWorkers(0) }

// ValidateWorkers is Validate with its precedence and exclusivity checks
// on up to TailWorkers(workers) goroutines. The verdict and the error are
// the same for every workers value.
func (s *WeightedSchedule) ValidateWorkers(workers int) error {
	inst := s.Inst
	if err := s.Assign.Validate(inst.N(), inst.M); err != nil {
		return err
	}
	if err := s.Weights.Validate(inst.N()); err != nil {
		return err
	}
	if err := s.Model.Validate(inst.M); err != nil {
		return err
	}
	nt := inst.NTasks()
	if len(s.Start) != nt || len(s.Finish) != nt {
		return fmt.Errorf("sched: weighted schedule covers %d/%d starts and %d/%d finishes",
			len(s.Start), nt, len(s.Finish), nt)
	}
	n := int32(inst.N())
	var maxFinish int64
	for t := 0; t < nt; t++ {
		v, _ := inst.Split(TaskID(t))
		if s.Start[t] < 0 {
			return fmt.Errorf("sched: task %d unscheduled", t)
		}
		p := s.Assign[v]
		if d := durationOn(s.Weights[v], s.Model.SpeedOf(p)); s.Finish[t] != s.Start[t]+d {
			return fmt.Errorf("sched: task %d duration wrong: [%d,%d) want %d",
				t, s.Start[t], s.Finish[t], d)
		}
		maxFinish = max(maxFinish, s.Finish[t])
	}
	// Every start is below maxFinish, the bound overlap's sort needs.
	err := splitChecks(inst, s.Assign, s.Start, maxFinish, func(t TaskID, _ int64) int64 { return s.Finish[t] }, workers,
		func(i int32) error {
			d, base := inst.DAGs[i], TaskID(i*n)
			for u := int32(0); u < n; u++ {
				fu := s.Finish[base+TaskID(u)]
				pu := s.Assign[u]
				for _, w := range d.Out(u) {
					gap := s.Model.DelayOf(pu, s.Assign[w])
					if s.Start[base+TaskID(w)] < fu+gap {
						return fmt.Errorf("sched: weighted precedence violated on (%d,%d)->(%d,%d)", u, i, w, i)
					}
				}
			}
			return nil
		},
		func(q int32, a, b TaskID) error {
			return fmt.Errorf("sched: processor %d overlap between tasks %d and %d", q, a, b)
		})
	if err != nil {
		return err
	}
	if s.Makespan != maxFinish {
		return fmt.Errorf("sched: weighted makespan %d inconsistent with max finish %d", s.Makespan, maxFinish)
	}
	return nil
}

// completionEvent is one entry of the engine's two event queues, ordered
// by (time, slot): in the completions queue, the task in slot finishes at
// time and frees proc; in the releases queue, its last communication
// delay elapses at time, making it ready on proc.
type completionEvent struct {
	time int64
	slot int32
	proc int32
}

// eventHeap is a typed, slice-backed 4-ary min-heap of events ordered by
// (time, slot), with no interface boxing. Time is an int64 with unbounded
// gaps between events, so neither queue can be a calendar ring.
type eventHeap []completionEvent

// due is the time of the earliest event; an empty heap has none before the
// end of time.
func (h eventHeap) due() int64 {
	if len(h) == 0 {
		return math.MaxInt64
	}
	return h[0].time
}

func (h eventHeap) less(a, b completionEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.slot < b.slot
}

func (h *eventHeap) push(e completionEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !s.less(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() completionEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	n := len(s)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s.less(s[c], s[best]) {
				best = c
			}
		}
		if !s.less(s[best], s[i]) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// weightedTryStart starts the best ready task on processor p at time now,
// if p is idle and has one. finish[s] holds slot s's duration until its
// task starts. A plain function (not a closure) so the warm kernel
// allocates nothing.
func weightedTryStart(p int32, now int64, rq *rankq, busy []bool, finish []int64, completions *eventHeap) {
	if busy[p] || rq.procs[p].count == 0 {
		return
	}
	s := rq.pop(p)
	finish[s] += now
	busy[p] = true
	completions.push(completionEvent{time: finish[s], slot: s, proc: p})
}

// wake lists processor p, once, for a start attempt when the events of the
// current timestamp are drained: it went idle or its ready set grew.
func wake(p int32, touched []bool, woken []int32) []int32 {
	if !touched[p] {
		touched[p] = true
		woken = append(woken, p)
	}
	return woken
}

// ensureWeighted sizes dst's start/finish arrays for nt tasks, reusing
// their backing arrays when the destination schedule is recycled.
func ensureWeighted(dst *WeightedSchedule, nt int) (start, finish []int64) {
	if cap(dst.Start) < nt {
		dst.Start = make([]int64, nt)
	}
	dst.Start = dst.Start[:nt]
	if cap(dst.Finish) < nt {
		dst.Finish = make([]int64, nt)
	}
	dst.Finish = dst.Finish[:nt]
	return dst.Start, dst.Finish
}

// ListScheduleWeightedInto is the allocation-free core of event-driven
// priority list scheduling with per-cell weights under a MachineModel:
// whenever a processor goes idle and has ready tasks, it immediately
// starts the smallest-priority one; a task becomes ready when every
// predecessor has finished and its cross-processor communication delays
// (if the model charges any) have elapsed. All completions and releases
// sharing a timestamp are drained before any start decision at that
// timestamp, so priority choices see every task the moment makes ready —
// the same semantics as the step-driven unit scheduler, and on the same
// data: rank-bitmap ready sets, one node per task, the task graph in
// slots.
//
// Events wait in two heaps: completions, at most one per processor, and
// releases, so a completion's pop never pays for the depth of the pending
// releases. Both are drained while their top equals the current time, in
// no particular order between them, and none is needed: a release time is
// a maximum, an indegree a count and a ready set a set popped by
// (priority, id), so every order of one timestamp's events leaves the
// same state, and everything pushed during a drain is due later (delays
// that release a task at the current time skip the heap, durations are
// at least 1).
//
// A nil model is the uniform machine and reproduces the historical
// delay-free engine exactly: with no delays a successor's release time
// always equals the timestamp being drained, so it goes straight to its
// ready set and no release events are ever queued. On a warm workspace
// and recycled dst the kernel performs zero heap allocations.
func ListScheduleWeightedInto(ws *Workspace, dst *WeightedSchedule, inst *Instance,
	assign Assignment, prio Priorities, weights CellWeights, model *MachineModel) error {
	if err := weights.Validate(inst.N()); err != nil {
		return err
	}
	if err := model.Validate(inst.M); err != nil {
		return err
	}
	prio, err := ws.checkListArgs(inst, assign, prio)
	if err != nil {
		return err
	}
	g, err := inst.taskGraph()
	if err != nil {
		return err
	}
	span := ws.col.Span("sched.weighted.time")
	ws.ensureWeighted(inst)
	n, nt, m := inst.N(), inst.NTasks(), inst.M
	rq := &ws.rq
	remaining := rq.load(prelude{prio: prio, nt: nt, m: m, n: int32(n), assign: assign, dags: inst.DAGs, g: g})
	nodes, succ := rq.node, g.succ
	busy := ws.busyBuf
	touched := ws.touchBuf
	clear(busy)
	clear(touched)
	woken := ws.woken[:0]
	// readyW[s] is the earliest time slot s may start as far as its
	// finished cross-processor predecessors say. A same-processor edge is
	// free and its predecessor finishes no later than now, so it never
	// raises it.
	delayed := model.hasDelays()
	readyW := ws.readyW
	if delayed {
		clear(readyW)
	}
	completions, releases := &ws.completions, &ws.releases
	*completions, *releases = (*completions)[:0], (*releases)[:0]

	// Until a task starts, its finish (per slot until the run writes it
	// back) holds its duration: one division per cell, copied to every
	// direction in the caller's start array, where the write-back finds
	// the durations again.
	outStart, outFinish := ensureWeighted(dst, nt)
	for v, w := range weights {
		outStart[v] = durationOn(w, model.SpeedOf(assign[v]))
	}
	for i := 1; i < inst.K(); i++ {
		copy(outStart[i*n:(i+1)*n], outStart[:n])
	}
	finish := ws.finishW
	toSlots(g, finish, outStart)

	for p := int32(0); p < int32(m); p++ {
		weightedTryStart(p, 0, rq, busy, finish, completions)
	}

	var now int64
	for len(*completions)+len(*releases) > 0 {
		now = min(completions.due(), releases.due())
		for releases.due() == now {
			ev := releases.pop()
			rq.push(ev.proc, nodes[ev.slot].rank)
			woken = wake(ev.proc, touched, woken)
		}
		for completions.due() == now {
			ev := completions.pop()
			remaining--
			busy[ev.proc] = false
			woken = wake(ev.proc, touched, woken)
			for _, sw := range succ[nodes[ev.slot].off:nodes[ev.slot+1].off] {
				w := &nodes[sw]
				if delayed && w.proc != ev.proc {
					if cand := now + model.DelayOf(ev.proc, w.proc); cand > readyW[sw] {
						readyW[sw] = cand
					}
				}
				w.indeg--
				if w.indeg == 0 {
					if delayed && readyW[sw] > now {
						releases.push(completionEvent{time: readyW[sw], slot: sw, proc: w.proc})
					} else {
						rq.push(w.proc, w.rank)
						woken = wake(w.proc, touched, woken)
					}
				}
			}
		}
		for _, p := range woken {
			touched[p] = false
			weightedTryStart(p, now, rq, busy, finish, completions)
		}
		woken = woken[:0]
	}
	if remaining != 0 {
		return fmt.Errorf("sched: weighted deadlock with %d tasks unfinished", remaining)
	}

	// Every task started its duration before it finished.
	fromSlots(g, outFinish, finish)
	for t, d := range outStart {
		outStart[t] = outFinish[t] - d
	}
	dst.Inst, dst.Assign, dst.Weights, dst.Model = inst, assign, weights, model
	dst.Makespan = now // the last event is a completion, and events come in time order
	span.End()
	ws.col.Counter("sched.weighted.runs").Inc()
	return nil
}

// ListScheduleMachine runs the weighted engine under a machine model:
// per-processor speeds and hierarchical communication delays. A pooled
// wrapper over ListScheduleWeightedInto; a nil model is the uniform
// machine.
func ListScheduleMachine(inst *Instance, assign Assignment, prio Priorities, weights CellWeights, model *MachineModel) (*WeightedSchedule, error) {
	ws := GetWorkspace(inst)
	defer ws.Release()
	dst := &WeightedSchedule{}
	if err := ListScheduleWeightedInto(ws, dst, inst, assign, prio, weights, model); err != nil {
		return nil, err
	}
	return dst, nil
}
