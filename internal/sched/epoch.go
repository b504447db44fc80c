package sched

import "fmt"

// This file holds the tables every barrier-synchronous executor shares:
// the message-passing simulator (internal/simulate), the parallel transport
// solver (internal/transport), the fault-injected engine
// (internal/faults) and the multi-process runner (internal/procrun) all
// partition a schedule the same way — tasks per (processor, step) — and
// the three in-process executors keep received cross-processor fluxes in
// the same dense table. The step driver that runs them is in
// stepdriver.go.

// StepTable groups a schedule's not-yet-done tasks by (processor, start
// step) in one flat CSR array: no hashing on the executors' hot path,
// and rows of one step are adjacent in memory. The zero value is ready
// for Build, and Build reuses the table's storage, so an executor that
// regroups every epoch allocates only when an epoch is larger than any
// before it.
type StepTable struct {
	m, steps int
	off      []int32 // row (step, p) is tasks[off[step*m+p]:off[step*m+p+1]]
	tasks    []TaskID
}

// Build regroups the table for the schedule, preserving TaskID order
// within each (processor, step) row. assign overrides the schedule's
// recorded assignment when non-nil (recovered executions run residual
// schedules over a mutated assignment); done may be nil (group
// everything). It is an error for a not-done task to be unscheduled
// (Start < 0) or to start at or after the makespan — the executor was
// handed a schedule that does not cover its work.
func (g *StepTable) Build(s *Schedule, assign Assignment, done []bool) error {
	inst := s.Inst
	if assign == nil {
		assign = s.Assign
	}
	g.m, g.steps = inst.M, s.Makespan
	rows := g.m * g.steps
	if cap(g.off) < rows+1 {
		g.off = make([]int32, rows+1)
	}
	g.off = g.off[:rows+1]
	clear(g.off)
	n, k := inst.N(), inst.K()
	live := 0
	for i := 0; i < k; i++ {
		for v := 0; v < n; v++ {
			t := i*n + v
			if done != nil && done[t] {
				continue
			}
			st := int(s.Start[t])
			if st < 0 {
				return fmt.Errorf("sched: task %d unscheduled (start < 0)", t)
			}
			if st >= g.steps {
				return fmt.Errorf("sched: task %d starts at step %d, makespan is %d", t, st, g.steps)
			}
			g.off[st*g.m+int(assign[v])+1]++
			live++
		}
	}
	for r := 0; r < rows; r++ {
		g.off[r+1] += g.off[r]
	}
	if cap(g.tasks) < live {
		g.tasks = make([]TaskID, live)
	}
	g.tasks = g.tasks[:live]
	// Place in ascending TaskID order, using off[r] as row r's cursor;
	// afterwards off[r] is the end of row r, so shift it back one row.
	for i := 0; i < k; i++ {
		for v := 0; v < n; v++ {
			t := i*n + v
			if done != nil && done[t] {
				continue
			}
			r := int(s.Start[t])*g.m + int(assign[v])
			g.tasks[g.off[r]] = TaskID(t)
			g.off[r]++
		}
	}
	copy(g.off[1:], g.off[:rows])
	g.off[0] = 0
	return nil
}

// Steps returns the number of steps the table covers (the makespan of
// the schedule it was built from): what an executor hands RunSteps.
func (g *StepTable) Steps() int32 { return int32(g.steps) }

// Tasks returns the tasks processor p starts at the given step, in
// ascending TaskID order. The slice aliases the table; a step outside
// [0, Steps()) has no tasks.
func (g *StepTable) Tasks(p, step int32) []TaskID {
	if step < 0 || int(step) >= g.steps {
		return nil
	}
	r := int(step)*g.m + int(p)
	return g.tasks[g.off[r]:g.off[r+1]]
}

// RecvTable is the receive store of the in-process executors: one slot
// per distinct (producer task, destination processor) pair of an
// assignment's cross-processor edges, holding the flux the interconnect
// delivered and the stamp of the sweep it was delivered in. A consumer
// sees a flux only if it was delivered since the last Reset — stall
// detection under dropped and delayed messages depends on that — and
// Reset is one increment, not a sweep over the table.
//
// The interconnect addresses a slot by (producer, destination); the
// consumer addresses it by position: In(t) lists, edge by edge, where each
// of task t's upwind fluxes arrives, so the hot loop does no search and
// never looks the producer's processor up.
//
// Deliver and Reset belong to the barrier hook; In and Load are the step
// bodies' side.
type RecvTable struct {
	off   []int32 // producer task t's slots are off[t]..off[t+1]
	dest  []int32 // slot -> destination processor
	psi   []float64
	stamp []uint32
	cur   uint32

	inOff  []int32 // consumer task t's upwind edges are inSlot[inOff[t]:inOff[t+1]]
	inSlot []int32 // per upwind edge: its slot, or -1 when the producer is local
}

// Build numbers the slots for the assignment — in task order, a task's
// destinations in out-edge order — and empties the store. It reuses the
// table's storage.
func (r *RecvTable) Build(inst *Instance, assign Assignment) {
	nt := inst.NTasks()
	if cap(r.off) < nt+1 {
		r.off = make([]int32, nt+1)
	}
	r.off = r.off[:nt+1]
	r.dest = r.dest[:0]
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			first := len(r.dest)
			r.off[base+u] = int32(first)
			pu := assign[u]
		edges:
			for _, w := range d.Out(u) {
				q := assign[w]
				if q == pu {
					continue
				}
				for _, seen := range r.dest[first:] {
					if seen == q {
						continue edges
					}
				}
				r.dest = append(r.dest, q)
			}
		}
	}
	slots := len(r.dest)
	r.off[nt] = int32(slots)
	if cap(r.psi) < slots {
		r.psi = make([]float64, slots)
		r.stamp = make([]uint32, slots)
	}
	r.psi, r.stamp = r.psi[:slots], r.stamp[:slots]
	clear(r.stamp)
	r.cur = 1

	if cap(r.inOff) < nt+1 {
		r.inOff = make([]int32, nt+1)
	}
	r.inOff = r.inOff[:nt+1]
	r.inSlot = r.inSlot[:0]
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			r.inOff[base+v] = int32(len(r.inSlot))
			pv := assign[v]
			for _, u := range d.In(v) {
				s := int32(-1)
				if assign[u] != pv {
					s = r.slot(TaskID(base+u), pv)
				}
				r.inSlot = append(r.inSlot, s)
			}
		}
	}
	r.inOff[nt] = int32(len(r.inSlot))
}

// In returns, for each upwind edge of task t in the DAG's In order, the
// slot its flux arrives in, or -1 when the producer is a cell of t's own
// processor (its flux is read where it was written). The slice aliases
// the table.
func (r *RecvTable) In(t TaskID) []int32 { return r.inSlot[r.inOff[t]:r.inOff[t+1]] }

// Load returns the flux in a slot In named and whether it was delivered
// since the last Reset.
func (r *RecvTable) Load(slot int32) (float64, bool) {
	return r.psi[slot], r.stamp[slot] == r.cur
}

func (r *RecvTable) slot(t TaskID, to int32) int32 {
	for s := r.off[t]; s < r.off[t+1]; s++ {
		if r.dest[s] == to {
			return s
		}
	}
	return -1
}

// Reset forgets every delivered flux (a new sweep or epoch begins).
func (r *RecvTable) Reset() {
	r.cur++
	if r.cur == 0 { // stamp wrapped: really clear, once per 2^32 resets
		clear(r.stamp)
		r.cur = 1
	}
}

// Deliver records task t's flux as received by processor to. A pair the
// assignment has no cross edge for is ignored: no consumer would read it.
func (r *RecvTable) Deliver(t TaskID, to int32, psi float64) {
	if s := r.slot(t, to); s >= 0 {
		r.psi[s], r.stamp[s] = psi, r.cur
	}
}

// AllProcs returns the processors 0..m-1 in ascending order: RunSteps'
// processor list when every modelled processor is live.
func AllProcs(m int) []int32 {
	procs := make([]int32, m)
	for p := range procs {
		procs[p] = int32(p)
	}
	return procs
}

// Send is one logical cross-processor flux message: task Task's flux Psi
// for processor To, whose earliest consumer there starts at step Due. An
// executor queues the sends its bodies produce and hands them to the
// interconnect in CloseStep, so a flux sent during step t is visible to
// its destination from step t+1 on whatever the interconnect — never to a
// higher-numbered processor later in step t.
type Send struct {
	Task TaskID
	To   int32
	Due  int32
	Psi  float64
}
