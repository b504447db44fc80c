package sched

import "fmt"

// This file holds the tables of the modelled machine (internal/machine),
// and so of every barrier-synchronous executor: the message-passing
// simulator (internal/simulate), the parallel transport solver
// (internal/transport), the fault-injected engine (internal/faults) and
// the workers of the multi-process runner (internal/procrun) all partition
// a schedule the same way — tasks per (processor, step) — and keep
// received cross-processor fluxes in the same dense table. The step driver
// that runs them is in stepdriver.go.

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
	g.off = growInt32(g.off, rows+1)
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

// Order returns every grouped task by (start step, processor, TaskID): an
// execution order that respects the precedences of any validated schedule.
// The slice aliases the table.
func (g *StepTable) Order() []TaskID { return g.tasks }

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

// RecvTable is the flux routing of the modelled machine, resolved once
// per assignment: one receive slot per distinct (producer task, destination
// processor) pair of the cross-processor edges, holding the flux the
// interconnect delivered and the stamp of the sweep it was delivered in,
// and, on either side of it, where every edge's flux is read and where it
// is sent. A consumer sees a flux only if it was delivered since the last
// Reset — stall detection under dropped and delayed messages depends on
// that — and Reset is one increment, not a sweep over the table.
//
// Nobody searches: the consumer addresses its inputs by position (In), the
// producer its cross edges by position (Out), and the interconnect carries
// the slot an Out entry names to Deliver. A step body therefore needs the
// DAGs and the assignment for nothing.
//
// Deliver and Reset belong to the barrier hook; In, Out and Load are the
// step bodies' side. Nothing here is safe for concurrent use.
type RecvTable struct {
	prod  []TaskID // slot -> producing task
	psi   []float64
	stamp []uint32
	cur   uint32

	inOff  []int32 // consumer task t's upwind edges are in[inOff[t]:inOff[t+1]]
	in     []int32
	outOff []int32 // producer task t's cross edges are out[outOff[t]:outOff[t+1]]
	out    []OutEdge
	slotTo []int32 // Build's scratch: per destination, the last slot numbered for it
}

// OutEdge is one cross-processor edge as its producer sees it.
type OutEdge struct {
	To       int32  // the consumer's processor
	Slot     int32  // where the flux arrives there
	Consumer TaskID // whose scheduled start is the message's deadline
}

// Build resolves every edge for the assignment — slots numbered in task
// order, a task's destinations in out-edge order — and empties the store.
// One pass over the out-edges fills both sides: a producer's slot for a
// destination is found once, not once per edge, and an edge's place on its
// consumer's in-side is the next free one, because every DAG lists a cell's
// predecessors in ascending order (dag mirrors the out-lists to build
// them). It reuses the table's storage.
func (r *RecvTable) Build(inst *Instance, assign Assignment) {
	nt, n := inst.NTasks(), int32(inst.N())
	r.inOff = growInt32(r.inOff, nt+1)
	r.outOff = growInt32(r.outOff, nt+1)
	r.slotTo = growInt32(r.slotTo, inst.M)
	edges := 0
	for _, d := range inst.DAGs {
		edges += d.NumEdges()
	}
	r.in = growInt32(r.in, edges)
	r.prod, r.out = r.prod[:0], r.out[:0]
	for q := range r.slotTo {
		r.slotTo[q] = -1
	}
	at := int32(0)
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			r.inOff[base+v] = at // the cursor of v's in-side until the shift below
			at += int32(d.InDegree(v))
		}
	}
	r.inOff[nt] = at
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			t := TaskID(base + u)
			first := int32(len(r.prod))
			r.outOff[t] = int32(len(r.out))
			pu := assign[u]
			for _, w := range d.Out(u) {
				entry := int32(t)
				if q := assign[w]; q != pu {
					s := r.slotTo[q]
					if s < first { // numbered for an earlier producer, or never
						s = int32(len(r.prod))
						r.slotTo[q] = s
						r.prod = append(r.prod, t)
					}
					r.out = append(r.out, OutEdge{To: q, Slot: s, Consumer: TaskID(base + w)})
					entry = ^s
				}
				r.in[r.inOff[base+w]] = entry
				r.inOff[base+w]++
			}
		}
	}
	r.outOff[nt] = int32(len(r.out))
	copy(r.inOff[1:], r.inOff[:nt])
	r.inOff[0] = 0

	slots := len(r.prod)
	if cap(r.psi) < slots {
		r.psi = make([]float64, slots)
		r.stamp = make([]uint32, slots)
	}
	r.psi, r.stamp = r.psi[:slots], r.stamp[:slots]
	clear(r.stamp)
	r.cur = 1
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// In returns, for each upwind edge of task t in the DAG's In order, where
// its flux is read: the producer's task id when the producer is a cell of
// t's own processor (the flux is read where it was written), or ^slot for
// Load when it arrives over the interconnect. The slice aliases the table.
func (r *RecvTable) In(t TaskID) []int32 { return r.in[r.inOff[t]:r.inOff[t+1]] }

// Out returns task t's cross-processor edges in the DAG's Out order: one
// logical message each. The slice aliases the table.
func (r *RecvTable) Out(t TaskID) []OutEdge { return r.out[r.outOff[t]:r.outOff[t+1]] }

// Slots returns the number of receive slots.
func (r *RecvTable) Slots() int { return len(r.prod) }

// Producer returns the task whose flux arrives in the slot.
func (r *RecvTable) Producer(slot int32) TaskID { return r.prod[slot] }

// Load returns the flux in a slot and whether it was delivered since the
// last Reset.
func (r *RecvTable) Load(slot int32) (float64, bool) {
	return r.psi[slot], r.stamp[slot] == r.cur
}

// Reset forgets every delivered flux (a new sweep or epoch begins).
func (r *RecvTable) Reset() {
	r.cur++
	if r.cur == 0 { // stamp wrapped: really clear, once per 2^32 resets
		clear(r.stamp)
		r.cur = 1
	}
}

// Deliver records a flux as received in the slot an Out entry named.
func (r *RecvTable) Deliver(slot int32, psi float64) {
	r.psi[slot], r.stamp[slot] = psi, r.cur
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

// Send is one logical cross-processor flux message, the one in-memory form
// it has between the step body that produced it and the interconnect: task
// Task's flux Psi for receive slot Slot of processor To. The modelled
// machine (internal/machine) queues the sends its bodies produce and hands
// them over in CloseStep, so a flux sent during step t is visible to its
// destination from step t+1 on whatever the interconnect — never to a
// higher-numbered processor later in step t. (When it must arrive is the
// slot's business, not the message's: machine.Machine.Due.)
type Send struct {
	Task TaskID
	To   int32
	Slot int32 // the destination's receive slot (RecvTable.Out)
	Psi  float64
}
