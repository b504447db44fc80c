package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// This file holds the tables of the modelled machine (internal/machine),
// and so of every barrier-synchronous executor: the parallel transport
// solver (internal/transport, whose dependency-only run is the
// simulation), the fault-injected engine (internal/faults) and
// the workers of the multi-process runner (internal/procrun) all partition
// a schedule the same way — tasks per (processor, step) — and keep
// received cross-processor fluxes in the same dense table. The machine's
// Step runs them.

// StepTable groups a schedule's not-yet-done tasks by (processor, start
// step) in one flat CSR array: no hashing on the executors' hot path,
// and rows of one step are adjacent in memory. A row's key is step·m +
// processor, and the offsets are kept per bucket of 2^shift keys, no
// more buckets than four times the tasks plus m, so the table costs
// O(tasks + m) whatever the makespan is — a schedule stretched by comm
// delays or release floors has far more (processor, step) pairs than
// tasks. When m·makespan is within that count, as for a list schedule
// that keeps a quarter of its processors busy, a bucket is one key and
// the offsets are the dense per-row ones; otherwise the table also keeps
// each task's key, and finding a row searches the few tasks of its
// bucket. The zero value is ready for Build, and Build reuses the
// table's storage, so an executor that regroups every epoch allocates
// only when an epoch is larger than any before it.
type StepTable struct {
	m, steps int
	shift    uint
	off      []int32  // bucket k is tasks[off[k]:off[k+1]]: the tasks whose key>>shift is k
	keys     []uint64 // per task, its key (shift > 0 only)
	tasks    []TaskID
}

// Build regroups the table for the schedule, preserving TaskID order
// within each (processor, step) row. assign overrides the schedule's
// recorded assignment when non-nil (recovered executions run residual
// schedules over a mutated assignment); done may be nil (group
// everything). It is an error for a not-done task to be unscheduled
// (Start < 0) or to start at or after the makespan — the executor was
// handed a schedule that does not cover its work. The tasks are counted
// into their buckets and placed in TaskID order; a bucket of more than
// one key is then sorted by key.
func (g *StepTable) Build(s *Schedule, assign Assignment, done []bool) error {
	inst := s.Inst
	if assign == nil {
		assign = s.Assign
	}
	g.m, g.steps = inst.M, s.Makespan
	n, m := inst.N(), uint64(inst.M)
	live := 0
	for t := range inst.NTasks() {
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
		live++
	}

	// The narrowest buckets there are at most 4·live + m of. Each bucket's
	// tasks are counted one bucket on, so that the sum leaves off[b] at
	// where bucket b begins; the scatter uses it as the bucket's cursor,
	// which leaves it at where bucket b+1 begins, so it shifts back.
	top := m*uint64(max(g.steps, 1)) - 1 // the largest key there can be
	g.shift = 0
	for top>>g.shift >= uint64(4*live+inst.M) {
		g.shift++
	}
	buckets := int(top>>g.shift) + 1
	g.off = grow(g.off, buckets+1)
	clear(g.off)
	key := func(t int) uint64 { return uint64(s.Start[t])*m + uint64(assign[t%n]) }
	for t := range inst.NTasks() {
		if done == nil || !done[t] {
			g.off[key(t)>>g.shift+1]++
		}
	}
	for b := 1; b <= buckets; b++ {
		g.off[b] += g.off[b-1]
	}
	g.tasks = grow(g.tasks, live)
	for t := range inst.NTasks() {
		if done == nil || !done[t] {
			b := key(t) >> g.shift
			g.tasks[g.off[b]] = TaskID(t)
			g.off[b]++
		}
	}
	copy(g.off[1:], g.off[:buckets])
	g.off[0] = 0
	if g.shift == 0 {
		return nil
	}
	// A bucket holds several keys: order its tasks by key, stably, so that
	// a row stays in TaskID order.
	g.keys = grow(g.keys, live)
	for b := range buckets {
		bucket := g.tasks[g.off[b]:g.off[b+1]]
		slices.SortStableFunc(bucket, func(x, y TaskID) int { return cmp.Compare(key(int(x)), key(int(y))) })
		for i, t := range bucket {
			g.keys[int(g.off[b])+i] = key(int(t))
		}
	}
	return nil
}

// Steps returns the number of steps the table covers (the makespan of
// the schedule it was built from): the steps an executor runs.
func (g *StepTable) Steps() int32 { return int32(g.steps) }

// Order returns every grouped task by (start step, processor, TaskID): an
// execution order that respects the precedences of any validated schedule.
// A task's index in it is its position. The slice aliases the table.
func (g *StepTable) Order() []TaskID { return g.tasks }

// Row returns the positions of the tasks processor p starts at the given
// step: they are Order()[lo:hi], in ascending TaskID order (lo = hi, where
// they would be, for none). A step outside [0, Steps()) has none, at 0.
func (g *StepTable) Row(p, step int32) (lo, hi int32) {
	if step < 0 || int(step) >= g.steps {
		return 0, 0
	}
	key := uint64(step)*uint64(g.m) + uint64(p)
	return g.at(key), g.at(key + 1)
}

// Span returns the positions of every task the step starts, all
// processors' rows in ascending processor order: Order()[lo:hi], from
// Row(0, step)'s lo to Row(m-1, step)'s hi. A step outside [0, Steps())
// has none, at 0.
func (g *StepTable) Span(step int32) (lo, hi int32) {
	if step < 0 || int(step) >= g.steps {
		return 0, 0
	}
	key := uint64(step) * uint64(g.m)
	return g.at(key), g.at(key + uint64(g.m))
}

// at returns the position of the first task whose key is key or more, key
// at most m·Steps().
func (g *StepTable) at(key uint64) int32 {
	if g.shift == 0 { // a bucket per key
		return g.off[key]
	}
	return g.search(key)
}

// search is at over buckets of several keys.
func (g *StepTable) search(key uint64) int32 {
	k := key >> g.shift // at most the number of buckets
	lo, hi := g.off[k], g.off[min(k+1, uint64(len(g.off)-1))]
	j, _ := slices.BinarySearch(g.keys[lo:hi], key)
	return lo + int32(j)
}

// Tasks returns the tasks processor p starts at the given step, in
// ascending TaskID order: nil for none, and for a step outside
// [0, Steps()). The slice aliases the table.
func (g *StepTable) Tasks(p, step int32) []TaskID {
	if lo, hi := g.Row(p, step); lo < hi {
		return g.tasks[lo:hi]
	}
	return nil
}

// RecvTable is the flux routing of the modelled machine, resolved once per
// assignment and execution order: one receive slot per distinct (producer
// task, destination processor) pair of the cross-processor edges, holding
// the flux handed over into it and the step from which it is visible, and,
// on either side of it, where every edge's flux is read and where it is
// sent.
//
// The routes are laid out by position — a task's index in the execution
// order Build is given (StepTable.Order), then every task that order does
// not hold, in TaskID order — so a sweep, which runs the positions in
// ascending order, streams its in-entries and out-entries instead of
// gathering them task by task. Pos maps a task to its position for those
// that arrive by name (a flux off the wire, a durable producer). Nobody
// searches on the hot path: the consumer addresses its inputs by position
// (At), the producer its cross edges (Out), and each out-entry names the
// slot its flux goes into and the deadline of that slot. A step body
// therefore needs the DAGs and the assignment for nothing.
//
// A consumer sees a flux only if it was handed over since the last Reset
// and is visible at the step it reads it at — stall detection under
// dropped and delayed messages depends on the first, the machine's
// barrier semantics on the second — and Reset is a few additions, not a
// sweep over the table. Nothing here is safe for concurrent use.
type RecvTable struct {
	prod []TaskID   // slot -> producing task
	slot []recvSlot // what was handed over into each
	base uint32     // the stamp of step 0 of the running sweep
	span uint32     // a sweep's stamps: the steps it runs, and one past them

	at     []route // per position, and one past the last
	pos    []int32 // task -> position
	in     []int32
	out    []OutEdge
	slotTo []int32 // Build's scratch: per destination, the last slot numbered for it
}

// recvSlot is one receive slot: the flux handed over into it and the stamp of
// the step from which it is visible, base + that step (older than base: a
// flux of an earlier sweep).
type recvSlot struct {
	psi  float64
	from uint32
}

// route is one position: its task, the task's processor, and where its
// entries begin — position i's are in[at[i].in:at[i+1].in] and
// out[at[i].out:at[i+1].out].
type route struct {
	task    TaskID
	proc    int32
	in, out int32
}

// OutEdge is one cross-processor edge as its producer sees it.
type OutEdge struct {
	To       int32  // the consumer's processor
	Slot     int32  // where the flux arrives there
	Due      int32  // the step the slot's earliest consumer runs (the machine's Route sets it)
	Consumer TaskID // whose scheduled start is one candidate for Due
}

// Build resolves every edge for the assignment, laid out in the execution
// order of the step table the sweeps run (nil: TaskID order) — slots
// numbered in task order, a task's destinations in out-edge order, its
// inputs in the DAG's In order — and empties the store. It reuses the
// table's storage.
func (r *RecvTable) Build(inst *Instance, assign Assignment, steps *StepTable) {
	nt := inst.NTasks()
	var order []TaskID
	r.span = math.MaxInt32 + 1 // any step an int32 can name
	if steps != nil {
		order, r.span = steps.Order(), uint32(steps.Steps())+1
	}
	if cap(r.at) < nt+1 {
		r.at = make([]route, nt+1)
	}
	r.at = r.at[:nt+1]
	r.pos = grow(r.pos, nt)
	for t := range r.pos {
		r.pos[t] = -1
	}
	n := inst.N()
	for i, t := range order {
		r.at[i].task, r.at[i].proc, r.pos[t] = t, assign[int(t)%n], int32(i)
	}
	next := int32(len(order))
	for t, i := range r.pos {
		if i < 0 {
			r.at[next].task, r.at[next].proc, r.pos[t] = TaskID(t), assign[t%n], next
			next++
		}
	}
	r.slotTo = grow(r.slotTo, inst.M)
	for q := range r.slotTo {
		r.slotTo[q] = -1
	}

	// Both passes walk the DAGs in TaskID order, as they are stored, and
	// scatter into positions. The first counts each position's entries —
	// its upwind edges, its cross-processor out-edges — one position on,
	// so that the sum below leaves at[i] at where position i's begin.
	for dir, d := range inst.DAGs {
		base := dir * n
		for v := range int32(n) {
			cross, pv := int32(0), assign[v]
			for _, w := range d.Out(v) {
				if assign[w] != pv {
					cross++
				}
			}
			i := r.pos[base+int(v)] + 1
			r.at[i].in, r.at[i].out = int32(d.InDegree(v)), cross
		}
	}
	r.at[0].in, r.at[0].out = 0, 0
	for i := 1; i <= nt; i++ {
		r.at[i].in += r.at[i-1].in
		r.at[i].out += r.at[i-1].out
	}
	r.in = grow(r.in, int(r.at[nt].in))
	if cap(r.out) < int(r.at[nt].out) {
		r.out = make([]OutEdge, r.at[nt].out)
	}
	r.out = r.out[:r.at[nt].out]

	// The second fills them: a producer's out-entries where its position's
	// begin, and each edge's entry on its consumer's in-side at the next
	// free place there — in the DAG's In order, because producers come in
	// ascending order and every DAG lists a cell's predecessors ascending
	// (dag mirrors the out-lists to build them). at[i].in is position i's
	// cursor until the shift after the pass. A producer's slot for a
	// destination is found once, not once per edge.
	if cap(r.prod) < len(r.out) { // a slot per cross edge at most
		r.prod = make([]TaskID, 0, len(r.out))
	}
	r.prod = r.prod[:0]
	for dir, d := range inst.DAGs {
		base := TaskID(dir * n)
		for u := range int32(n) {
			t := base + TaskID(u)
			first, pu := int32(len(r.prod)), assign[u]
			k := r.at[r.pos[t]].out
			for _, w := range d.Out(u) {
				entry := int32(t)
				if q := assign[w]; q != pu {
					s := r.slotTo[q]
					if s < first { // numbered for an earlier producer, or never
						s = int32(len(r.prod))
						r.slotTo[q] = s
						r.prod = append(r.prod, t)
					}
					r.out[k] = OutEdge{To: q, Slot: s, Consumer: base + TaskID(w)}
					k++
					entry = ^s
				}
				j := r.pos[base+TaskID(w)]
				r.in[r.at[j].in] = entry
				r.at[j].in++
			}
		}
	}
	for i := nt; i > 0; i-- {
		r.at[i].in = r.at[i-1].in
	}
	r.at[0].in = 0

	slots := len(r.prod)
	if cap(r.slot) < slots {
		r.slot = make([]recvSlot, slots)
	}
	r.slot = r.slot[:slots]
	clear(r.slot)
	r.base = 1
}

// Out returns the cross-processor edges of the task at position i in the
// DAG's Out order: one logical message each. The slice aliases the table.
func (r *RecvTable) Out(i int32) []OutEdge { return r.out[r.at[i].out:r.at[i+1].out] }

// At returns the task at position i, its processor, and, for each of
// its upwind edges in the DAG's In order, where the edge's flux is read:
// the producer's task id when the producer is a cell of the task's own
// processor (the flux is read where it was written), or ^slot for Load
// when it arrives over the interconnect. The slice aliases the table.
func (r *RecvTable) At(i int32) (t TaskID, p int32, in []int32) {
	x, y := &r.at[i], &r.at[i+1]
	return x.task, x.proc, r.in[x.in:y.in]
}

// Pos returns the position of task t.
func (r *RecvTable) Pos(t TaskID) int32 { return r.pos[t] }

// Slots returns the number of receive slots; they are numbered from 0.
func (r *RecvTable) Slots() int32 { return int32(len(r.prod)) }

// Producer returns the task whose flux arrives in the slot.
func (r *RecvTable) Producer(slot int32) TaskID { return r.prod[slot] }

// Load returns the flux in a slot and whether it is there for a consumer
// running at the given step: handed over since the last Reset, visible
// from that step or an earlier one.
func (r *RecvTable) Load(slot, step int32) (float64, bool) {
	x := &r.slot[slot]
	return x.psi, x.from-r.base <= uint32(step)
}

// Reset forgets every flux handed over (a new sweep or epoch begins): the
// next sweep's stamps start past every one the last could write.
func (r *RecvTable) Reset() {
	next := uint64(r.base) + uint64(r.span)
	if next+uint64(r.span) > math.MaxUint32 { // the stamps would wrap: really clear, once per ~2^32 steps
		clear(r.slot)
		next = 1
	}
	r.base = uint32(next)
}

// Deliver hands a flux over into the slot an Out entry named, visible from
// step from of the running sweep on. Only the slot's producer writes it.
func (r *RecvTable) Deliver(slot int32, psi float64, from int32) {
	r.slot[slot] = recvSlot{psi: psi, from: r.base + uint32(from)}
}

// Send is one logical cross-processor flux message, the one in-memory form
// it has between the step body that produced it and the interconnect while
// the machine's owner must see it first (internal/machine's Intercept):
// task Task's flux Psi for receive slot Slot of processor To, due at the
// slot's deadline. A flux sent during step t is visible to its destination
// from step t+1 on whatever the interconnect — never to a higher-numbered
// processor later in step t.
type Send struct {
	Task TaskID
	To   int32
	Slot int32 // the destination's receive slot (RecvTable.Out)
	Due  int32 // the step the slot's earliest consumer runs (OutEdge.Due)
	Psi  float64
}
