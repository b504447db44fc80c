// Package machine is the paper's machine, modelled once: m processors
// that each run the tasks a schedule gives them at step t and exchange the
// cross-processor fluxes it implies. It owns the flux routes
// (sched.RecvTable, laid out in the order the bodies run them), the done
// marks, the per-processor acks, the interconnect (deadline-driven
// envelopes, or one transmission per message) and the traffic accounting,
// and has the one step body (Step: one loop over the step's positions of
// the step table, where the live processors' rows lie side by side), the
// one hand-over of a flux (hand), and one per-task arithmetic (taskFlux:
// the inputs read, the cell balance) that the body and the flat sweep
// (Sweep) both compute a flux with. Every executor is this machine: the
// fault engine (internal/faults) steps it epoch by epoch — a fault-free
// transport solve, and a simulation (transport.DependencyOnly), are the
// engine with an empty plan — and runs an epoch with nothing left to
// decide as one Sweep; under internal/procrun its processors are worker
// processes — each steps a machine whose one live processor is its own
// rank, the orchestrator replays their acks (Replay) through the same
// hand-over, and a handed-over flux lands in a frame (Wire) instead of a
// slot.
//
// The invariants the executors rely on:
//
//   - A body writes its own tasks' state — their fluxes and done marks,
//     its processor's ack — and the receive slots those tasks feed (and
//     counts its messages into the envelope ledger, which does not depend
//     on the order the bodies run in), and nothing it writes is visible to
//     another body before the next step: a flux handed over during step t
//     is visible from t+1, where the interconnect would have put it by the
//     time its earliest consumer runs. It reads no flux another processor
//     wrote except from a receive slot.
//   - The body never interprets a missing flux. It reports (task, missing
//     producer) in its ack and stops, the barrier passes it on as a
//     *StallError, and the owner decides: a stall to recover from if the
//     fault engine's injector explains it, an infeasible schedule if
//     nothing does.
//   - NoBatch is the oracle mode of the same machine: the same hand-over,
//     the same flux values, their production order and
//     Stats.{Messages,Rounds}; only the transmissions counted differ.
//   - A barrier costs the step's positions, not its processors: the step's
//     traffic is tallied as its tasks complete, CloseStep folds the acks
//     only when a row stopped short, and OpenStep's flush visits only the
//     open envelopes. The comm.* counters are posted once per epoch
//     (Discard), not per barrier.
//   - A sweep's traffic follows from the routes, their deadlines, the live
//     processors and the interconnect, so it is counted once per layout:
//     Sweep, which has no barriers, adds the traffic its owner recorded
//     when it stepped the same layout whole (the fault engine keeps that
//     record and drops it wherever it calls Build or Route). The flat loop
//     decides nothing: an input it finds missing ends the sweep in an
//     error, never in a flux.
//   - A task reads and writes only its own direction's state: a direction
//     block's tasks are one TaskID range, and so are their fluxes, done
//     marks and receive slots (numbered in producer order). A large flat
//     sweep therefore runs its direction blocks side by side, each in step
//     order, and computes every flux bit for bit as one loop would.
//
// A Machine belongs to one step loop and is not safe for concurrent use.
package machine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"sweepsched/internal/comm"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
)

// Balance is the cell balance the bodies compute a task's flux with, from
// its averaged upwind inflow:
//
//	psi = (Q[v] + inflow) / Denom,  v the task's cell
//
// Its owner fills it once per sweep (the transport solver: the source and
// scattering term per cell, internal/transport's CellBalance); a zero Q
// tracks dependencies only. It is constant within a sweep, so
// a replayed task reproduces its flux bitwise.
type Balance struct {
	Q     []float64 // per cell: one entry per cell of the instance
	Denom float64
}

// Stats is the communication a machine actually performed — observed
// traffic, not schedule-derived analytics (sched.C1/C2 describe the
// schedule; these describe the run, which may differ under recovery
// rescheduling).
type Stats struct {
	// Messages counts logical cross-processor flux messages sent, one per
	// cross edge per sweep. Identical batched or unbatched.
	Messages int64
	// Batches counts physical transmissions carrying them: envelopes in
	// batched mode, one per message unbatched.
	Batches int64
	// Bytes is the wire(-model) cost of those transmissions
	// (comm.BatchWireBytes / comm.PerMessageWireBytes).
	Bytes int64
	// Rounds is Σ_step max_p(messages sent by p at that step) — the
	// observed analogue of the paper's C2 metric.
	Rounds int64
}

// plus and Minus add and take away another account of traffic.
func (s Stats) plus(d Stats) Stats {
	return Stats{s.Messages + d.Messages, s.Batches + d.Batches, s.Bytes + d.Bytes, s.Rounds + d.Rounds}
}

func (s Stats) Minus(d Stats) Stats {
	return Stats{s.Messages - d.Messages, s.Batches - d.Batches, s.Bytes - d.Bytes, s.Rounds - d.Rounds}
}

// Ack is one modelled processor's account of the running step, written by
// its body and folded at the barrier.
type Ack struct {
	Completed int32 // tasks run: a prefix of the processor's row of the step
	Sent      int32 // logical cross-processor messages those tasks produced
	// Stalled: task StallTask could not run because the flux of StallMiss,
	// a task of another processor, is not in its receive slot (both -1
	// otherwise).
	Stalled   bool
	StallTask sched.TaskID
	StallMiss sched.TaskID
	Err       error // a same-processor input was not done: the schedule is infeasible
}

// Machine is the modelled machine. Its owner starts from the zero value,
// sets the fields of the first group and calls Build.
type Machine struct {
	NoBatch bool             // per-message interconnect (set before Build)
	Steps   *sched.StepTable // the rows the bodies run
	Procs   []int32          // the live processors, ascending
	Balance
	Psi  []float64 // per task: a processor reads only fluxes its own tasks wrote
	Done []bool    // per task: run this sweep (or durable from an earlier epoch)

	// Wire, when set, is where a handed-over flux lands instead of in a
	// receive slot here: with the processor it is for, which runs in
	// another process and keeps its own slots (internal/procrun puts it in
	// that worker's frames, and Flushed says which are due). Deadlines,
	// envelopes and the accounting are the same either way.
	Wire func(to int32, t sched.TaskID, psi float64)

	// Intercept makes the bodies queue their sends in Sent for the owner to
	// see and rewrite; CloseStep hands the queue over in production order
	// (the fault engine sets it while its injector has an event pending).
	Intercept bool
	Sent      []sched.Send

	Recv sched.RecvTable
	Acks []Ack // per processor
	Comm Stats

	outbox  *comm.Outbox
	flushed []int32 // the destinations whose envelopes the last OpenStep shipped
	ctr     comm.Counters
	posted  Stats    // what of Comm the counters have been given
	tally   tally    // the running step's, since the last CloseStep
	runs    []uint64 // per processor: the stamp of the Step its row runs in, 0 once stopped short
	stamp   uint64   // the running Step's: one more per Step, never 0
	due     []int32  // Route's scratch: per receive slot, its deadline

	cells, dirs int             // the instance's, which a task's direction follows from
	split       int             // a flat sweep's direction blocks on this layout: 0 until its first
	blocks      []block         // the first split of them are this layout's
	lists       []int32         // their lists, block after block
	flat        func()          // sweeps the next block not yet claimed; Sweep makes it once
	claimed     atomic.Int32    // the blocks of the running split sweep claimed so far
	flatCtx     context.Context // the running split sweep's
	joined      sync.WaitGroup  // its blocks, the caller's included
}

// sweepCrossover is the step table size, in tasks, from which a flat sweep
// splits its directions across goroutines: below it starting and joining
// them costs more than the split saves (DESIGN.md §7 has the measurement).
const sweepCrossover = 12_000

// block is one direction block of a split flat sweep: the positions of its
// directions' tasks in step order, those of each step led by ^step.
type block struct {
	list []int32
	last int32 // the step whose marker layBlocks appended last
	err  error // how its part of the last split sweep ended, at position at
	at   int32
}

// tally is what the completions of the running step add up to, kept by
// complete as they happen, so that closing the step costs its positions,
// not its processors.
type tally struct {
	completed, sent int32
	most            int32 // the largest Ack.Sent of the step so far
	stopped         bool  // a row stopped short: some ack holds a stall or an error
}

// Observe attaches a stats collector for the comm.* series, posted at
// every Discard (an epoch's teardown). A nil collector detaches.
func (m *Machine) Observe(col *obs.Collector) { m.ctr = comm.NewCounters(col) }

// post gives the counters what Comm gained since they were last given it.
func (m *Machine) post() {
	d := m.Comm.Minus(m.posted)
	m.ctr.Logical(int(d.Messages))
	m.ctr.Transmitted(d.Batches, d.Bytes)
	m.posted = m.Comm
}

// Build resolves every flux route for the assignment, laid out in the
// order of Steps (TaskID order without one), empties the receive slots,
// the envelopes and the step's tally, and leaves the direction blocks of a
// split flat sweep to the layout's first; it reuses the machine's storage.
// The slots' deadlines are Route's to set, which a batched machine needs
// before it steps.
func (m *Machine) Build(inst *sched.Instance, assign sched.Assignment) {
	m.Recv.Build(inst, assign, m.Steps)
	m.cells, m.dirs, m.split = inst.N(), inst.K(), 0
	if len(m.Acks) != inst.M {
		m.Acks, m.runs = make([]Ack, inst.M), make([]uint64, inst.M)
	}
	if m.outbox == nil { // the first Build
		m.outbox = comm.NewOutbox(inst.M)
	}
	m.outbox.DiscardAll()
	m.tally = tally{}
}

// Route fixes, before the first step of a sweep or an epoch, what the
// bodies would otherwise work out per message. A durable producer (done
// before the epoch started; nil durable: none is) sends nothing: its flux
// is placed in its receive slots straight from Psi, visible from the first
// step. Every other out-entry gets its slot's deadline: a slot is keyed by
// (producing task, destination), so one delivery serves every consumer of
// that pair and must arrive for the earliest one not yet durable —
// comm.NoDue when all of them are. (With a Drop on a sibling edge the
// oracle's surviving delivery serves both; the envelope must be as early.)
// One pass takes each slot's minimum over its out-entries, a second
// writes it to them.
func (m *Machine) Route(start []int32, durable []bool) {
	if slots := int(m.Recv.Slots()); cap(m.due) < slots {
		m.due = make([]int32, slots)
	} else {
		m.due = m.due[:slots]
	}
	due := m.due
	for s := range due {
		due[s] = comm.NoDue
	}
	positions := int32(len(m.Psi))
	for i := range positions {
		t, _, _ := m.Recv.At(i)
		if durable != nil && durable[t] {
			for _, o := range m.Recv.Out(i) {
				m.Recv.Deliver(o.Slot, m.Psi[t], 0)
			}
			continue
		}
		for _, o := range m.Recv.Out(i) {
			if durable == nil || !durable[o.Consumer] {
				due[o.Slot] = min(due[o.Slot], start[o.Consumer])
			}
		}
	}
	for i := range positions {
		out := m.Recv.Out(i)
		for j := range out {
			out[j].Due = due[out[j].Slot]
		}
	}
}

// RouteError reports a flux that arrived by name for a task that does not
// exist or has no edge into the destination.
type RouteError struct {
	Task sched.TaskID
	To   int32
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("machine: no route for the flux of task %d into processor %d", e.Task, e.To)
}

// DeliverNamed places a flux that arrived off a wire at a barrier, named by
// its producing task, in the slot the routes give (task, to), visible now.
func (m *Machine) DeliverNamed(t sched.TaskID, to int32, psi float64) error {
	if t >= 0 && int(t) < len(m.Psi) {
		for _, o := range m.Recv.Out(m.Recv.Pos(t)) {
			if o.To == to {
				m.Recv.Deliver(o.Slot, psi, 0)
				return nil
			}
		}
	}
	return &RouteError{Task: t, To: to}
}

// Step is the only step body there is, the loop every stepped epoch and
// worker runs between two barriers (a flat sweep has no barriers): one
// loop over the positions of the step (Steps.Span), which hold every
// processor's row of it in ascending processor order. A position whose
// processor is not live, or whose row already stopped short, is skipped.
// Every route was resolved by Build, in the order the loop runs: taskFlux
// reads an upwind flux at the producer's task id, which must be done, or
// in a receive slot, where it must be visible, and takes the cell balance
// of their average; a completed task is marked done and hands its
// cross-processor fluxes over. Each live processor's ack is written once,
// reset before the loop; what stops a row short (a local input not done, a
// flux not received) ends that row, not the step, so an account is a
// prefix of its row. A processor is live for one Step when its runs entry
// holds that Step's stamp, which the reset writes and a row that stops
// short clears: one pass over Procs per step, none after the loop.
func (m *Machine) Step(step int32) {
	lo, hi := m.Steps.Span(step)
	m.step(step, lo, hi)
}

// step is Step over the step's positions [lo, hi).
func (m *Machine) step(step, lo, hi int32) {
	runs := m.runs
	m.stamp++
	stamp := m.stamp
	for _, p := range m.Procs {
		m.Acks[p] = Ack{StallTask: -1, StallMiss: -1}
		runs[p] = stamp
	}
	for i := lo; i < hi; i++ {
		t, p, in := m.Recv.At(i)
		if runs[p] != stamp {
			continue
		}
		a := &m.Acks[p]
		val, x, ok := m.taskFlux(t, in, step)
		if !ok {
			if x >= 0 { // a local producer's task id
				a.Err = localMissing(p, t, step, x)
			} else {
				a.Stalled, a.StallTask, a.StallMiss = true, t, m.Recv.Producer(^x)
			}
			runs[p], m.tally.stopped = 0, true
			continue
		}
		m.complete(a, i, t, step, val)
	}
}

// taskFlux is the per-task arithmetic of both loops, the step body (step)
// and the flat sweep (Sweep), so that they compute one flux bit for bit:
// task t's upwind fluxes, read where Build routed them (in, as At gives
// it) — a local producer's at its task id, which must be done, a remote
// one's in its receive slot, where it must be visible at step — averaged
// in In order, and the cell balance of that average. At the first
// input that is missing it returns ok false and that input's entry x.
func (m *Machine) taskFlux(t sched.TaskID, in []int32, step int32) (val float64, x int32, ok bool) {
	psi, done := m.Psi, m.Done
	inflow := 0.0
	for _, x := range in {
		if x >= 0 {
			if !done[x] {
				return 0, x, false
			}
			inflow += psi[x]
			continue
		}
		v, have := m.Recv.Load(^x, step)
		if !have {
			return 0, x, false
		}
		inflow += v
	}
	if len(in) > 0 {
		inflow /= float64(len(in))
	}
	return (m.Q[int32(t)%int32(len(m.Q))] + inflow) / m.Denom, 0, true
}

// localMissing is the error of processor p's task t, whose local input x
// is not done at step: the schedule is infeasible.
func localMissing(p int32, t sched.TaskID, step, x int32) error {
	return fmt.Errorf("machine: proc %d task %d at step %d: local input %d not done", p, t, step, x)
}

// complete is what task t, at position i, having run at the step means to
// the machine, wherever it ran: its flux is in Psi, it is done, its
// processor's account and the step's tally count it, and its
// cross-processor fluxes are handed over (queued in Sent while the owner
// intercepts).
func (m *Machine) complete(a *Ack, i int32, t sched.TaskID, step int32, val float64) {
	m.Psi[t] = val
	m.Done[t] = true
	a.Completed++
	out := m.Recv.Out(i)
	a.Sent += int32(len(out))
	m.tally.completed++
	m.tally.sent += int32(len(out))
	m.tally.most = max(m.tally.most, a.Sent)
	if m.Intercept {
		for _, o := range out {
			m.Sent = append(m.Sent, sched.Send{Task: t, To: o.To, Slot: o.Slot, Due: o.Due, Psi: val})
		}
		return
	}
	m.hand(t, out, val, step+1)
}

// hand is the one hand-over of a flux, task t's over the given edges: into
// each one's receive slot (or onto the Wire), visible from step from, and,
// batched, counted into its destination's envelope, due at the edge's Due.
// It takes a task's edges at once so that a message costs no call.
func (m *Machine) hand(t sched.TaskID, out []sched.OutEdge, psi float64, from int32) {
	for _, o := range out {
		if m.Wire != nil {
			m.Wire(o.To, t, psi)
		} else {
			m.Recv.Deliver(o.Slot, psi, from)
		}
		if !m.NoBatch {
			m.outbox.Add(o.To, o.Due)
		}
	}
}

// AccountError reports an account of a step, from a processor that ran it
// elsewhere, that is not a prefix of the processor's row: its completion
// Index names task Task, and the row has another there or no more.
type AccountError struct {
	Proc, Step int32
	Index      int
	Task       sched.TaskID
}

func (e *AccountError) Error() string {
	return fmt.Sprintf("machine: proc %d step %d: reported completion %d is task %d, not its row's", e.Proc, e.Step, e.Index, e.Task)
}

// Replay is Step's row for a processor whose body ran in another process
// (internal/procrun): ran, the tasks it reports complete with their
// fluxes, must be a prefix of its row of the step, as a body's account
// here would be, and is completed as such; what stopped it short (by's
// stall or error, nothing else of by is read) ends the account as it would
// a body's. The zero Ack is a processor that reports nothing. A refused
// account keeps what it completed before the refusal, in the step's tally
// too: its owner ends the sweep.
func (m *Machine) Replay(p, step int32, ran []comm.Item, by Ack) error {
	a := &m.Acks[p]
	*a = Ack{StallTask: -1, StallMiss: -1, Err: by.Err}
	if by.Stalled {
		a.Stalled, a.StallTask, a.StallMiss = true, by.StallTask, by.StallMiss
	}
	if by.Err != nil || by.Stalled {
		m.tally.stopped = true
	}
	lo, hi := m.Steps.Row(p, step)
	row := m.Steps.Order()[lo:hi]
	for i, it := range ran {
		if i >= len(row) || it.Task != row[i] {
			return &AccountError{Proc: p, Step: step, Index: i, Task: it.Task}
		}
		m.complete(a, lo+int32(i), it.Task, step, it.Psi)
	}
	return nil
}

// OpenStep is the barrier before a step: exactly the envelopes whose
// earliest consumer runs now are transmitted, so one transmission carries
// every flux a destination needs next, accumulated across all senders and
// all prior steps. (Per message there are no envelopes.)
func (m *Machine) OpenStep(step int32) {
	var batches, bytes int64
	m.flushed, batches, bytes = m.outbox.FlushDue(step)
	m.Comm.Batches += batches
	m.Comm.Bytes += bytes
}

// Flushed returns, ascending, the destinations whose envelopes the last
// OpenStep transmitted (valid until the next): over a wire, what was handed
// over for them since their previous one rides this step's frames.
func (m *Machine) Flushed() []int32 { return m.flushed }

// Hand gives the interconnect one message from outside the bodies (a
// delayed one that matured): visible from step at, and due then.
func (m *Machine) Hand(x sched.Send, at int32) {
	m.hand(x.Task, []sched.OutEdge{{To: x.To, Slot: x.Slot, Due: at}}, x.Psi, at)
}

// StallError is how CloseStep reports a step in which no processor erred
// but at least one could not run a task for want of a cross-processor
// flux; it names the lowest such processor's. What it means is its
// receiver's to say: a fault-free sweep has nothing else to blame and
// returns it as the infeasible schedule it is; the fault engine asks its
// injector first.
type StallError struct {
	Proc, Step     int32
	Task, Producer sched.TaskID
}

func (e *StallError) Error() string {
	return fmt.Sprintf("machine: proc %d task %d at step %d: flux from task %d not received", e.Proc, e.Task, e.Step, e.Producer)
}

// CloseStep is the barrier after a step: an intercepted queue of sends is
// handed over in the order it was produced (processor, then task), visible
// from the next step, and the step's tally is added to the traffic:
// Comm.Messages its sends, Comm.Rounds its per-processor maximum. Only
// when a row stopped short are the acks folded, in processor order, and
// the lowest processor's error returned — or, when none erred, a
// *StallError if one is missing a flux. The tally, kept as the tasks
// completed, starts again for the next step.
func (m *Machine) CloseStep(step int32) error {
	for _, x := range m.Sent {
		m.hand(x.Task, []sched.OutEdge{{To: x.To, Slot: x.Slot, Due: x.Due}}, x.Psi, step+1)
	}
	m.Sent = m.Sent[:0]
	t := m.tally
	m.tally = tally{}
	m.Comm.Messages += int64(t.sent)
	m.Comm.Rounds += int64(t.most)
	if m.NoBatch { // per-message cost model: one transmission per logical message
		m.Comm.Batches += int64(t.sent)
		m.Comm.Bytes += comm.PerMessageWireBytes(int(t.sent))
	}
	if !t.stopped {
		return nil
	}
	stalled := int32(-1) // the lowest processor missing a flux
	for _, p := range m.Procs {
		a := &m.Acks[p]
		if a.Err != nil {
			return a.Err
		}
		if a.Stalled && stalled < 0 {
			stalled = p
		}
	}
	if stalled < 0 {
		return nil
	}
	a := &m.Acks[stalled]
	return &StallError{Proc: stalled, Step: step, Task: a.StallTask, Producer: a.StallMiss}
}

// Completed returns the tasks completed since the last CloseStep: the
// running step's, by bodies and Replay alike.
func (m *Machine) Completed() int32 { return m.tally.completed }

// Discard forgets the open envelopes without transmitting them and the
// tally of a step left unclosed (an epoch's teardown: the next epoch reads
// completed producers' fluxes from the durable Psi), and posts the
// epoch's traffic to the counters.
func (m *Machine) Discard() {
	m.outbox.DiscardAll()
	m.tally = tally{}
	m.post()
}

// Sweep runs every step of Steps once, flat, from empty receive slots and
// nothing done, and adds traffic to Comm: what a stepped run of the same
// routes, deadlines, live processors and interconnect added, which its
// owner recorded (the fault engine's clean epochs). It has no barriers,
// acks or envelopes and decides nothing — per step it checks ctx, per
// position, in the step table's order, it computes the task's flux
// (taskFlux) into Psi, marks it done and hands it into its receive slots,
// visible from the next step. Every position runs, whatever Procs holds.
// It returns ctx.Err() before a step that follows a cancellation, having
// added nothing to Comm; an input it finds missing ends it in an error — a
// local input not done as Step reports one, a flux not received as a
// *StallError — never in a flux. A machine whose sweep failed is not
// reusable.
//
// A task reads nothing of another direction, so from sweepCrossover tasks
// up the directions are split into min(GOMAXPROCS, k) contiguous blocks,
// fixed at the layout's first flat sweep, and each block runs its own
// positions in step order, checking ctx before each of its steps: the
// caller's goroutine runs one, a goroutine each the others, all joined
// before Sweep returns. Every flux is the one loop's, bit for bit,
// and of the blocks that failed the error at the lowest position is
// returned, which is the error one loop returns. Below the crossover, or
// with one worker, Sweep is that loop on the caller's goroutine.
func (m *Machine) Sweep(ctx context.Context, traffic Stats) error {
	m.Recv.Reset()
	clear(m.Done)
	if blocks := m.directionBlocks(); blocks != nil {
		if m.flat == nil {
			m.flat = func() {
				defer m.joined.Done()
				b := &m.blocks[m.claimed.Add(1)-1]
				ctx, psi, done := m.flatCtx, m.Psi, m.Done
				b.err = nil
				st := int32(0)
				for j, i := range b.list {
					if i < 0 { // the next step's positions follow
						if err := ctx.Err(); err != nil {
							b.err, b.at = err, b.list[j+1]
							return
						}
						st = ^i
						continue
					}
					t, p, in := m.Recv.At(i)
					val, x, ok := m.taskFlux(t, in, st)
					if !ok {
						b.err, b.at = m.missing(t, p, st, x), i
						return
					}
					psi[t], done[t] = val, true
					for _, o := range m.Recv.Out(i) {
						m.Recv.Deliver(o.Slot, val, st+1)
					}
				}
			}
		}
		if err := m.fan(ctx, blocks); err != nil {
			return err
		}
	} else {
		psi, done := m.Psi, m.Done
		for st := range m.Steps.Steps() {
			if err := ctx.Err(); err != nil {
				return err
			}
			lo, hi := m.Steps.Span(st)
			for i := lo; i < hi; i++ {
				t, p, in := m.Recv.At(i)
				val, x, ok := m.taskFlux(t, in, st)
				if !ok {
					return m.missing(t, p, st, x)
				}
				psi[t], done[t] = val, true
				for _, o := range m.Recv.Out(i) {
					m.Recv.Deliver(o.Slot, val, st+1)
				}
			}
		}
	}
	m.Comm = m.Comm.plus(traffic)
	return nil
}

// fan runs a split flat sweep's blocks, one on the caller's goroutine and
// one goroutine each the others, and returns, once all have ended, the
// error at the lowest position of those that failed.
func (m *Machine) fan(ctx context.Context, blocks []block) error {
	m.flatCtx = ctx
	m.claimed.Store(0)
	m.joined.Add(len(blocks))
	for range len(blocks) - 1 {
		go m.flat()
	}
	m.flat()
	m.joined.Wait()
	m.flatCtx = nil
	var err error
	at := int32(math.MaxInt32)
	for _, b := range blocks {
		if b.err != nil && b.at < at {
			err, at = b.err, b.at
		}
	}
	return err
}

// missing is a flat sweep's error for processor p's task t, whose input x
// (an entry of At's) it found missing at step: a local input not done as
// Step reports one, a flux not received as a *StallError.
func (m *Machine) missing(t sched.TaskID, p, step, x int32) error {
	if x >= 0 {
		return localMissing(p, t, step, x)
	}
	return &StallError{Proc: p, Step: step, Task: t, Producer: m.Recv.Producer(^x)}
}

// directionBlocks returns the direction blocks a flat sweep on this layout
// runs, or nil when it runs as one loop. The first flat sweep after Build
// decides: min(GOMAXPROCS, k) blocks when the step table holds
// sweepCrossover tasks or more, and lays their positions out in the
// machine's storage.
func (m *Machine) directionBlocks() []block {
	if m.split == 0 {
		m.split = 1
		if len(m.Steps.Order()) >= sweepCrossover {
			m.split = min(runtime.GOMAXPROCS(0), m.dirs)
		}
		if m.split > 1 {
			m.layBlocks()
		}
	}
	if m.split == 1 {
		return nil
	}
	return m.blocks[:m.split]
}

// layBlocks splits the directions into m.split contiguous blocks —
// direction d is block d·split/k's — and lists each block's positions in
// step order. One array holds the lists, block after block, each as long
// as it can get: a position per task of its directions and a marker per
// step, no more steps than positions.
func (m *Machine) layBlocks() {
	w, k, cells := m.split, m.dirs, m.cells
	if cap(m.blocks) < w {
		m.blocks = make([]block, w)
	}
	blocks := m.blocks[:w]
	steps := int(m.Steps.Steps())
	if n := k*cells + min(w*steps, k*cells); cap(m.lists) < n {
		m.lists = make([]int32, n)
	}
	lo, end := 0, 0
	for j := range blocks {
		hi := ((j+1)*k + w - 1) / w * cells // the first task of block j+1's first direction
		n := hi - lo + min(steps, hi-lo)
		blocks[j] = block{list: m.lists[end : end : end+n], last: -1}
		lo, end = hi, end+n
	}
	for st := range m.Steps.Steps() {
		lo, hi := m.Steps.Span(st)
		for i := lo; i < hi; i++ {
			t, _, _ := m.Recv.At(i)
			b := &blocks[int(t)/cells*w/k]
			if b.last != st {
				b.list, b.last = append(b.list, ^st), st
			}
			b.list = append(b.list, i)
		}
	}
}
