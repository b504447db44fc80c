// Package machine is the paper's machine, modelled once: m processors
// that each run the tasks a schedule gives them at step t and exchange the
// cross-processor fluxes it implies. It owns the flux routes
// (sched.RecvTable), the done marks, one delivery deadline per receive
// slot, the sends a step queues, the per-processor acks, the interconnect
// (deadline-driven envelopes, or one delivery per message) and the traffic
// accounting, and has the one step body (RunProc) and the one hand-over of
// a step's sends (CloseStep). Every executor is this machine: the
// simulator and the parallel transport solve sweep it (Sweep), the fault
// engine (internal/faults) runs its epochs on it, and under
// internal/procrun its processors are worker processes — each runs the
// body for its own rank, the orchestrator replays their acks (Replay) into
// the same queue, and a handed-over flux lands in a frame (Wire) instead
// of a slot.
//
// The invariants the executors rely on:
//
//   - A body writes only what belongs to its processor p: its tasks'
//     fluxes and done marks, its ack, and the sends it queues. It reads no
//     flux another processor wrote except from a receive slot.
//   - A send queued during step t reaches its destination at a barrier —
//     the one closing t, per message; no later than the one opening its
//     earliest consumer's step, batched — so it is visible from step t+1
//     on and never to a higher-numbered processor later in step t.
//   - The body never interprets a missing flux. It reports (task, missing
//     producer) in its ack and stops, the barrier passes it on as a
//     *StallError, and the owner decides: an infeasible schedule for a
//     fault-free sweep, a stall to recover from if the fault engine's
//     injector explains it.
//   - NoBatch is the oracle mode of the same machine: flux values, their
//     production order and Stats.{Messages,Rounds} are identical, only the
//     transmissions differ.
//
// A Machine belongs to one step loop and is not safe for concurrent use.
package machine

import (
	"context"
	"fmt"
	"slices"

	"sweepsched/internal/comm"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
)

// Compute produces the angular flux of one task from its averaged upwind
// inflow: the transport solver's cell balance, or a constant for executors
// that only track dependencies. It must be a pure function of (task,
// inflow) and state that is constant within one sweep, so that a replayed
// task reproduces its flux bitwise.
type Compute func(t sched.TaskID, inflow float64) float64

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

// Machine is the modelled machine. New makes one for fault-free sweeps; an
// owner that runs epochs or a single rank starts from the zero value, sets
// the fields of the first group and calls Build.
type Machine struct {
	NoBatch bool             // per-message interconnect (set before Build)
	Steps   *sched.StepTable // the rows the bodies run
	Procs   []int32          // the live processors, ascending
	Compute Compute
	Psi     []float64 // per task: a processor reads only fluxes its own tasks wrote
	Done    []bool    // per task: run this sweep (or durable from an earlier epoch)

	// Wire, when set, is where a handed-over flux lands instead of in a
	// receive slot here: with the processor it is for, which runs in
	// another process and keeps its own slots (internal/procrun puts it in
	// that worker's next frame). Deadlines, envelopes and the accounting
	// are the same either way.
	Wire func(to int32, t sched.TaskID, psi float64)

	Recv sched.RecvTable
	Due  []int32      // per receive slot: the step its earliest consumer runs, else comm.NoDue (Route)
	Sent []sched.Send // the running step's messages, handed over by CloseStep
	Acks []Ack        // per processor
	Comm Stats

	outbox *comm.Outbox
	flush  func(*comm.Batch) // deliverBatch, bound once: a method value per step would allocate
	ctr    comm.Counters
}

// New sets a machine up for fault-free sweeps (Sweep) of the schedule into
// psi: every processor live, and a message due at its earliest consumer's
// scheduled start. A schedule that does not cover its tasks is refused
// with the step table's error.
func New(s *sched.Schedule, noBatch bool, compute Compute, psi []float64) (*Machine, error) {
	x := &struct { // the machine and its step table, one allocation
		Machine
		steps sched.StepTable
	}{}
	if err := x.steps.Build(s, nil, nil); err != nil {
		return nil, err
	}
	m := &x.Machine
	m.NoBatch, m.Steps, m.Procs = noBatch, &x.steps, sched.AllProcs(s.Inst.M)
	m.Compute, m.Psi, m.Done = compute, psi, make([]bool, len(psi))
	m.Build(s.Inst, s.Assign)
	if !noBatch { // per message nothing waits for a deadline
		m.Route(s.Start, nil)
	}
	return m, nil
}

// Observe attaches a stats collector for the comm.* series, posted at
// every barrier. A nil collector detaches.
func (m *Machine) Observe(col *obs.Collector) { m.ctr = comm.NewCounters(col) }

// Build resolves every flux route for the assignment and empties the
// receive slots; it reuses the machine's storage. The slots' deadlines are
// Route's to set, which a batched machine needs before it steps.
func (m *Machine) Build(inst *sched.Instance, assign sched.Assignment) {
	m.Recv.Build(inst, assign)
	if len(m.Acks) != inst.M {
		m.Acks = make([]Ack, inst.M)
	}
	if m.outbox == nil { // the first Build
		m.outbox = comm.NewOutbox(inst.M)
		m.flush = m.deliverBatch
		// A step's sends are a few per processor: sized so that the usual
		// step regrows nothing.
		m.Sent = make([]sched.Send, 0, 8*inst.M)
	}
}

// Route fixes, before the first step of a sweep or an epoch, what the
// bodies would otherwise work out per message. A producer that is durable
// (done before the epoch started) sends nothing: its flux is placed in its
// receive slots straight from Psi. Every other slot gets its deadline: a
// slot is keyed by (producing task, destination), so one delivery serves
// every consumer of that pair and must arrive for the earliest one not yet
// durable — comm.NoDue when all of them are. (With a Drop on a sibling
// edge the oracle's surviving per-message delivery serves both consumers;
// the envelope must arrive just as early.) A nil durable means nothing is.
func (m *Machine) Route(start []int32, durable []bool) {
	n := m.Recv.Slots()
	m.Due = slices.Grow(m.Due[:0], n)[:n]
	for s := range m.Due {
		m.Due[s] = comm.NoDue
	}
	for t := range m.Psi {
		sent := durable != nil && durable[t]
		for _, o := range m.Recv.Out(sched.TaskID(t)) {
			if sent {
				m.Recv.Deliver(o.Slot, m.Psi[t])
			} else if durable == nil || !durable[o.Consumer] {
				m.Due[o.Slot] = min(m.Due[o.Slot], start[o.Consumer])
			}
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

// DeliverNamed places a flux that arrived named by its producing task, as
// it does off a wire, in the slot the routes give (task, to).
func (m *Machine) DeliverNamed(t sched.TaskID, to int32, psi float64) error {
	if t >= 0 && int(t) < len(m.Psi) {
		for _, o := range m.Recv.Out(t) {
			if o.To == to {
				m.Recv.Deliver(o.Slot, psi)
				return nil
			}
		}
	}
	return &RouteError{Task: t, To: to}
}

// RunProc is modelled processor p's step — the only step body there is.
// Every route was resolved by Build: an upwind flux is read at the
// producer's task id, which must be done, or in a receive slot, where it
// must have been delivered; a completed task is marked done and its
// cross-processor edges are queued as sends.
func (m *Machine) RunProc(p, step int32) {
	psi, done := m.Psi, m.Done
	a := &m.Acks[p]
	*a = Ack{StallTask: -1, StallMiss: -1}
	for _, t := range m.Steps.Tasks(p, step) {
		inflow := 0.0
		in := m.Recv.In(t)
		for _, x := range in {
			if x >= 0 { // a local producer's task id
				if !done[x] {
					a.Err = fmt.Errorf("machine: proc %d task %d at step %d: local input %d not done", p, t, step, x)
					return
				}
				inflow += psi[x]
				continue
			}
			val, have := m.Recv.Load(^x)
			if !have {
				a.Stalled, a.StallTask, a.StallMiss = true, t, m.Recv.Producer(^x)
				return
			}
			inflow += val
		}
		if len(in) > 0 {
			inflow /= float64(len(in))
		}
		m.complete(a, t, m.Compute(t, inflow))
	}
}

// complete is what a task's having run means to the machine, wherever it
// ran: its flux is in Psi, it is done, its processor's account counts it
// and its cross-processor edges are queued as sends.
func (m *Machine) complete(a *Ack, t sched.TaskID, val float64) {
	m.Psi[t] = val
	m.Done[t] = true
	a.Completed++
	out := m.Recv.Out(t)
	for _, o := range out {
		m.Sent = append(m.Sent, sched.Send{Task: t, To: o.To, Slot: o.Slot, Psi: val})
	}
	a.Sent += int32(len(out))
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

// Replay is RunProc for a processor whose body ran in another process
// (internal/procrun): ran, the tasks it reports complete with their
// fluxes, must be a prefix of its row of the step, as a body's account
// here would be, and is completed as such; what stopped it short (by's
// stall or error, nothing else of by is read) ends the account as it would
// a body's. The zero Ack is a processor that reports nothing.
func (m *Machine) Replay(p, step int32, ran []comm.Item, by Ack) error {
	a := &m.Acks[p]
	*a = Ack{StallTask: -1, StallMiss: -1, Err: by.Err}
	if by.Stalled {
		a.Stalled, a.StallTask, a.StallMiss = true, by.StallTask, by.StallMiss
	}
	row := m.Steps.Tasks(p, step)
	for i, it := range ran {
		if i >= len(row) || it.Task != row[i] {
			return &AccountError{Proc: p, Step: step, Index: i, Task: it.Task}
		}
		m.complete(a, it.Task, it.Psi)
	}
	return nil
}

// OpenStep is the barrier before a step: exactly the envelopes whose
// earliest consumer runs now are delivered, so one transmission carries
// every flux a destination needs next, accumulated across all senders and
// all prior steps. (Per message there are no envelopes to find.)
func (m *Machine) OpenStep(step int32) error {
	m.outbox.FlushDue(step, m.flush)
	return nil
}

// deliverBatch accounts for one envelope and places its fluxes.
func (m *Machine) deliverBatch(b *comm.Batch) {
	m.Comm.Batches++
	m.Comm.Bytes += comm.BatchWireBytes(len(b.Items))
	m.ctr.Envelope(len(b.Items))
	if m.Wire != nil {
		for _, it := range b.Items {
			m.Wire(b.To, it.Task, it.Psi)
		}
	} else {
		for _, it := range b.Items {
			m.Recv.Deliver(it.Slot, it.Psi)
		}
	}
	m.outbox.Recycle(b)
}

// Hand gives the interconnect one message: delivered now (NoBatch), or
// added to its destination's envelope to arrive by the barrier opening
// step due. CloseStep does this for a step's queue; an owner calls it for
// a message from outside the queue (a delayed one that matured).
func (m *Machine) Hand(x sched.Send, due int32) {
	switch {
	case !m.NoBatch:
		m.outbox.Add(x.To, comm.Item{Task: x.Task, Slot: x.Slot, Psi: x.Psi}, due)
	case m.Wire != nil:
		m.Wire(x.To, x.Task, x.Psi)
	default:
		m.Recv.Deliver(x.Slot, x.Psi)
	}
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

// CloseStep is the barrier after a step — the only hand-over there is:
// the queued sends go to the interconnect in the order they were produced
// (processor, then task), each due at its slot's deadline, and the acks
// are folded in processor order: Comm.Rounds adds the step's
// per-processor maximum, and the lowest processor's error is returned —
// or, when none erred, a *StallError if one is missing a flux.
func (m *Machine) CloseStep(step int32) error {
	switch { // Hand, once per mode instead of a call per message
	case !m.NoBatch:
		for _, x := range m.Sent {
			m.outbox.Add(x.To, comm.Item{Task: x.Task, Slot: x.Slot, Psi: x.Psi}, m.Due[x.Slot])
		}
	case m.Wire != nil:
		for _, x := range m.Sent {
			m.Wire(x.To, x.Task, x.Psi)
		}
	default:
		for _, x := range m.Sent {
			m.Recv.Deliver(x.Slot, x.Psi)
		}
	}
	m.Sent = m.Sent[:0]
	var sent, stepMax int32
	var firstErr error
	stalled := int32(-1) // the lowest processor missing a flux
	for _, p := range m.Procs {
		a := &m.Acks[p]
		sent += a.Sent
		stepMax = max(stepMax, a.Sent)
		if a.Stalled && stalled < 0 {
			stalled = p
		}
		if a.Err != nil && firstErr == nil {
			firstErr = a.Err
		}
	}
	if firstErr == nil && stalled >= 0 {
		a := &m.Acks[stalled]
		firstErr = &StallError{Proc: stalled, Step: step, Task: a.StallTask, Producer: a.StallMiss}
	}
	m.Comm.Messages += int64(sent)
	m.Comm.Rounds += int64(stepMax)
	m.ctr.Logical(int(sent))
	if m.NoBatch { // per-message cost model: one transmission per logical message
		m.Comm.Batches += int64(sent)
		m.Comm.Bytes += comm.PerMessageWireBytes(int(sent))
		m.ctr.PerMessage(int(sent))
	}
	return firstErr
}

// Discard empties the interconnect without delivering (an epoch's
// teardown: whatever is still in an open envelope is moot, the next epoch
// reads completed producers' fluxes from the durable Psi).
func (m *Machine) Discard() { m.outbox.DiscardAll() }

// Sweep runs every step of Steps once on the shared step driver, from
// empty receive slots and nothing done, with no fault to blame: a missing
// flux (*StallError) ends it like a local input not done. It returns
// ctx.Err() within one barrier step of a cancellation. A machine whose
// sweep failed is not reusable.
func (m *Machine) Sweep(ctx context.Context) error {
	m.Recv.Reset()
	clear(m.Done)
	return sched.RunSteps(ctx, m.Procs, m.Steps.Steps(), m)
}
