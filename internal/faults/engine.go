package faults

import (
	"context"
	"fmt"
	"math"

	"sweepsched/internal/comm"
	"sweepsched/internal/lb"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// Compute produces the angular flux of one task from its averaged upwind
// inflow. The transport solver supplies the cell-balance closure; the
// machine simulator supplies a constant (it only tracks dependencies).
// Compute must be a pure function of (task, inflow) and state that is
// constant within one sweep, so that replayed tasks reproduce their values
// bitwise.
type Compute func(t sched.TaskID, inflow float64) float64

// RecoveryReport accounts for one fault-injected execution. With a fixed
// plan it is identical byte-for-byte (via String) across runs and
// GOMAXPROCS settings: every field is accumulated in barrier order or
// per-processor, on one goroutine.
type RecoveryReport struct {
	Seed uint64
	// Faults actually applied (planned events whose step or message never
	// occurred do not count).
	Crashes, Drops, Delays, Duplicates int
	Epochs                             int // executor epochs (1 = fault-free)
	Recoveries                         int // checkpoint + reschedule cycles
	TasksReplayed                      int // completions lost to crashes and re-executed
	StepsExecuted                      int // global barrier steps run
	StepsFaultFree                     int // steps the fault-free schedule would take
	MessagesSent                       int64
	CommRounds                         int64 // Σ_step max_p messages sent by p
	DeadProcs                          []int32
	// LastResidualBound is the load lower bound (lb.ResidualLoad) of the
	// most recent residual reschedule; the residual makespan actually paid
	// can be read off the step counts.
	LastResidualBound int
}

// Penalty is the barrier-step overhead versus the fault-free execution.
func (r *RecoveryReport) Penalty() int { return r.StepsExecuted - r.StepsFaultFree }

// String renders the report deterministically.
func (r *RecoveryReport) String() string {
	return fmt.Sprintf("recovery: seed=%#x faults{crash=%d drop=%d delay=%d dup=%d} epochs=%d recoveries=%d replayed=%d steps=%d faultfree=%d penalty=%d msgs=%d rounds=%d dead=%v residual_bound=%d",
		r.Seed, r.Crashes, r.Drops, r.Delays, r.Duplicates, r.Epochs, r.Recoveries,
		r.TasksReplayed, r.StepsExecuted, r.StepsFaultFree, r.Penalty(),
		r.MessagesSent, r.CommRounds, r.DeadProcs, r.LastResidualBound)
}

// Engine executes sweeps of a schedule on the simulated distributed
// machine — the live modelled processors stepped by the shared driver
// (sched.RunSteps), barrier-synchronous steps, fluxes delivered by the
// barrier hook — under an injected fault plan. It is stateful across
// sweeps — crashed processors stay dead, and the recovered assignment and
// schedule persist — so the transport solver can run its source
// iteration through one engine.
//
// Execution proceeds in epochs. An epoch runs the current (residual)
// schedule until it finishes, a planned crash fires, or a processor
// stalls on a flux the injector withheld. Ending an epoch durably
// checkpoints every completed task except those the crashed processor
// finished since the last periodic checkpoint (those are lost and
// replayed); recovery is delegated to the shared Recovery core — orphan-cell
// reassignment onto the least-loaded survivors and residual list
// scheduling (sched.ListScheduleResidual) — the same core
// internal/procrun drives for real kill -9'd worker processes.
type Engine struct {
	inst *sched.Instance
	orig *sched.Schedule
	cur  *sched.Schedule
	inj  *Injector
	rec  *Recovery

	sinceCkpt   [][]sched.TaskID // per proc: completions since the last durable checkpoint
	lastCkpt    int32
	ckptEvery   int32
	globalStep  int32
	needRebuild bool
	report      RecoveryReport

	// noBatch selects the per-message interconnect (one delivery per
	// logical cross message, at the barrier closing the step that released
	// it) instead of the deadline-driven envelope path. Both converge
	// bitwise-identically with identical RecoveryReports; NoBatch is the
	// differential oracle.
	noBatch bool
	// commBatches/commBytes accumulate physical transmissions on the
	// batched path (the unbatched equivalents are derived from
	// MessagesSent); see CommTraffic.
	commBatches, commBytes int64

	// Tables and scratch built once and reused across epochs and sweeps: a
	// fault-free source iteration regroups nothing and allocates nothing.
	fullSteps  sched.StepTable // cur, whole; stale while !fullOK
	fullOK     bool
	residSteps sched.StepTable // the running sweep's residual schedule
	recv       sched.RecvTable // routes for the assignment; stale while !recvOK
	recvOK     bool
	due        []int32      // per receive slot: the running epoch's delivery deadline
	dueWhole   bool         // due is that of cur run whole over recv: a fault-free sweep reuses it
	sent       []sched.Send // the running step's messages, injected by CloseStep
	outbox     *comm.Outbox
	flush      func(*comm.Batch) // e.deliver, bound once
	done       []bool
	doneStart  []bool // done as of the running epoch's start: durable in psi
	acks       []procAck
	live       []int32    // the running epoch's processors, ascending
	released   []Delivery // CloseStep's scratch: what the injector let through of one send
	ep         epoch

	// col receives execution counters (nil = off).
	col *obs.Collector
	ctr comm.Counters
}

// SetNoBatch selects the per-message oracle interconnect (true) or the
// batched envelopes (false, the default). Toggle before the first Sweep.
func (e *Engine) SetNoBatch(on bool) { e.noBatch = on }

// CommTraffic reports the engine's accumulated observed communication:
// logical messages and barrier rounds (also in the RecoveryReport), plus
// the physical transmissions and wire(-model) bytes that carried them —
// envelopes when batching, one frame per message on the oracle path.
func (e *Engine) CommTraffic() (messages, batches, bytes, rounds int64) {
	messages = e.report.MessagesSent
	rounds = e.report.CommRounds
	if e.noBatch {
		return messages, messages, comm.PerMessageWireBytes(int(messages)), rounds
	}
	return messages, e.commBatches, e.commBytes, rounds
}

// Observe attaches a stats collector: the engine reports epochs,
// recoveries, replays and live processors, and the workspace forwards
// the sched.* kernel series for the residual reschedules. A nil
// collector detaches.
func (e *Engine) Observe(col *obs.Collector) {
	e.col = col
	e.ctr = comm.NewCounters(col)
	e.rec.Observe(col)
}

// SetVerify toggles auditing of every recovery reschedule with
// verify.Residual (a failed audit aborts the sweep with its diagnostic).
// Defaults to off unless SWEEPSCHED_VERIFY forces it.
func (e *Engine) SetVerify(on bool) { e.rec.SetVerify(on) }

// Audit cross-checks the engine's accumulated accounting for internal
// consistency (verify.Recovery). Call it after the run completes.
func (e *Engine) Audit() error {
	r := e.Report()
	return verify.Recovery(verify.RecoveryStats{
		Procs:   e.inst.M,
		Crashes: r.Crashes, Drops: r.Drops, Delays: r.Delays, Duplicates: r.Duplicates,
		Epochs: r.Epochs, Recoveries: r.Recoveries, TasksReplayed: r.TasksReplayed,
		StepsExecuted: r.StepsExecuted, StepsFaultFree: r.StepsFaultFree,
		MessagesSent: r.MessagesSent, CommRounds: r.CommRounds,
		DeadProcs: r.DeadProcs,
	})
}

// NewEngine prepares a fault-injected executor for the schedule. plan may
// be nil (no faults). The schedule must be feasible; infeasibility is
// detected during execution and reported as an error.
func NewEngine(s *sched.Schedule, plan *Plan) (*Engine, error) {
	rec, err := NewRecovery(s)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		inst:      s.Inst,
		orig:      s,
		cur:       s,
		inj:       NewInjector(plan),
		rec:       rec,
		sinceCkpt: make([][]sched.TaskID, s.Inst.M),
		ckptEvery: Spec{}.withDefaults().CheckpointEvery,
		outbox:    comm.NewOutbox(s.Inst.M),
		done:      make([]bool, s.Inst.NTasks()),
		doneStart: make([]bool, s.Inst.NTasks()),
		acks:      make([]procAck, s.Inst.M),
	}
	e.flush = e.deliver
	if plan != nil {
		e.report.Seed = plan.Seed
		e.ckptEvery = plan.Spec.withDefaults().CheckpointEvery
	}
	return e, nil
}

// Report returns a snapshot of the execution accounting.
func (e *Engine) Report() *RecoveryReport {
	r := e.report
	r.Crashes = e.inj.Applied(Crash)
	r.Drops = e.inj.Applied(Drop)
	r.Delays = e.inj.Applied(Delay)
	r.Duplicates = e.inj.Applied(Duplicate)
	r.DeadProcs = e.rec.Dead()
	return &r
}

// Sweep executes every task exactly once (replays excepted), writing each
// task's flux into psi (indexed like the schedule's tasks), recovering
// from injected faults as needed. It returns ctx.Err() promptly on
// cancellation, an *UnrecoverableError once every processor has crashed
// with work outstanding, or a descriptive error for infeasible schedules.
func (e *Engine) Sweep(ctx context.Context, compute Compute, psi []float64) error {
	nt := e.inst.NTasks()
	if len(psi) != nt {
		return fmt.Errorf("faults: psi has %d entries for %d tasks", len(psi), nt)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.needRebuild {
		full, err := e.rec.RebuildFull()
		if err != nil {
			return err
		}
		e.cur = full
		e.needRebuild = false
		e.fullOK = false
	}
	if !e.fullOK {
		if err := e.fullSteps.Build(e.cur, e.rec.Assign(), nil); err != nil {
			return fmt.Errorf("faults: internal: %w", err)
		}
		e.fullOK = true
	}
	e.report.StepsFaultFree += e.orig.Makespan

	clear(e.done)
	remaining := nt
	cur, steps := e.cur, &e.fullSteps
	for remaining > 0 {
		if e.rec.NLive() == 0 {
			return &UnrecoverableError{DeadProcs: e.Report().DeadProcs, Remaining: remaining}
		}
		var reason epochEnd
		var err error
		remaining, reason, err = e.runEpoch(ctx, cur, steps, compute, psi, remaining)
		if err != nil {
			return err
		}
		if remaining == 0 {
			break
		}
		switch reason {
		case endCompleted:
			return fmt.Errorf("faults: internal: epoch completed with %d tasks remaining", remaining)
		case endCrash, endStall:
			if e.rec.NLive() == 0 {
				return &UnrecoverableError{DeadProcs: e.Report().DeadProcs, Remaining: remaining}
			}
			e.report.Recoveries++
			e.col.Counter("faults.recoveries").Inc()
			e.report.LastResidualBound = lb.ResidualLoad(remaining, e.rec.NLive())
			resid, err := e.rec.Reschedule(e.done)
			if err != nil {
				return err
			}
			if err := e.residSteps.Build(resid, e.rec.Assign(), e.done); err != nil {
				return fmt.Errorf("faults: internal: %w", err)
			}
			cur, steps = resid, &e.residSteps
		}
	}
	return nil
}

type epochEnd uint8

const (
	endCompleted epochEnd = iota
	endCrash
	endStall
)

// procAck is one live processor's account of the running step, written
// by the processor and folded by the barrier hook.
type procAck struct {
	completed int32
	sent      int32
	stalled   bool
	stallTask sched.TaskID // the task that could not run
	stallMiss sched.TaskID // the upwind flux it is missing
	err       error
}

// epoch is one epoch on the step driver: the schedule's not-done tasks
// run barrier-synchronously until completion, a crash, or a stall.
type epoch struct {
	e         *Engine
	steps     *sched.StepTable
	compute   Compute
	psi       []float64
	remaining int
	end       epochEnd
	nextCrash int32   // earliest planned crash step among the live processors
	dying     []int32 // processors whose crash fired at the barrier that ended the epoch
}

// runEpoch runs one epoch of cur (grouped in steps) and tears its
// interconnect state down on every path, cancellation included.
func (e *Engine) runEpoch(ctx context.Context, cur *sched.Schedule, steps *sched.StepTable,
	compute Compute, psi []float64, remaining int) (int, epochEnd, error) {

	e.report.Epochs++
	e.col.Counter("faults.epochs").Inc()
	e.col.Gauge("faults.live_procs").Set(int64(e.rec.NLive()))
	if !e.recvOK {
		e.recv.Build(e.inst, e.rec.Assign())
		e.recvOK, e.dueWhole = true, false
	}
	e.recv.Reset()
	e.sent = e.sent[:0]
	copy(e.doneStart, e.done)
	// A sweep's first epoch runs the whole of e.cur with nothing durable;
	// e.cur is only rebuilt after a crash, which invalidates recv as well.
	if whole := cur == e.cur && remaining == len(e.done); !whole || !e.dueWhole {
		e.routeEpoch(cur, psi)
		e.dueWhole = whole
	}
	ep := &e.ep
	*ep = epoch{e: e, steps: steps, compute: compute, psi: psi,
		remaining: remaining, nextCrash: math.MaxInt32, dying: ep.dying[:0]}
	e.live = e.live[:0]
	for p := int32(0); p < int32(e.inst.M); p++ {
		if !e.rec.Live(p) {
			continue
		}
		e.live = append(e.live, p)
		if cs := e.inj.CrashStep(p); cs >= 0 {
			ep.nextCrash = min(ep.nextCrash, cs)
		}
	}
	err := sched.RunSteps(ctx, e.live, steps.Steps(), ep)
	// Whatever is still held or in an open envelope is moot — the next
	// epoch reads completed producers' fluxes from the durable psi.
	e.inj.DiscardDelayed()
	e.outbox.DiscardAll()
	if err != nil {
		return ep.remaining, endCompleted, err
	}
	if ep.end == endCrash {
		ep.remaining = e.applyCrashes(ep.dying, ep.remaining)
	}
	return ep.remaining, ep.end, nil
}

// OpenStep is the barrier before local step ls. Planned crashes due now
// fire before the step runs (a processor completes steps strictly before
// its crash step); then the periodic checkpoint, and the interconnect:
// held (delayed) messages that matured are delivered so they arrive at
// their maturity step — maturing past the consumer's step stalls the
// epoch in either mode — and, batched, exactly the envelopes whose
// earliest consumer runs at ls are flushed.
func (ep *epoch) OpenStep(ls int32) error {
	e := ep.e
	g := e.globalStep
	if g >= ep.nextCrash {
		for _, p := range e.live {
			if cs := e.inj.CrashStep(p); cs >= 0 && cs <= g {
				ep.dying = append(ep.dying, p)
			}
		}
		ep.end = endCrash
		return sched.ErrStopSteps
	}
	// Periodic durable checkpoint: completions up to here can no longer
	// be lost to a crash.
	if g-e.lastCkpt >= e.ckptEvery {
		for p := range e.sinceCkpt {
			e.sinceCkpt[p] = e.sinceCkpt[p][:0]
		}
		e.lastCkpt = g
	}
	for _, dl := range e.inj.Matured(g) {
		if e.rec.Live(dl.To) {
			e.hand(dl, ls) // batched, it joins the envelope with an immediate deadline
		}
	}
	if !e.noBatch {
		e.outbox.FlushDue(ls, e.flush)
	}
	return nil
}

// deliver accounts for one envelope and hands its fluxes to the
// destination's receive slots.
func (e *Engine) deliver(b *comm.Batch) {
	e.commBatches++
	e.commBytes += comm.BatchWireBytes(len(b.Items))
	e.ctr.Envelope(len(b.Items))
	for _, it := range b.Items {
		e.recv.Deliver(it.Slot, it.Psi)
	}
	e.outbox.Recycle(b)
}

// routeEpoch fixes, before the epoch's first step, what its bodies would
// otherwise work out per message. A producer durably done at epoch start
// sends nothing this epoch: its flux is placed in its receive slots
// straight from the checkpointed psi. Every other slot gets its deadline:
// the slot is keyed by (producing task, destination), so one delivery can
// satisfy every consumer of that pair and must arrive for the earliest one
// not yet durable — NoDue when all of them are. (With a Drop on a sibling
// edge the oracle's surviving per-message delivery serves both consumers;
// the envelope must arrive just as early.)
func (e *Engine) routeEpoch(cur *sched.Schedule, psi []float64) {
	e.due = e.due[:0]
	for s := e.recv.Slots(); s > 0; s-- {
		e.due = append(e.due, comm.NoDue)
	}
	for t, durable := range e.doneStart {
		for _, o := range e.recv.Out(sched.TaskID(t)) {
			if durable {
				e.recv.Deliver(o.Slot, psi[t])
			} else if !e.doneStart[o.Consumer] {
				e.due[o.Slot] = min(e.due[o.Slot], cur.Start[o.Consumer])
			}
		}
	}
}

// RunProc is live processor p's step: it runs the tasks scheduled now,
// reading local upwind fluxes straight from psi and cross-processor ones
// only from the receive slots — what routeEpoch checkpointed there or the
// interconnect delivered — and records every cross-processor send for the
// barrier that closes the step.
func (ep *epoch) RunProc(p, ls int32) {
	e := ep.e
	psi := ep.psi
	a := &e.acks[p]
	*a = procAck{}
	for _, t := range ep.steps.Tasks(p, ls) {
		inflow := 0.0
		in := e.recv.In(t)
		for _, x := range in {
			if x >= 0 { // a local producer's task id
				if !e.done[x] {
					a.err = fmt.Errorf("faults: proc %d task %d at step %d: local input %d not done", p, t, e.globalStep, x)
					return
				}
				inflow += psi[x]
				continue
			}
			val, have := e.recv.Load(^x)
			if !have {
				a.stalled, a.stallTask, a.stallMiss = true, t, e.recv.Producer(^x)
				return
			}
			inflow += val
		}
		if len(in) > 0 {
			inflow /= float64(len(in))
		}
		val := ep.compute(t, inflow)
		psi[t] = val
		// done[t] and sinceCkpt[p] are this processor's alone during a step.
		e.done[t] = true
		e.sinceCkpt[p] = append(e.sinceCkpt[p], t)
		a.completed++
		out := e.recv.Out(t)
		for _, o := range out {
			e.sent = append(e.sent, sched.Send{Task: t, To: o.To, Slot: o.Slot, Due: e.due[o.Slot], Psi: val})
		}
		a.sent += int32(len(out))
	}
}

// hand gives the interconnect one delivery the injector released:
// delivered per message (NoBatch), or appended to the destination's
// envelope with the deadline due.
func (e *Engine) hand(dl Delivery, due int32) {
	if e.noBatch {
		e.recv.Deliver(dl.Slot, dl.Psi)
	} else {
		e.outbox.Add(dl.To, comm.Item{Task: dl.Task, Slot: dl.Slot, Psi: dl.Psi}, due)
	}
}

// CloseStep is the barrier after local step ls: the step's sends pass the
// injector in the order they were produced (processor, then task), and
// the acks are folded in processor order.
func (ep *epoch) CloseStep(int32) error {
	e := ep.e
	g := e.globalStep
	// The injector decides per (task, destination), so a planned
	// Drop/Delay/Duplicate hits the same message on either interconnect.
	for _, x := range e.sent {
		e.released = e.inj.AppendOnSend(e.released[:0], Delivery{To: x.To, Task: x.Task, Slot: x.Slot, Psi: x.Psi}, g)
		for _, dl := range e.released {
			e.hand(dl, x.Due)
		}
	}
	e.sent = e.sent[:0]
	var sent, stepMax int32
	var feasErr error
	stalled, unexplained := false, false
	stallTask, stallMiss := sched.TaskID(-1), sched.TaskID(-1)
	for _, p := range e.live {
		a := &e.acks[p]
		ep.remaining -= int(a.completed)
		sent += a.sent
		stepMax = max(stepMax, a.sent)
		if a.err != nil && feasErr == nil {
			feasErr = a.err
		}
		if a.stalled {
			stalled = true
			if stallTask < 0 || a.stallTask < stallTask {
				stallTask, stallMiss = a.stallTask, a.stallMiss
			}
			if !e.inj.Explains(a.stallMiss, p) {
				unexplained = true
			}
		}
	}
	e.report.MessagesSent += int64(sent)
	e.ctr.Logical(int(sent))
	if e.noBatch {
		e.ctr.PerMessage(int(sent))
	}
	e.report.CommRounds += int64(stepMax)
	e.globalStep++
	e.report.StepsExecuted++
	if feasErr != nil {
		return feasErr
	}
	if unexplained {
		return fmt.Errorf(
			"faults: task %d stalled on flux from task %d at step %d with no injected fault to blame: schedule is infeasible",
			stallTask, stallMiss, g)
	}
	if stalled {
		ep.end = endStall
		return sched.ErrStopSteps
	}
	return nil
}

// applyCrashes kills the given processors: their completions since the
// last durable checkpoint are rolled back (replayed later), their cells
// with outstanding work move to the least-loaded survivors (via the
// shared Recovery core), and the recovery itself acts as a checkpoint for
// everyone else.
func (e *Engine) applyCrashes(dying []int32, remaining int) int {
	done := e.done
	for _, p := range dying {
		e.inj.NoteCrash()
		for _, t := range e.sinceCkpt[p] {
			if done[t] {
				done[t] = false
				remaining++
				e.report.TasksReplayed++
				e.col.Counter("faults.tasks_replayed").Inc()
			}
		}
		e.sinceCkpt[p] = nil
	}
	e.col.Counter("faults.crashes").Add(int64(len(dying)))
	for p := range e.sinceCkpt {
		e.sinceCkpt[p] = e.sinceCkpt[p][:0]
	}
	e.lastCkpt = e.globalStep
	e.rec.Kill(dying, done)
	e.recvOK = false // the assignment changed
	if e.rec.NLive() > 0 {
		e.needRebuild = true
	}
	return remaining
}
