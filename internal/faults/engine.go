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
	recv       sched.RecvTable // slots for the assignment; stale while !recvOK
	recvOK     bool
	sent       []sched.Send // the running step's messages, injected by CloseStep
	outbox     *comm.Outbox
	flush      func(*comm.Batch) // e.deliver, bound once
	done       []bool
	doneStart  []bool // done as of the running epoch's start: durable in psi
	acks       []procAck
	live       []int32    // the running epoch's processors, ascending
	released   []Delivery // inject's scratch
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
	cur       *sched.Schedule
	steps     *sched.StepTable
	assign    sched.Assignment
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
		e.recvOK = true
	}
	e.recv.Reset()
	e.sent = e.sent[:0]
	copy(e.doneStart, e.done)
	ep := &e.ep
	*ep = epoch{e: e, cur: cur, steps: steps, assign: e.rec.Assign(), compute: compute, psi: psi,
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
		switch {
		case !e.rec.Live(dl.To):
		case e.noBatch:
			e.recv.Deliver(dl.Task, dl.To, dl.Psi)
		default:
			// Joins the destination's envelope with an immediate deadline.
			e.outbox.Add(dl.To, dl.Task, dl.Psi, ls)
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
		e.recv.Deliver(it.Task, b.To, it.Psi)
	}
	comm.PutBatch(b)
}

// RunProc is live processor p's step: it runs the tasks scheduled now,
// reading checkpointed upwind fluxes straight from psi and in-epoch cross
// fluxes only from what the interconnect delivered, and records every
// cross-processor send for the barrier that closes the step.
func (ep *epoch) RunProc(p, ls int32) {
	e := ep.e
	inst, assign, psi := e.inst, ep.assign, ep.psi
	n := int32(inst.N())
	g := e.globalStep
	a := &e.acks[p]
	*a = procAck{}
	for _, t := range ep.steps.Tasks(p, ls) {
		v, i := inst.Split(t)
		d := inst.DAGs[i]
		base := sched.TaskID(int32(i) * n)
		inflow := 0.0
		preds := d.In(v)
		slots := e.recv.In(t)
		for j, u := range preds {
			ut := base + sched.TaskID(u)
			switch {
			case e.doneStart[ut]:
				inflow += psi[ut] // durable checkpoint, written in an earlier epoch
			case slots[j] < 0:
				if !e.done[ut] {
					a.err = fmt.Errorf("faults: proc %d task %d at step %d: local input %d not done", p, t, g, ut)
					return
				}
				inflow += psi[ut]
			default:
				val, have := e.recv.Load(slots[j])
				if !have {
					a.stalled, a.stallTask, a.stallMiss = true, t, ut
					return
				}
				inflow += val
			}
		}
		if len(preds) > 0 {
			inflow /= float64(len(preds))
		}
		val := ep.compute(t, inflow)
		psi[t] = val
		// done[t] and sinceCkpt[p] are this processor's alone during a step.
		e.done[t] = true
		e.sinceCkpt[p] = append(e.sinceCkpt[p], t)
		a.completed++
		for _, w := range d.Out(v) {
			q := assign[w]
			if q == p {
				continue
			}
			a.sent++
			// The receive slot is keyed by (producing task, destination),
			// so a delivery released for this edge can satisfy every
			// consumer of (t -> q): its deadline is the earliest such
			// consumer's step — NoDue when all were durably done at epoch
			// start. (With a Drop on a sibling edge the oracle's surviving
			// per-message delivery serves both consumers; the envelope must
			// arrive just as early.)
			due := int32(comm.NoDue)
			for _, w2 := range d.Out(v) {
				if wt := base + sched.TaskID(w2); assign[w2] == q && !e.doneStart[wt] {
					due = min(due, ep.cur.Start[wt])
				}
			}
			e.sent = append(e.sent, sched.Send{Task: t, To: q, Due: due, Psi: val})
		}
	}
}

// inject routes one logical message through the injector — which decides
// per (task, destination), so a planned Drop/Delay/Duplicate hits the same
// message on either interconnect — and hands what it releases now to the
// interconnect: delivered per message (NoBatch), or appended to the
// destination's envelope.
func (e *Engine) inject(x sched.Send) {
	e.released = e.inj.AppendOnSend(e.released[:0], x.Task, x.To, x.Psi, e.globalStep)
	for _, dl := range e.released {
		if e.noBatch {
			e.recv.Deliver(dl.Task, dl.To, dl.Psi)
		} else {
			e.outbox.Add(dl.To, dl.Task, dl.Psi, x.Due)
		}
	}
}

// CloseStep is the barrier after local step ls: the step's sends pass the
// injector in the order they were produced (processor, then task), and
// the acks are folded in processor order.
func (ep *epoch) CloseStep(int32) error {
	e := ep.e
	g := e.globalStep
	for _, x := range e.sent {
		e.inject(x)
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
