package faults

import (
	"context"
	"fmt"
	"math"

	"sweepsched/internal/lb"
	"sweepsched/internal/machine"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// Compute produces the angular flux of one task from its averaged upwind
// inflow (machine.Compute): the transport solver supplies the cell-balance
// closure; the machine simulator supplies a constant (it only tracks
// dependencies).
type Compute = machine.Compute

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

// Engine executes sweeps of a schedule on the modelled machine
// (internal/machine) — the live processors stepped by the shared driver
// (sched.RunSteps), barrier-synchronous steps, fluxes handed over at the
// barrier — under an injected fault plan. It is stateful across sweeps —
// crashed processors stay dead, and the recovered assignment and schedule
// persist — so the transport solver can run its source iteration through
// one engine.
//
// The machine has the step body and the hand-over; the engine keeps what
// is its own. Execution proceeds in epochs. An epoch runs the current
// (residual) schedule until it finishes, a planned crash fires, or a
// processor stalls on a flux the injector withheld. Ending an epoch durably
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

	// mc is the machine the epochs run on. Its NoBatch selects the
	// per-message interconnect (one delivery per logical cross message, at
	// the barrier closing the step that released it) instead of the
	// deadline-driven envelopes; both converge bitwise-identically with
	// identical RecoveryReports.
	mc machine.Machine

	sinceCkpt   [][]sched.TaskID // per proc: completions since the last durable checkpoint
	lastCkpt    int32
	ckptEvery   int32
	globalStep  int32
	needRebuild bool
	report      RecoveryReport // MessagesSent and CommRounds are read off mc.Comm

	// Tables built once and reused across epochs and sweeps: a fault-free
	// source iteration regroups nothing and allocates nothing.
	fullSteps  sched.StepTable // cur, whole; stale while !fullOK
	fullOK     bool
	residSteps sched.StepTable // the running sweep's residual schedule
	routesOK   bool            // mc's routes are those of the live assignment
	dueWhole   bool            // mc.Due is that of cur run whole: a fault-free sweep reuses it
	ep         epoch

	// col receives execution counters (nil = off).
	col *obs.Collector
}

// SetNoBatch selects the per-message oracle interconnect (true) or the
// batched envelopes (false, the default). Toggle before the first Sweep.
func (e *Engine) SetNoBatch(on bool) { e.mc.NoBatch = on }

// CommTraffic is where the engine's machine accumulates its observed
// communication: logical messages and barrier rounds (also in the
// RecoveryReport), plus the physical transmissions and wire(-model) bytes
// that carried them — envelopes when batching, one frame per message on
// the oracle path.
func (e *Engine) CommTraffic() *machine.Stats { return &e.mc.Comm }

// Observe attaches a stats collector: the engine reports epochs,
// recoveries, replays and live processors, and the workspace forwards
// the sched.* kernel series for the residual reschedules. A nil
// collector detaches.
func (e *Engine) Observe(col *obs.Collector) {
	e.col = col
	e.mc.Observe(col)
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
		mc:        machine.Machine{Done: make([]bool, s.Inst.NTasks())},
	}
	if plan != nil {
		e.report.Seed = plan.Seed
		e.ckptEvery = plan.Spec.withDefaults().CheckpointEvery
	}
	return e, nil
}

// Report returns a snapshot of the execution accounting.
func (e *Engine) Report() *RecoveryReport {
	r := e.report
	r.MessagesSent, r.CommRounds = e.mc.Comm.Messages, e.mc.Comm.Rounds
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

	done := e.mc.Done
	clear(done)
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
			resid, err := e.rec.Reschedule(done)
			if err != nil {
				return err
			}
			if err := e.residSteps.Build(resid, e.rec.Assign(), done); err != nil {
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

// epoch is one epoch on the step driver: the schedule's not-done tasks
// run barrier-synchronously until completion, a crash, or a stall. The
// step body is the machine's; the epoch wraps its two barrier hooks.
type epoch struct {
	*machine.Machine
	e         *Engine
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
	mc := &e.mc
	mc.Steps, mc.Compute, mc.Psi = steps, compute, psi
	if !e.routesOK {
		mc.Build(e.inst, e.rec.Assign())
		e.routesOK, e.dueWhole = true, false
	}
	mc.Recv.Reset()
	mc.Sent = mc.Sent[:0]
	// A sweep's first epoch runs the whole of e.cur with nothing durable;
	// e.cur is only rebuilt after a crash, which invalidates the routes as
	// well.
	if whole := cur == e.cur && remaining == len(mc.Done); !whole || !e.dueWhole {
		mc.Route(cur.Start, mc.Done)
		e.dueWhole = whole
	}
	ep := &e.ep
	*ep = epoch{Machine: mc, e: e, remaining: remaining, nextCrash: math.MaxInt32, dying: ep.dying[:0]}
	mc.Procs = mc.Procs[:0]
	for p := int32(0); p < int32(e.inst.M); p++ {
		if !e.rec.Live(p) {
			continue
		}
		mc.Procs = append(mc.Procs, p)
		if cs := e.inj.CrashStep(p); cs >= 0 {
			ep.nextCrash = min(ep.nextCrash, cs)
		}
	}
	err := sched.RunSteps(ctx, mc.Procs, steps.Steps(), ep)
	// Whatever is still held or in an open envelope is moot — the next
	// epoch reads completed producers' fluxes from the durable psi.
	e.inj.DiscardDelayed()
	mc.Discard()
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
// held (delayed) messages that matured are handed in with an immediate
// deadline so they arrive at their maturity step — maturing past the
// consumer's step stalls the epoch in either mode — and the machine
// flushes what is due.
func (ep *epoch) OpenStep(ls int32) error {
	e := ep.e
	g := e.globalStep
	if g >= ep.nextCrash {
		for _, p := range ep.Procs {
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
			ep.Hand(dl, ls)
		}
	}
	return ep.Machine.OpenStep(ls)
}

// CloseStep is the barrier after local step ls. The injector rewrites the
// step's queued sends before the machine hands them over — it decides per
// (task, destination), so a planned Drop/Delay/Duplicate hits the same
// message on either interconnect — and the engine reads the folded acks:
// completions join their processor's since-checkpoint log, a missing flux
// is a stall if the injector explains it and an infeasible schedule if
// not.
func (ep *epoch) CloseStep(ls int32) error {
	e := ep.e
	g := e.globalStep
	ep.Sent = e.inj.Rewrite(ep.Sent, g)
	err := ep.Machine.CloseStep(ls)
	for _, p := range ep.Procs {
		// done[t] was p's alone during the step; the log is the barrier's.
		ran := ep.Steps.Tasks(p, ls)[:ep.Acks[p].Completed]
		e.sinceCkpt[p] = append(e.sinceCkpt[p], ran...)
		ep.remaining -= len(ran)
	}
	e.globalStep++
	e.report.StepsExecuted++
	if err == nil {
		return nil
	}
	if _, stall := err.(*machine.StallError); !stall { // the machine returns it bare
		return fmt.Errorf("faults: global step %d: %w", g, err)
	}
	unexplained := false
	stallTask, stallMiss := sched.TaskID(-1), sched.TaskID(-1)
	for _, p := range ep.Procs {
		a := &ep.Acks[p]
		if !a.Stalled {
			continue
		}
		if stallTask < 0 || a.StallTask < stallTask {
			stallTask, stallMiss = a.StallTask, a.StallMiss
		}
		if !e.inj.Explains(a.StallMiss, p) {
			unexplained = true
		}
	}
	if unexplained {
		return fmt.Errorf(
			"faults: task %d stalled on flux from task %d at step %d with no injected fault to blame: schedule is infeasible",
			stallTask, stallMiss, g)
	}
	ep.end = endStall
	return sched.ErrStopSteps
}

// applyCrashes kills the given processors: their completions since the
// last durable checkpoint are rolled back (replayed later), their cells
// with outstanding work move to the least-loaded survivors (via the
// shared Recovery core), and the recovery itself acts as a checkpoint for
// everyone else.
func (e *Engine) applyCrashes(dying []int32, remaining int) int {
	done := e.mc.Done
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
	e.routesOK = false // the assignment changed
	if e.rec.NLive() > 0 {
		e.needRebuild = true
	}
	return remaining
}
