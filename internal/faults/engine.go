package faults

import (
	"context"
	"fmt"
	"math"
	"slices"

	"sweepsched/internal/lb"
	"sweepsched/internal/machine"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

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

// Ranks is where the machine's processors run their steps and where they
// die: the one thing the engine's two uses differ in. In process they are
// modelled — the machine's own step body for each, and a crash that loses
// what its victim completed since the last periodic checkpoint. Under
// internal/procrun they are worker processes — a step is a frame out and
// an ack back, replayed through the machine; a crash is a SIGKILL, and
// loses what the victim's last durable shard on disk does not cover.
type Ranks interface {
	// Epoch announces epoch n before its first step: cur's not-done tasks
	// over the assignment, the machine's Done and Psi being what is durable.
	Epoch(n int, cur *sched.Schedule, assign sched.Assignment) error
	// RunStep runs local step ls (global step g) on every processor in the
	// machine's Procs, between its two barriers, and leaves what the
	// machine's Step would: each one's account in Acks, its completions in
	// Psi, Done and Sent and counted in Machine.Completed. ckpt: what completed before this step is to be
	// durable first. It returns, ascending, the processors lost on the way
	// with no plan saying so; the engine crashes them at the barrier
	// closing the step, unless another's account carries an error, which
	// ends the sweep.
	RunStep(ls, g int32, ckpt bool) (lost []int32, err error)
	// Kill ends the given processors, takes back in done those of their
	// completions this sweep that died with them, and returns how many.
	Kill(dying []int32, done []bool) int
}

// modelled is the in-process Ranks.
type modelled struct {
	mc *machine.Machine
	// since logs the completions since the last durable checkpoint, every
	// processor's, step by step in the order of the step's positions.
	since []sched.TaskID
}

func (r *modelled) Epoch(int, *sched.Schedule, sched.Assignment) error { return nil }

// RunStep logs the step's completions in one pass over its positions, the
// whole span at once when every task of it completed. A position's task is
// one the step completed exactly when it is done after the step: an
// epoch's table holds only tasks not done when it began, each once, and a
// task is marked done only by its own completion — so a row that stopped
// short, or a processor that is not live, logs nothing past what ran.
func (r *modelled) RunStep(ls, _ int32, ckpt bool) ([]int32, error) {
	if ckpt {
		r.checkpoint()
	}
	mc := r.mc
	mc.Step(ls)
	lo, hi := mc.Steps.Span(ls)
	span := mc.Steps.Order()[lo:hi]
	if int(mc.Completed()) == len(span) {
		r.since = append(r.since, span...)
		return nil, nil
	}
	for _, t := range span {
		if mc.Done[t] {
			r.since = append(r.since, t)
		}
	}
	return nil, nil
}

// checkpoint: completions up to here can no longer be lost to a crash.
func (r *modelled) checkpoint() { r.since = r.since[:0] }

// Kill rolls the victims back to the last checkpoint; the recovery that
// follows acts as one for everyone else. A logged task's processor is the
// one the machine's routes give it: the assignment changes only after a
// Kill, which empties the log.
func (r *modelled) Kill(dying []int32, done []bool) int {
	lost := 0
	for _, t := range r.since {
		if _, p, _ := r.mc.Recv.At(r.mc.Recv.Pos(t)); done[t] && slices.Contains(dying, p) {
			done[t] = false
			lost++
		}
	}
	r.checkpoint()
	return lost
}

// Engine executes sweeps of a schedule on the modelled machine
// (internal/machine) under an injected fault plan: barrier-synchronous
// steps, the processors' bodies between the barriers (Ranks), fluxes
// handed over at the barrier. It is stateful across sweeps — crashed
// processors stay dead, and the recovered assignment and schedule persist
// — so the transport solver can run its source iteration through one
// engine.
//
// Execution proceeds in epochs; this is the only epoch loop there is. An
// epoch runs the current (residual) schedule until it finishes, a crash
// fires, or a processor stalls on a flux the injector withheld. A crash
// rolls its victims back to what is durable (Ranks.Kill); recovery is the
// Recovery core — orphan-cell reassignment onto the least-loaded survivors
// and residual list scheduling under the schedule's delay.
type Engine struct {
	inst  *sched.Instance
	orig  *sched.Schedule
	cur   *sched.Schedule
	inj   *Injector
	rec   *Recovery
	ranks Ranks

	// mc is the machine the epochs run on. Its NoBatch selects the
	// per-message interconnect (one delivery per logical cross message, at
	// the barrier closing the step that released it) instead of the
	// deadline-driven envelopes; both converge bitwise-identically with
	// identical RecoveryReports.
	mc machine.Machine

	lastCkpt    int32
	ckptEvery   int32
	globalStep  int32
	needRebuild bool
	unsaved     bool           // a task completed since the last checkpoint
	remote      bool           // the ranks run elsewhere (RunOn) and take every step's frame
	report      RecoveryReport // MessagesSent and CommRounds are read off mc.Comm

	// Tables built once and reused across epochs and sweeps: a fault-free
	// source iteration regroups nothing and allocates nothing.
	fullSteps  sched.StepTable // cur, whole; stale while !fullOK
	fullOK     bool
	residSteps sched.StepTable // the running sweep's residual schedule
	// routed is the step table mc's routes are laid out for, under the live
	// assignment; nil once the table is regrouped or the assignment
	// changes. They are laid out again only when an epoch runs another
	// table: per recovery.
	routed   *sched.StepTable
	dueWhole bool // mc's deadlines are those of cur run whole: a fault-free sweep reuses them
	// traffic, once known, is what the first epoch that stepped the whole
	// of cur on mc's present routes and deadlines added to mc.Comm, with no
	// crash left on a live processor and no message event pending or held:
	// cur is feasible there, and a clean epoch (runClean) cannot fail but by
	// cancellation and sends exactly that again. It is dropped with the
	// routes or the deadlines.
	traffic machine.Stats
	known   bool
	// stepOnly holds every epoch to the step loop: the tests' reference for
	// the clean ones.
	stepOnly bool

	// The running epoch.
	remaining int
	end       epochEnd // why it stopped stepping, once it has
	nextCrash int32    // earliest planned crash step among the live processors
	dying     []int32  // processors that crashed at the barrier that ended it

	// col receives the execution series (nil = off) under prefix (faults.*
	// in process), crashes as crashed. The two every epoch posts are
	// resolved by Observe; one that counts something rare exists only once
	// that has happened (count).
	col             *obs.Collector
	prefix, crashed string
	epochs          *obs.Counter
	liveProcs       *obs.Gauge
}

// SetNoBatch selects the per-message oracle interconnect (true) or the
// batched envelopes (false, the default). Toggle before the first Sweep.
func (e *Engine) SetNoBatch(on bool) { e.mc.NoBatch = on }

// CommTraffic is where the engine's machine accumulates its observed
// communication: logical messages and barrier rounds (also in the
// RecoveryReport), plus the physical transmissions and wire(-model) bytes
// that carried them — envelopes when batching, one per logical message on
// the oracle path.
func (e *Engine) CommTraffic() *machine.Stats { return &e.mc.Comm }

// Observe attaches a stats collector: the engine reports epochs,
// recoveries, replays, crashes and live processors, the machine the comm.*
// series, and the workspace forwards the sched.* kernel series for the
// residual reschedules. A nil collector detaches.
func (e *Engine) Observe(col *obs.Collector) {
	e.col = col
	e.epochs = col.Counter(e.prefix + ".epochs")
	e.liveProcs = col.Gauge(e.prefix + ".live_procs")
	e.mc.Observe(col)
	e.rec.Observe(col)
}

func (e *Engine) count(series string, n int) {
	if n > 0 {
		e.col.Counter(e.prefix + "." + series).Add(int64(n))
	}
}

// SetVerify toggles auditing of every recovery reschedule and post-crash
// rebuild with verify.Schedule under the residual rule, verify.RuleOpts
// (a failed audit aborts the sweep with its diagnostic).
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
// be nil (no faults); an event of it that names a processor outside
// [0, m) or a task outside [0, n·k) is refused before anything is sized by
// it. The schedule must be feasible; infeasibility is detected during
// execution and reported as an error.
func NewEngine(s *sched.Schedule, plan *Plan) (*Engine, error) {
	if plan == nil {
		plan = &Plan{}
	}
	m, nk := int32(s.Inst.M), sched.TaskID(s.Inst.NTasks())
	for i, e := range plan.Events {
		if e.Proc < 0 || e.Proc >= m || e.To < 0 || e.To >= m || e.Task < 0 || e.Task >= nk {
			return nil, fmt.Errorf("faults: plan event %d (%s, proc=%d to=%d task=%d) is outside the schedule's %d processors and %d tasks", i, e.Kind, e.Proc, e.To, e.Task, m, nk)
		}
	}
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
		ckptEvery: plan.Spec.withDefaults().CheckpointEvery,
		mc:        machine.Machine{Done: make([]bool, s.Inst.NTasks())},
		prefix:    "faults",
		crashed:   "crashes",
	}
	e.ranks = &modelled{mc: &e.mc}
	e.report.Seed = plan.Seed
	return e, nil
}

// RunOn moves the machine's processors out of this process, before
// Observe and the first Sweep: the epochs run their steps on r and post
// their series under prefix, crashes as prefix.crashed. It returns what r
// needs of the engine: the machine its acks are replayed through and the
// injector that plans its severs.
func (e *Engine) RunOn(r Ranks, prefix, crashed string) (*machine.Machine, *Injector) {
	e.ranks, e.prefix, e.crashed, e.remote = r, prefix, crashed, true
	return &e.mc, e.inj
}

// Live reports whether processor p has not crashed.
func (e *Engine) Live(p int32) bool { return e.rec.Live(p) }

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
// bal is the modelled processors' cell balance for this sweep; ranks that
// run elsewhere have their own and take the zero Balance.
func (e *Engine) Sweep(ctx context.Context, bal machine.Balance, psi []float64) error {
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
		e.fullOK, e.routed = true, nil
	}
	e.report.StepsFaultFree += e.orig.Makespan

	done := e.mc.Done
	clear(done)
	e.remaining, e.end = nt, endCompleted
	cur, steps := e.cur, &e.fullSteps
	for e.remaining > 0 {
		if e.rec.NLive() == 0 {
			return &UnrecoverableError{DeadProcs: e.Report().DeadProcs, Remaining: e.remaining}
		}
		if e.end != endCompleted { // the last epoch ended in a crash or a stall: recover
			e.report.Recoveries++
			e.count("recoveries", 1)
			e.report.LastResidualBound = lb.ResidualLoad(e.remaining, e.rec.NLive())
			resid, err := e.rec.Reschedule(done)
			if err != nil {
				return err
			}
			if err := e.residSteps.Build(resid, e.rec.Assign(), done); err != nil {
				return fmt.Errorf("faults: internal: %w", err)
			}
			cur, steps, e.routed = resid, &e.residSteps, nil
		}
		if err := e.runEpoch(ctx, cur, steps, bal, psi); err != nil {
			return err
		}
		if e.end == endCompleted && e.remaining > 0 {
			return fmt.Errorf("faults: internal: epoch completed with %d tasks remaining", e.remaining)
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

// runEpoch runs one epoch — cur's not-done tasks (grouped in steps),
// barrier-synchronously until completion, a crash or a stall — and tears
// its interconnect state down on every path, cancellation included: ctx is
// observed before every step.
func (e *Engine) runEpoch(ctx context.Context, cur *sched.Schedule, steps *sched.StepTable, bal machine.Balance, psi []float64) error {
	e.report.Epochs++
	e.epochs.Inc()
	e.liveProcs.Set(int64(e.rec.NLive()))
	mc := &e.mc
	mc.Steps, mc.Balance, mc.Psi = steps, bal, psi
	e.end, e.nextCrash, e.dying = endCompleted, math.MaxInt32, e.dying[:0]
	mc.Procs = mc.Procs[:0]
	for p := int32(0); p < int32(e.inst.M); p++ {
		if !e.rec.Live(p) {
			continue
		}
		mc.Procs = append(mc.Procs, p)
		if cs := e.inj.CrashStep(p); cs >= 0 {
			e.nextCrash = min(e.nextCrash, cs)
		}
	}
	if e.routed != steps {
		mc.Build(e.inst, e.rec.Assign())
		e.routed, e.dueWhole, e.known = steps, false, false
		if e.nextCrash == math.MaxInt32 {
			// Only a crash moves a cell: a message with no route now is
			// never sent again.
			e.inj.retire(&mc.Recv)
		}
	}
	mc.Recv.Reset()
	mc.Sent = mc.Sent[:0]
	// A sweep's first epoch runs the whole of e.cur with nothing durable;
	// e.cur is only rebuilt after a crash, which invalidates the routes as
	// well.
	whole := cur == e.cur && e.remaining == len(mc.Done)
	if !whole || !e.dueWhole {
		mc.Route(cur.Start, mc.Done)
		e.dueWhole, e.known = whole, false
	}
	// Nothing can fire in an epoch that starts quiet: crashes are planned
	// up front, and message events only leave the injector.
	quiet := e.nextCrash == math.MaxInt32 && !e.inj.Pending() && !e.inj.holding()
	err := e.ranks.Epoch(e.report.Epochs, cur, e.rec.Assign())
	if err == nil && whole && quiet && e.known && !e.remote && !e.stepOnly {
		err = e.runClean(ctx)
	} else {
		before := mc.Comm
		for ls := int32(0); err == nil && e.end == endCompleted && ls < steps.Steps(); ls++ {
			if err = ctx.Err(); err == nil {
				err = e.step(ls)
			}
		}
		if err == nil && whole && quiet && e.end == endCompleted {
			e.traffic, e.known = mc.Comm.Minus(before), true
		}
	}
	// Whatever is still held or in an open envelope is moot — the next
	// epoch reads completed producers' fluxes from the durable psi.
	e.inj.DiscardDelayed()
	mc.Discard()
	if err == nil && e.end == endCrash {
		e.applyCrashes()
	}
	return err
}

// runClean runs a clean epoch — in process, the whole of e.cur with nothing
// done, on routes whose traffic an epoch already stepped whole, no live
// processor with a crash planned and no message event pending or held —
// as one flat Machine.Sweep, which adds that traffic. Nothing can go wrong
// in it but cancellation, whose ctx.Err() it returns, so no barrier has
// anything to decide, and none can later: no crash is left to fire, so
// the completion log is not kept, and no message event to rewrite. It
// accounts for the steps as stepping them would: the global step,
// StepsExecuted and the periodic checkpoints advance over every step of
// the table.
func (e *Engine) runClean(ctx context.Context) error {
	mc := &e.mc
	if err := mc.Sweep(ctx, e.traffic); err != nil {
		return err
	}
	for ls := range mc.Steps.Steps() {
		ckpt := e.checkpointAt(e.globalStep)
		lo, hi := mc.Steps.Span(ls)
		e.unsaved = lo < hi || e.unsaved && !ckpt
		e.globalStep++
		e.report.StepsExecuted++
	}
	e.remaining -= len(mc.Steps.Order())
	return nil
}

// checkpointAt reports whether the periodic checkpoint falls due at the
// barrier before global step g, and if it does counts the next from there.
func (e *Engine) checkpointAt(g int32) bool {
	if g-e.lastCkpt < e.ckptEvery {
		return false
	}
	e.lastCkpt = g
	return true
}

// step is local step ls of the running epoch: the barrier before it, the
// processors' bodies wherever they run, the barrier after it.
//
// Before: planned crashes due now fire ahead of the step (a processor
// completes steps strictly before its crash step) and end the epoch. Else
// the periodic checkpoint falls due or not, held (delayed) messages that
// matured are handed in, visible and due now — maturing past the
// consumer's step stalls the epoch in either mode — and the machine
// flushes what is due. While the injector has a message event pending, the
// bodies queue their sends instead of handing them over.
//
// After: the injector rewrites the step's queued sends before the machine
// hands them over — it decides per (task, destination), so a planned fault
// hits the same message on either interconnect — and the folded acks are
// read: a processor's error ends the sweep, whoever else was lost; a
// processor lost during the step is a crash at this barrier, a missing
// flux a stall if the injector explains it and an infeasible schedule if
// not.
//
// In process, a step with no positions is passed over, as Machine.Sweep
// passes over one, unless a held message matures at it or its checkpoint
// would make a completion durable: it only counts, so a stretched
// schedule costs its tasks, not its makespan times m.
func (e *Engine) step(ls int32) error {
	mc, g := &e.mc, e.globalStep
	if g >= e.nextCrash {
		for _, p := range mc.Procs {
			if cs := e.inj.CrashStep(p); cs >= 0 && cs <= g {
				e.dying = append(e.dying, p)
			}
		}
		e.end = endCrash
		return nil
	}
	ckpt := e.checkpointAt(g)
	if lo, hi := mc.Steps.Span(ls); lo == hi && !e.remote && !(ckpt && e.unsaved) && !e.inj.matures(g) {
		e.globalStep++
		e.report.StepsExecuted++
		return nil
	}
	for _, dl := range e.inj.Matured(g) {
		if e.rec.Live(dl.To) {
			mc.Hand(dl, ls)
		}
	}
	mc.OpenStep(ls)

	mc.Intercept = e.inj.Pending()
	lost, err := e.ranks.RunStep(ls, g, ckpt)
	if err != nil {
		return err
	}

	mc.Sent = e.inj.Rewrite(mc.Sent, g)
	completed := int(mc.Completed())
	err = mc.CloseStep(ls)
	e.remaining -= completed
	e.unsaved = completed > 0 || e.unsaved && !ckpt
	e.globalStep++
	e.report.StepsExecuted++
	if _, stall := err.(*machine.StallError); err != nil && !stall { // the machine returns it bare
		return fmt.Errorf("faults: global step %d: %w", g, err) // a lost processor does not excuse it
	}
	if len(lost) > 0 {
		e.dying, e.end = append(e.dying, lost...), endCrash
		return nil
	}
	if err == nil {
		return nil
	}
	unexplained := false
	stallTask, stallMiss := sched.TaskID(-1), sched.TaskID(-1)
	for _, p := range mc.Procs {
		a := &mc.Acks[p]
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
	e.end = endStall
	return nil
}

// applyCrashes kills the processors the epoch ended on: the completions
// that died with them are rolled back (replayed later), their cells with
// outstanding work move to the least-loaded survivors (via the Recovery
// core), and the next periodic checkpoint is counted from here.
func (e *Engine) applyCrashes() {
	for range e.dying {
		e.inj.NoteCrash()
	}
	e.count(e.crashed, len(e.dying))
	lost := e.ranks.Kill(e.dying, e.mc.Done)
	e.remaining += lost
	e.report.TasksReplayed += lost
	e.count("tasks_replayed", lost)
	e.lastCkpt, e.unsaved = e.globalStep, false
	e.rec.Kill(e.dying, e.mc.Done)
	e.routed = nil // the assignment changed
	if e.rec.NLive() > 0 {
		e.needRebuild = true
	}
}
