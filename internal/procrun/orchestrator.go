// Package procrun executes a sweep schedule across real worker OS
// processes. It is the faults.Engine architecture with the modelled
// processors replaced by processes and the hand-over by localhost TCP:
// the orchestrator (this package, parent process) owns the schedule, the
// recovery core, the fault plan and the interconnect; each worker
// (worker.go, spawned by re-exec) is one rank of the modelled machine
// (internal/machine) — it runs the shared step body for its own rank over
// the epoch's routes — and owns beyond that only the cell-balance closure
// it computes with and its durable checkpoint shards on disk. Fault
// injection is physical — planned crashes are
// delivered as real SIGKILLs and planned severs as closed sockets — yet
// the converged flux remains bitwise-identical to the serial
// transport.Solve, because recovery replays lost tasks with identical
// inputs through the shared cell-balance closure.
package procrun

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"time"

	"sweepsched/internal/comm"
	"sweepsched/internal/faults"
	"sweepsched/internal/lb"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// Options configures a multi-process run.
type Options struct {
	// CkptDir is where workers write durable checkpoint shards. Required.
	CkptDir string
	// CkptEvery overrides the barrier-step interval between durable
	// checkpoints (default: the plan's CheckpointEvery, else 8).
	CkptEvery int32
	// HeartbeatInterval is how often each worker pings (default 200ms);
	// HeartbeatTimeout is how long the orchestrator waits for any frame
	// from a live worker before declaring it dead (default 10s — it must
	// comfortably exceed the interval).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// WorkerReadTimeout bounds how long a worker waits for the next
	// orchestrator frame before treating the link as lost (default 30s).
	WorkerReadTimeout time.Duration
	// Backoff parameterizes worker reconnect loops. Seed defaults to the
	// plan seed so reruns reconnect on the same clock.
	Backoff Backoff
	// WorkerBinary is the executable to spawn (default: this executable,
	// re-exec style — the binary must call MaybeWorker early in main or
	// TestMain).
	WorkerBinary string
	// Collector receives orchestrator-side counters (nil = off). Worker
	// metrics arrive separately in RunResult.Merged.
	Collector *obs.Collector
	// Verify audits every recovery reschedule (SWEEPSCHED_VERIFY forces
	// it on).
	Verify bool
}

func (o Options) withDefaults(plan *faults.Plan) (Options, error) {
	if o.CkptDir == "" {
		return o, errors.New("procrun: Options.CkptDir is required")
	}
	if o.CkptEvery <= 0 {
		o.CkptEvery = 8
		if plan != nil && plan.Spec.CheckpointEvery > 0 {
			o.CkptEvery = plan.Spec.CheckpointEvery
		}
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 200 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	if o.WorkerReadTimeout <= 0 {
		o.WorkerReadTimeout = 30 * time.Second
	}
	if o.Backoff.Seed == 0 && plan != nil {
		o.Backoff.Seed = plan.Seed
	}
	o.Backoff = o.Backoff.withDefaults()
	if o.WorkerBinary == "" {
		exe, err := os.Executable()
		if err != nil {
			return o, fmt.Errorf("procrun: cannot locate worker binary: %w", err)
		}
		o.WorkerBinary = exe
	}
	return o, nil
}

// Report accounts for one multi-process execution. The embedded
// RecoveryReport carries the same barrier-ordered counters as the
// in-process engine; Severs and Reconnects add the transport-level
// events. For a fixed plan the String is byte-for-byte reproducible.
type Report struct {
	faults.RecoveryReport
	Severs     int
	Reconnects int64 // successful worker reconnections (from merged metrics)
}

func (r *Report) String() string {
	return fmt.Sprintf("%s severs=%d reconnects=%d", r.RecoveryReport.String(), r.Severs, r.Reconnects)
}

// RunResult is a completed multi-process solve.
type RunResult struct {
	Phi        []float64
	Iterations int
	Residual   float64
	Converged  bool
	Report     *Report
	// Comm is the orchestrator-observed traffic: logical messages and
	// rounds (mirroring the Report), plus the physical flux transmissions
	// and their wire bytes — per-destination step-frame envelopes by
	// default, one fFlux frame per message under Config.NoBatch.
	Comm transport.CommStats
	// Merged folds every surviving worker's metrics snapshot into one
	// report (obs.Snapshot.Merge). Workers record only deterministic
	// counters, so Merged renders byte-identically across reruns of the
	// same plan.
	Merged obs.Snapshot
}

// hello is one worker introduction read by the accept loop.
type hello struct {
	rank    int32
	resumed bool
	conn    *wireConn
}

// workerProc is the orchestrator's handle on one worker OS process.
type workerProc struct {
	rank int32
	cmd  *exec.Cmd
	conn *wireConn
}

// orch drives one Run.
type orch struct {
	inst    *sched.Instance
	orig    *sched.Schedule
	spec    ProblemSpec
	cfg     transport.Config
	opts    Options
	ln      net.Listener
	helloCh chan hello
	workers []*workerProc
	inj     *faults.Injector
	rec     *faults.Recovery
	report  Report
	col     *obs.Collector

	globalStep int32
	lastCkpt   int32
	severed    map[int32]bool

	psi      []float64
	iter     int32
	sweepLog [][]sched.TaskID    // per rank: completions this sweep, for disk-authority rollback
	pending  [][]faults.Delivery // NoBatch: deliveries awaiting per-message fFlux frames
	lastStep [][]byte            // per rank: the fStep frame in flight, for resend after a transient drop
	lastFlux [][]comm.Item       // NoBatch: per rank, this step's fFlux items, replayed on a resend

	// Batched interconnect (default): deadline-driven per-destination
	// envelopes that ride inside step frames, plus the epoch-start state
	// their deadlines are computed from.
	noBatch    bool
	outbox     *comm.Outbox
	stepBatch  []*comm.Batch // envelopes flushed for the step frame being built
	epochStart []int32       // current epoch's start steps (envelope deadlines)
	epochDone  []bool        // done set at epoch start
	ctr        comm.Counters
	commTx     int64 // physical flux transmissions (envelopes, or frames when NoBatch)
	commBy     int64 // wire-model bytes across those transmissions

	scratch []byte      // sweep/epoch payload builder, reused across frames
	fluxBuf []byte      // fFlux frame payload builder (NoBatch)
	ackBuf  []comm.Item // step-ack completions scratch, reused across acks
}

// Run executes the schedule's source iteration across spec.M real worker
// processes under the fault plan, returning the converged flux, the
// recovery accounting, and the merged worker metrics. The schedule must
// be for the instance spec builds (same mesh family, scale, seed, k, m);
// workers rebuild that instance locally from the spec.
//
// Every planned Crash is delivered as a real SIGKILL at its barrier step
// and every planned Sever as a closed socket (the worker reconnects with
// bounded backoff). Recovery is the shared faults.Recovery core, with the
// on-disk checkpoint shards as the rollback authority: a killed worker's
// completions are replayed unless its latest durable shard covers them.
func Run(ctx context.Context, s *sched.Schedule, spec ProblemSpec, cfg transport.Config, plan *faults.Plan, opts Options) (*RunResult, error) {
	if s == nil || s.Inst == nil {
		return nil, errors.New("procrun: nil schedule")
	}
	inst := s.Inst
	if inst.M != spec.M {
		return nil, fmt.Errorf("procrun: schedule has %d processors, spec says %d", inst.M, spec.M)
	}
	if cfg.SigmaT <= 0 {
		return nil, fmt.Errorf("procrun: SigmaT must be positive, got %v", cfg.SigmaT)
	}
	if cfg.SigmaS < 0 || cfg.SigmaS >= cfg.SigmaT {
		return nil, fmt.Errorf("procrun: need 0 <= SigmaS < SigmaT, got SigmaS=%v SigmaT=%v", cfg.SigmaS, cfg.SigmaT)
	}
	if cfg.SourceField != nil && len(cfg.SourceField) != inst.N() {
		return nil, fmt.Errorf("procrun: source field covers %d of %d cells", len(cfg.SourceField), inst.N())
	}
	if cfg.Weights != nil && len(cfg.Weights) != inst.K() {
		return nil, fmt.Errorf("procrun: %d angular weights for %d directions", len(cfg.Weights), inst.K())
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-10
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 500
	}
	opts, err := opts.withDefaults(plan)
	if err != nil {
		return nil, err
	}
	rec, err := faults.NewRecovery(s)
	if err != nil {
		return nil, err
	}
	rec.Observe(opts.Collector)
	if opts.Verify {
		rec.SetVerify(true)
	}
	o := &orch{
		inst:     inst,
		orig:     s,
		spec:     spec,
		cfg:      cfg,
		opts:     opts,
		helloCh:  make(chan hello, inst.M),
		workers:  make([]*workerProc, inst.M),
		inj:      faults.NewInjector(plan),
		rec:      rec,
		col:      opts.Collector,
		severed:  map[int32]bool{},
		psi:      make([]float64, inst.NTasks()),
		sweepLog: make([][]sched.TaskID, inst.M),
		pending:  make([][]faults.Delivery, inst.M),
		lastStep: make([][]byte, inst.M),
		lastFlux: make([][]comm.Item, inst.M),

		noBatch:   cfg.NoBatch,
		outbox:    comm.NewOutbox(inst.M),
		stepBatch: make([]*comm.Batch, inst.M),
		epochDone: make([]bool, inst.NTasks()),
		ctr:       comm.NewCounters(opts.Collector),
	}
	if plan != nil {
		o.report.Seed = plan.Seed
	}
	defer o.teardownAll()
	if err := o.spawnAll(ctx); err != nil {
		return nil, err
	}
	if err := o.setupAll(); err != nil {
		return nil, err
	}
	res, err := o.iterate(ctx)
	if err != nil {
		return nil, err
	}
	res.Merged = o.collectSnapshots()
	o.report.Reconnects = res.Merged.CounterValue("proc.reconnects")
	o.sayGoodbye()
	o.fillReport()
	res.Report = &o.report
	res.Comm = transport.CommStats{
		Messages: o.report.MessagesSent,
		Batches:  o.commTx,
		Bytes:    o.commBy,
		Rounds:   o.report.CommRounds,
	}
	return res, nil
}

func (o *orch) fillReport() {
	o.report.Crashes = o.inj.Applied(faults.Crash)
	o.report.Drops = o.inj.Applied(faults.Drop)
	o.report.Delays = o.inj.Applied(faults.Delay)
	o.report.Duplicates = o.inj.Applied(faults.Duplicate)
	o.report.Severs = o.inj.Applied(faults.Sever)
	o.report.DeadProcs = o.rec.Dead()
}

// spawnAll opens the rendezvous listener, starts m worker processes of
// the configured binary (re-exec: EnvWorker carries "addr|rank"), and
// waits for every rank's hello.
func (o *orch) spawnAll(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("procrun: listen: %w", err)
	}
	o.ln = ln
	go o.acceptLoop()
	addr := ln.Addr().String()
	for p := int32(0); p < int32(o.inst.M); p++ {
		cmd := exec.Command(o.opts.WorkerBinary)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s|%d", EnvWorker, addr, p))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("procrun: spawn rank %d: %w", p, err)
		}
		o.workers[p] = &workerProc{rank: p, cmd: cmd}
	}
	deadline := time.After(o.opts.HeartbeatTimeout)
	for need := o.inst.M; need > 0; {
		select {
		case h := <-o.helloCh:
			w := o.worker(h.rank)
			if w == nil || w.conn != nil {
				h.conn.Close()
				continue
			}
			w.conn = h.conn
			need--
		case <-deadline:
			return fmt.Errorf("procrun: %d of %d workers never connected", need, o.inst.M)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// acceptLoop runs for the orchestrator's lifetime, turning every inbound
// connection's hello frame into a helloCh event. Closing the listener
// ends it.
func (o *orch) acceptLoop() {
	for {
		c, err := o.ln.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			wc := newWireConn(c)
			typ, payload, err := wc.readFrame(5 * time.Second)
			if err != nil || typ != fHello {
				wc.Close()
				return
			}
			d := dec{b: payload}
			rank := d.i32()
			resumed := d.u8() == 1
			if d.err != nil || rank < 0 || rank >= int32(o.inst.M) {
				wc.Close()
				return
			}
			o.helloCh <- hello{rank: rank, resumed: resumed, conn: wc}
		}(c)
	}
}

func (o *orch) worker(p int32) *workerProc {
	if p < 0 || p >= int32(len(o.workers)) {
		return nil
	}
	return o.workers[p]
}

// setupAll ships the problem spec and run parameters, then validates
// every worker's instance-shape echo.
func (o *orch) setupAll() error {
	var e enc
	e.str(o.spec.Family)
	e.f64(o.spec.Scale)
	e.u64(o.spec.MeshSeed)
	e.u32(uint32(o.spec.K))
	e.u32(uint32(o.spec.M))
	e.f64(o.cfg.SigmaT)
	e.f64(o.cfg.SigmaS)
	e.f64(o.cfg.Source)
	e.f64s(o.cfg.SourceField)
	e.str(o.opts.CkptDir)
	e.u32(uint32(o.opts.HeartbeatInterval / time.Millisecond))
	e.u32(uint32(o.opts.WorkerReadTimeout / time.Millisecond))
	e.u32(uint32(o.opts.Backoff.Base / time.Millisecond))
	e.u32(uint32(o.opts.Backoff.Max / time.Millisecond))
	e.f64(o.opts.Backoff.Factor)
	e.u32(uint32(o.opts.Backoff.Attempts))
	e.u64(o.opts.Backoff.Seed)
	for _, w := range o.workers {
		if err := w.conn.writeFrame(fSetup, e.b, 5*time.Second); err != nil {
			return fmt.Errorf("procrun: setup rank %d: %w", w.rank, err)
		}
	}
	for _, w := range o.workers {
		typ, payload, err := o.readSkippingHeartbeats(w, o.opts.HeartbeatTimeout)
		if err != nil {
			return fmt.Errorf("procrun: rank %d setup ack: %w", w.rank, err)
		}
		if typ != fSetupOK {
			return fmt.Errorf("procrun: rank %d replied %s to setup", w.rank, frameName(typ))
		}
		d := dec{b: payload}
		n, k, m := int(d.u32()), int(d.u32()), int(d.u32())
		if d.err != nil {
			return d.err
		}
		if n != o.inst.N() || k != o.inst.K() || m != o.inst.M {
			return fmt.Errorf("procrun: rank %d rebuilt instance (n=%d,k=%d,m=%d) ≠ orchestrator (n=%d,k=%d,m=%d): spec is not deterministic",
				w.rank, n, k, m, o.inst.N(), o.inst.K(), o.inst.M)
		}
	}
	return nil
}

// readSkippingHeartbeats reads the next non-heartbeat frame from a
// worker. The deadline applies per frame, so a slow worker stays live as
// long as its heartbeat goroutine keeps ticking.
func (o *orch) readSkippingHeartbeats(w *workerProc, timeout time.Duration) (uint8, []byte, error) {
	for {
		typ, payload, err := w.conn.readFrame(timeout)
		if err != nil {
			return 0, nil, err
		}
		if typ == fHeartbeat {
			continue
		}
		return typ, payload, nil
	}
}

// iterate runs the source iteration: sweep to completion (recovering
// across epochs as faults fire), update the scalar flux, repeat until
// convergence. Mirrors faults.Engine.Sweep plus the transport solver's
// outer loop.
func (o *orch) iterate(ctx context.Context) (*RunResult, error) {
	inst := o.inst
	nt := inst.NTasks()
	phi := make([]float64, inst.N())
	res := &RunResult{}
	full := o.orig // full schedule each sweep starts from; rebuilt after crashes
	needRebuild := false
	for iter := 1; iter <= o.cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if needRebuild {
			f, err := o.rec.RebuildFull()
			if err != nil {
				return nil, err
			}
			full = f
			needRebuild = false
		}
		o.iter = int32(iter)
		if err := o.beginSweep(phi); err != nil {
			return nil, err
		}
		o.report.StepsFaultFree += o.orig.Makespan

		done := make([]bool, nt)
		remaining := nt
		cur := full
		for remaining > 0 {
			if o.rec.NLive() == 0 {
				o.fillReport()
				return nil, &faults.UnrecoverableError{DeadProcs: o.rec.Dead(), Remaining: remaining}
			}
			var reason epochEnd
			var err error
			remaining, reason, err = o.runEpoch(ctx, cur, done, remaining)
			if err != nil {
				return nil, err
			}
			if remaining == 0 {
				break
			}
			switch reason {
			case endCompleted:
				return nil, fmt.Errorf("procrun: internal: epoch completed with %d tasks remaining", remaining)
			case endCrash, endStall:
				if o.rec.NLive() == 0 {
					o.fillReport()
					return nil, &faults.UnrecoverableError{DeadProcs: o.rec.Dead(), Remaining: remaining}
				}
				if reason == endCrash {
					// The assignment changed: later sweeps need a rebuilt
					// full schedule, not the pre-crash one.
					needRebuild = true
				}
				o.report.Recoveries++
				o.col.Counter("procrun.recoveries").Inc()
				o.report.LastResidualBound = lb.ResidualLoad(remaining, o.rec.NLive())
				resid, err := o.rec.Reschedule(done)
				if err != nil {
					return nil, err
				}
				cur = resid
			}
		}
		res.Residual = transport.UpdatePhi(inst, o.psi, phi, o.cfg)
		res.Iterations = iter
		if res.Residual < o.cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Phi = phi
	return res, nil
}

// beginSweep broadcasts the iteration's scalar flux and resets the
// per-sweep completion logs.
func (o *orch) beginSweep(phi []float64) error {
	e := enc{b: o.scratch[:0]}
	e.i32(o.iter)
	e.f64s(phi)
	o.scratch = e.b
	for p := range o.sweepLog {
		o.sweepLog[p] = o.sweepLog[p][:0]
	}
	return o.broadcastAck(fSweep, e.b)
}

// broadcastAck sends one frame to every live worker and waits for each
// fOK.
func (o *orch) broadcastAck(typ uint8, payload []byte) error {
	for _, w := range o.liveWorkers() {
		if err := w.conn.writeFrame(typ, payload, 5*time.Second); err != nil {
			return fmt.Errorf("procrun: %s to rank %d: %w", frameName(typ), w.rank, err)
		}
	}
	for _, w := range o.liveWorkers() {
		rtyp, payload, err := o.readSkippingHeartbeats(w, o.opts.HeartbeatTimeout)
		if err != nil {
			return fmt.Errorf("procrun: rank %d ack for %s: %w", w.rank, frameName(typ), err)
		}
		if rtyp == fAck { // worker reported a fatal protocol error
			return fmt.Errorf("procrun: rank %d failed %s: %s", w.rank, frameName(typ), ackError(payload))
		}
		if rtyp != fOK {
			return fmt.Errorf("procrun: rank %d replied %s to %s", w.rank, frameName(rtyp), frameName(typ))
		}
	}
	return nil
}

func ackError(payload []byte) string {
	d := dec{b: payload}
	d.fluxItems(nil) // completions section
	d.u8()
	d.i32()
	d.i32()
	return d.str()
}

func (o *orch) liveWorkers() []*workerProc {
	var ws []*workerProc
	for _, w := range o.workers {
		if w != nil && w.conn != nil && o.rec.Live(w.rank) {
			ws = append(ws, w)
		}
	}
	return ws
}

type epochEnd uint8

const (
	endCompleted epochEnd = iota
	endCrash
	endStall
)

// runEpoch drives the schedule's not-done tasks to completion, a crash,
// or a stall — the barrier loop of faults.Engine.runEpoch with frames in
// place of channels. Planned kills and severs fire at their barrier,
// before the step frame goes out, so a victim completes steps strictly
// before its fault step and every rerun of the plan sees identical state.
func (o *orch) runEpoch(ctx context.Context, cur *sched.Schedule, done []bool, remaining int) (int, epochEnd, error) {
	o.report.Epochs++
	o.col.Counter("procrun.epochs").Inc()
	o.col.Gauge("procrun.live_procs").Set(int64(o.rec.NLive()))
	assign := o.rec.Assign()

	// Workers derive their own per-step groups from the epoch frame; the
	// orchestrator runs the same grouping once for validation (it rejects
	// unscheduled tasks before any frame goes out).
	if err := new(sched.StepTable).Build(cur, assign, done); err != nil {
		return remaining, endCompleted, fmt.Errorf("procrun: internal: %w", err)
	}
	// Envelope deadlines are computed against the epoch-start schedule and
	// done set: the consumers a flux must reach are exactly those not yet
	// durable when the epoch's grouping was fixed.
	o.epochStart = cur.Start
	o.epochDone = append(o.epochDone[:0], done...)
	defer func() {
		for p := range o.pending {
			o.pending[p] = o.pending[p][:0]
		}
		o.outbox.DiscardAll()
		for p, b := range o.stepBatch {
			if b != nil {
				o.outbox.Recycle(b)
				o.stepBatch[p] = nil
			}
		}
		o.inj.DiscardDelayed()
	}()

	if err := o.sendEpoch(cur, assign, done); err != nil {
		return remaining, endCompleted, err
	}

	live := o.liveWorkers()
	for ls := int32(0); ls < int32(cur.Makespan); ls++ {
		if err := ctx.Err(); err != nil {
			return remaining, endCompleted, err
		}
		g := o.globalStep

		// Planned kills due at this barrier: real SIGKILL, then disk-authority
		// rollback and recovery.
		var dying []int32
		for _, w := range live {
			if cs := o.inj.CrashStep(w.rank); cs >= 0 && cs <= g {
				dying = append(dying, w.rank)
			}
		}
		if len(dying) > 0 {
			remaining = o.applyKills(dying, done, remaining)
			return remaining, endCrash, nil
		}

		// Planned severs: cut the socket and wait out the worker's
		// backoff-paced reconnect before proceeding.
		for _, w := range live {
			if ss := o.inj.SeverStep(w.rank); ss >= 0 && ss <= g && !o.severed[w.rank] {
				o.severed[w.rank] = true
				if err := o.severAndRejoin(w); err != nil {
					return remaining, endCompleted, err
				}
				o.inj.NoteSever()
				o.col.Counter("procrun.severs").Inc()
			}
		}

		ckpt := uint8(0)
		if g-o.lastCkpt >= o.opts.CkptEvery {
			ckpt = 1
			o.lastCkpt = g
		}
		for _, dl := range o.inj.Matured(g) {
			if !o.rec.Live(dl.To) {
				continue
			}
			if o.noBatch {
				o.pending[dl.To] = append(o.pending[dl.To], dl)
			} else {
				// A delayed message matures at this barrier on both paths:
				// it joins the destination's envelope with the current step
				// as its deadline, so the stall it would cause (or resolve)
				// is identical to the per-message oracle's.
				o.outbox.Add(dl.To, comm.Item{Task: dl.Task, Psi: dl.Psi}, ls)
			}
		}
		if !o.noBatch {
			o.outbox.FlushDue(ls, func(b *comm.Batch) { o.stepBatch[b.To] = b })
		}

		var lost []int32
		var acked []*workerProc // workers that received this step's frame
		for _, w := range live {
			e := enc{b: o.lastStep[w.rank][:0]}
			e.i32(ls)
			e.i32(g)
			e.u8(ckpt)
			if b := o.stepBatch[w.rank]; b != nil {
				appendFluxBatch(&e, b.Items)
				o.ctr.Envelope(len(b.Items))
				o.commTx++
				o.commBy += comm.BatchWireBytes(len(b.Items))
				o.outbox.Recycle(b)
				o.stepBatch[w.rank] = nil
			} else {
				e.u32(0)
			}
			o.lastStep[w.rank] = e.b
			if o.noBatch {
				items := o.lastFlux[w.rank][:0]
				for _, dl := range o.pending[w.rank] {
					items = append(items, comm.Item{Task: dl.Task, Psi: dl.Psi})
				}
				o.lastFlux[w.rank] = items
				o.pending[w.rank] = o.pending[w.rank][:0]
				o.ctr.PerMessage(len(items))
				o.commTx += int64(len(items))
				o.commBy += comm.PerMessageWireBytes(len(items))
			}
			if err := o.sendStep(w); err != nil {
				// The link died mid-epoch without a plan event: unplanned
				// crash. Workers that did get the frame still run the step
				// and their acks are collected below, keeping the stream
				// free of stale frames.
				lost = append(lost, w.rank)
				continue
			}
			acked = append(acked, w)
		}

		var stepMax int32
		var feasErr error
		feasProc := int32(-1)
		stalled := false
		unexplained := false
		stallTask, stallMiss := sched.TaskID(-1), sched.TaskID(-1)
		for _, w := range acked {
			ack, err := o.readAck(w)
			if err != nil {
				lost = append(lost, w.rank)
				continue
			}
			var sent int32
			for _, c := range ack.completed {
				if !done[c.Task] {
					done[c.Task] = true
					remaining--
				}
				o.psi[c.Task] = c.Psi
				o.sweepLog[w.rank] = append(o.sweepLog[w.rank], c.Task)
				sent += o.route(c.Task, c.Psi, w.rank, assign, g)
			}
			o.report.MessagesSent += int64(sent)
			o.ctr.Logical(int(sent))
			if sent > stepMax {
				stepMax = sent
			}
			if ack.errMsg != "" && (feasProc < 0 || w.rank < feasProc) {
				feasErr, feasProc = errors.New(ack.errMsg), w.rank
			}
			if ack.stalled {
				stalled = true
				if stallTask < 0 || ack.stallTask < stallTask {
					stallTask, stallMiss = ack.stallTask, ack.stallMiss
				}
				if !o.inj.Explains(ack.stallMiss, w.rank) {
					unexplained = true
				}
			}
		}
		o.report.CommRounds += int64(stepMax)
		o.globalStep++
		o.report.StepsExecuted++
		o.col.Counter("procrun.steps").Inc()
		if len(lost) > 0 {
			remaining = o.applyKills(lost, done, remaining)
			return remaining, endCrash, nil
		}
		if feasErr != nil {
			return remaining, endCompleted, feasErr
		}
		if stalled {
			if unexplained {
				return remaining, endCompleted, fmt.Errorf(
					"procrun: task %d stalled on flux from task %d at step %d with no injected fault to blame: schedule is infeasible",
					stallTask, stallMiss, g)
			}
			return remaining, endStall, nil
		}
	}
	return remaining, endCompleted, nil
}

// sendEpoch ships an epoch's schedule and durable state to every live
// worker: assignment, start steps, the done set, and the checkpointed
// fluxes done tasks carry.
func (o *orch) sendEpoch(cur *sched.Schedule, assign sched.Assignment, done []bool) error {
	e := enc{b: o.scratch[:0]}
	e.i32(int32(o.report.Epochs))
	e.u32(uint32(cur.Makespan))
	e.i32s(assign)
	e.i32s(cur.Start)
	e.bools(done)
	e.f64s(o.psi)
	o.scratch = e.b
	return o.broadcastAck(fEpoch, e.b)
}

// sendStep writes the worker's prepared step traffic, riding out one
// transient reconnect (a resumed worker re-binds its socket and the
// frames are retried — task execution and flux merges are idempotent, so
// a duplicate delivery of the same step is harmless).
func (o *orch) sendStep(w *workerProc) error {
	if err := o.writeStepFrames(w); err == nil {
		return nil
	}
	if !o.awaitRejoin(w) {
		return fmt.Errorf("procrun: rank %d link lost", w.rank)
	}
	return o.writeStepFrames(w)
}

// writeStepFrames ships one barrier's traffic to a worker. The batched
// interconnect sends exactly one frame — any due envelope already rides
// inside the prepared step frame. NoBatch precedes the (empty-section)
// step frame with one fFlux frame per pending message, the per-message
// cost the envelope path exists to amortize.
func (o *orch) writeStepFrames(w *workerProc) error {
	if o.noBatch {
		items := o.lastFlux[w.rank]
		for i := range items {
			o.fluxBuf = encodeFluxBatch(o.fluxBuf, items[i:i+1])
			if err := w.conn.writeFrame(fFlux, o.fluxBuf, 5*time.Second); err != nil {
				return err
			}
		}
	}
	return w.conn.writeFrame(fStep, o.lastStep[w.rank], 5*time.Second)
}

type stepAck struct {
	completed            []comm.Item
	stalled              bool
	stallTask, stallMiss sched.TaskID
	errMsg               string
}

// readAck collects one step acknowledgement, riding out one transient
// reconnect by resending the in-flight step frames. The returned
// completions alias a scratch buffer reused on the next readAck, so the
// caller must consume them first (the ack loop does).
func (o *orch) readAck(w *workerProc) (*stepAck, error) {
	typ, payload, err := o.readSkippingHeartbeats(w, o.opts.HeartbeatTimeout)
	if err != nil {
		if !o.awaitRejoin(w) {
			return nil, err
		}
		if err := o.writeStepFrames(w); err != nil {
			return nil, err
		}
		typ, payload, err = o.readSkippingHeartbeats(w, o.opts.HeartbeatTimeout)
		if err != nil {
			return nil, err
		}
	}
	if typ != fAck {
		return nil, fmt.Errorf("procrun: rank %d replied %s to step", w.rank, frameName(typ))
	}
	d := dec{b: payload}
	a := &stepAck{}
	a.completed = d.fluxItems(o.ackBuf)
	if a.completed != nil {
		o.ackBuf = a.completed
	}
	a.stalled = d.u8() == 1
	a.stallTask = sched.TaskID(d.i32())
	a.stallMiss = sched.TaskID(d.i32())
	a.errMsg = d.str()
	return a, d.err
}

// route fans a completed task's flux out along its cross-processor
// edges, applying the fault plan per message — injection happens at
// produce time in both interconnects, so a planned fault hits the same
// logical message either way. NoBatch queues each surviving delivery for
// its own fFlux frame next step; the batched path adds it to the
// destination's envelope with a deadline, and the envelope rides a step
// frame only when that deadline arrives.
func (o *orch) route(t sched.TaskID, psi float64, from int32, assign sched.Assignment, g int32) int32 {
	v, i := o.inst.Split(t)
	out := o.inst.DAGs[i].Out(v)
	base := sched.TaskID(int(i) * o.inst.N())
	var sent int32
	for _, u := range out {
		q := assign[u]
		if q == from {
			continue
		}
		sent++
		if o.noBatch {
			for _, dl := range o.inj.OnSend(t, q, psi, g) {
				if o.rec.Live(dl.To) {
					o.pending[dl.To] = append(o.pending[dl.To], dl)
				}
			}
			continue
		}
		// Deadline = the earliest not-yet-durable consumer of this
		// producer on q. Receivers key recv by producing task, so one
		// surviving delivery serves every sibling edge — the deadline must
		// honor all of them for Drop parity with the per-message oracle.
		due := int32(comm.NoDue)
		for _, u2 := range out {
			if assign[u2] != q {
				continue
			}
			ut := base + sched.TaskID(u2)
			if !o.epochDone[ut] && o.epochStart[ut] < due {
				due = o.epochStart[ut]
			}
		}
		for _, dl := range o.inj.OnSend(t, q, psi, g) {
			if o.rec.Live(dl.To) {
				o.outbox.Add(dl.To, comm.Item{Task: dl.Task, Psi: dl.Psi}, due)
			}
		}
	}
	return sent
}

// severAndRejoin cuts the worker's socket and blocks until its
// backoff-paced reconnect lands. The worker loses no state — severing
// happens at a barrier with no frame in flight.
func (o *orch) severAndRejoin(w *workerProc) error {
	w.conn.Close()
	w.conn = nil
	if !o.awaitRejoin(w) {
		return fmt.Errorf("procrun: rank %d never reconnected after sever", w.rank)
	}
	return nil
}

// awaitRejoin waits out the worker's full reconnect budget for a resumed
// hello, re-binding the connection on success.
func (o *orch) awaitRejoin(w *workerProc) bool {
	var budget time.Duration
	for _, d := range o.opts.Backoff.delays(w.rank) {
		budget += d
	}
	budget += o.opts.HeartbeatTimeout
	deadline := time.After(budget)
	for {
		select {
		case h := <-o.helloCh:
			tgt := o.worker(h.rank)
			if tgt == nil || !h.resumed || !o.rec.Live(h.rank) {
				h.conn.Close()
				continue
			}
			if tgt.conn != nil {
				tgt.conn.Close()
			}
			tgt.conn = h.conn
			if h.rank == w.rank {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// applyKills delivers real SIGKILLs to the victims and rolls their
// current-sweep completions back to the last durable checkpoint shard on
// disk. The disk is the authority — values the orchestrator already
// holds in memory are discarded unless the victim's shard covers them,
// exactly as a restarted cluster could only trust what was fsynced.
func (o *orch) applyKills(dying []int32, done []bool, remaining int) int {
	sort.Slice(dying, func(a, b int) bool { return dying[a] < dying[b] })
	for _, p := range dying {
		o.inj.NoteCrash()
		o.col.Counter("procrun.kills").Inc()
		w := o.worker(p)
		if w != nil {
			o.killWorker(w)
		}
		covered := map[sched.TaskID]bool{}
		if ck, err := faults.LoadLatest(o.opts.CkptDir, p); err == nil && ck != nil && ck.Iter == o.iter {
			for _, t := range ck.Tasks {
				covered[t] = true
			}
		}
		for _, t := range o.sweepLog[p] {
			if done[t] && !covered[t] {
				done[t] = false
				remaining++
				o.report.TasksReplayed++
				o.col.Counter("procrun.tasks_replayed").Inc()
			}
		}
		o.sweepLog[p] = nil
	}
	o.lastCkpt = o.globalStep
	o.rec.Kill(dying, done)
	return remaining
}

// killWorker delivers SIGKILL, reaps the process, and closes its socket.
func (o *orch) killWorker(w *workerProc) {
	if w.cmd != nil && w.cmd.Process != nil {
		w.cmd.Process.Kill()
		w.cmd.Wait()
		w.cmd = nil
	}
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// collectSnapshots asks every surviving worker for its metrics snapshot
// and folds them into one. Killed workers ship nothing — their counters
// died with them, like any real crashed process.
func (o *orch) collectSnapshots() obs.Snapshot {
	var merged obs.Snapshot
	for _, w := range o.liveWorkers() {
		if err := w.conn.writeFrame(fSnapReq, nil, 5*time.Second); err != nil {
			continue
		}
		typ, payload, err := o.readSkippingHeartbeats(w, o.opts.HeartbeatTimeout)
		if err != nil || typ != fSnapshot {
			continue
		}
		var s obs.Snapshot
		if err := json.Unmarshal(payload, &s); err != nil {
			continue
		}
		merged = merged.Merge(s)
	}
	return merged
}

// sayGoodbye shuts surviving workers down cleanly and reaps them.
func (o *orch) sayGoodbye() {
	for _, w := range o.liveWorkers() {
		w.conn.writeFrame(fBye, nil, 2*time.Second)
	}
	for _, w := range o.workers {
		if w == nil || w.cmd == nil {
			continue
		}
		reaped := make(chan struct{})
		cmd := w.cmd
		go func() { cmd.Wait(); close(reaped) }()
		select {
		case <-reaped:
		case <-time.After(o.opts.HeartbeatTimeout):
			cmd.Process.Kill()
			<-reaped
		}
		w.cmd = nil
		if w.conn != nil {
			w.conn.Close()
			w.conn = nil
		}
	}
}

// teardownAll guarantees no orphaned processes or sockets on any exit
// path.
func (o *orch) teardownAll() {
	for _, w := range o.workers {
		if w != nil {
			o.killWorker(w)
		}
	}
	if o.ln != nil {
		o.ln.Close()
	}
}
