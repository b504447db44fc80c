// Package procrun executes a sweep schedule across real worker OS
// processes. It is the fault engine (internal/faults) with the modelled
// machine's processors moved out of the process: the orchestrator (this
// file, the parent process) is the engine's Ranks and the machine's Wire.
// A step is a frame to every worker and an ack from each, replayed through
// the machine; a flux the machine hands over lands in its destination's
// next frame; a planned crash is a real SIGKILL, a planned sever a closed
// socket, and a kill loses what the victim's durable shard on disk does
// not cover. The epoch loop, the barrier's decisions, the injector, routes,
// deadlines and accounting, and the source iteration are the engine's, the
// machine's and internal/transport's: Run is spawn, setup, that loop,
// teardown. Each worker (worker.go, spawned by re-exec) is one rank of the
// same machine: it runs the shared step body for its own rank, and owns
// only its cell-balance closure and its checkpoint shards. Recovery
// replays lost tasks with identical inputs through that closure, so the
// converged flux is bitwise-identical to the serial transport.Solve.
package procrun

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"slices"
	"time"

	"sweepsched/internal/comm"
	"sweepsched/internal/faults"
	"sweepsched/internal/machine"
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
	// Comm is the traffic the orchestrator's machine counted, by the
	// definitions every executor shares (machine.Stats): logical messages
	// and rounds (mirroring the Report), plus the transmissions carrying
	// them — one per due envelope, riding a step frame, by default; under
	// Config.NoBatch one per logical message sent, whatever the plan then
	// did to it (the fFlux frames written are the workers' comm.batches).
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

// orch drives one Run: the processes, their sockets, and the far side of
// the engine's machine.
type orch struct {
	inst    *sched.Instance
	spec    ProblemSpec
	cfg     transport.Config
	opts    Options
	ln      net.Listener
	helloCh chan hello
	workers []*workerProc

	eng *faults.Engine   // the epoch loop; o is its Ranks
	mc  *machine.Machine // its machine: acks are replayed through it, o.land is its Wire
	inj *faults.Injector // its injector, which also plans the severs

	severed  map[int32]bool
	iter     int32
	sweepLog [][]sched.TaskID // per rank: completions this sweep, for disk-authority rollback
	// flux is, per rank, what the machine handed over for it since its last
	// step frame: the next one's envelope, or (NoBatch) an fFlux frame each
	// ahead of it. Kept until the step's acks are in, for a resend.
	flux     [][]comm.Item
	lastStep [][]byte // per rank: the fStep frame in flight, for resend after a transient drop
	acked    []int32  // RunStep's scratch: the ranks that got this step's frame
	lost     []int32  // RunStep's scratch: the ranks lost in this step

	scratch []byte      // sweep/epoch payload builder, reused across frames
	fluxBuf []byte      // fFlux frame payload builder (NoBatch)
	ackBuf  []comm.Item // step-ack completions scratch, reused across acks
}

// Run executes the schedule's source iteration across spec.M real worker
// processes under the fault plan, returning the converged flux, the
// recovery accounting, and the merged worker metrics. The schedule must
// be for the instance spec builds (same mesh family, scale, seed, k, m);
// workers rebuild that instance locally from the spec. The configuration
// and the schedule are checked (and audited, under cfg.Verify) as for
// every transport solve, before any worker process exists.
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
	opts, err := opts.withDefaults(plan)
	if err != nil {
		return nil, err
	}
	o := &orch{
		inst:     inst,
		spec:     spec,
		opts:     opts,
		helloCh:  make(chan hello, inst.M),
		workers:  make([]*workerProc, inst.M),
		severed:  map[int32]bool{},
		sweepLog: make([][]sched.TaskID, inst.M),
		flux:     make([][]comm.Item, inst.M),
		lastStep: make([][]byte, inst.M),
	}
	defer o.teardownAll()
	res, err := transport.SolveOn(ctx, s, cfg, func(s *sched.Schedule, cfg transport.Config, phi, psi []float64) (func(context.Context) error, *transport.CommStats, error) {
		eng, err := faults.NewEngine(s, plan)
		if err != nil {
			return nil, nil, err
		}
		o.cfg, o.eng = cfg, eng
		o.mc, o.inj = eng.RunOn(o, "procrun", "kills")
		o.mc.Wire = o.land
		eng.Observe(opts.Collector)
		eng.SetNoBatch(cfg.NoBatch)
		if opts.CkptEvery > 0 {
			eng.SetCheckpointEvery(opts.CkptEvery)
		}
		if opts.Verify {
			eng.SetVerify(true)
		}
		if err := o.spawnAll(ctx); err != nil {
			return nil, nil, err
		}
		if err := o.setupAll(); err != nil {
			return nil, nil, err
		}
		return func(ctx context.Context) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := o.beginSweep(phi); err != nil {
				return err
			}
			return eng.Sweep(ctx, nil, psi) // the workers have the cell balance
		}, eng.CommTraffic(), nil
	})
	if err != nil {
		return nil, err
	}
	merged := o.collectSnapshots()
	o.sayGoodbye()
	return &RunResult{
		Phi: res.Phi, Iterations: res.Iterations, Residual: res.Residual, Converged: res.Converged,
		Report: &Report{
			RecoveryReport: *o.eng.Report(),
			Severs:         o.inj.Applied(faults.Sever),
			Reconnects:     merged.CounterValue("proc.reconnects"),
		},
		Comm:   res.Comm,
		Merged: merged,
	}, nil
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

// beginSweep broadcasts the iteration's scalar flux and resets the
// per-sweep completion logs.
func (o *orch) beginSweep(phi []float64) error {
	o.iter++
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
			_, ack, _ := o.decodeAck(payload)
			return fmt.Errorf("procrun: rank %d failed %s: %v", w.rank, frameName(typ), ack.Err)
		}
		if rtyp != fOK {
			return fmt.Errorf("procrun: rank %d replied %s to %s", w.rank, frameName(rtyp), frameName(typ))
		}
	}
	return nil
}

func (o *orch) liveWorkers() []*workerProc {
	var ws []*workerProc
	for _, w := range o.workers {
		if w != nil && w.conn != nil && o.eng.Live(w.rank) {
			ws = append(ws, w)
		}
	}
	return ws
}

// Epoch ships an epoch's schedule and durable state to every live worker:
// assignment, start steps, the done set, and the checkpointed fluxes done
// tasks carry. Workers derive their own step rows and routes from it.
func (o *orch) Epoch(n int, cur *sched.Schedule, assign sched.Assignment) error {
	for p := range o.flux {
		o.flux[p] = o.flux[p][:0] // handed over as the last epoch ended: moot
	}
	e := enc{b: o.scratch[:0]}
	e.i32(int32(n))
	e.u32(uint32(cur.Makespan))
	e.i32s(assign)
	e.i32s(cur.Start)
	e.bools(o.mc.Done)
	e.f64s(o.mc.Psi)
	o.scratch = e.b
	return o.broadcastAck(fEpoch, e.b)
}

// land is the machine's Wire: a flux handed over for rank to rides that
// worker's next frame.
func (o *orch) land(to int32, t sched.TaskID, psi float64) {
	o.flux[to] = append(o.flux[to], comm.Item{Task: t, Psi: psi})
}

// RunStep is one step on the worker processes. Planned severs fire first,
// at the barrier with no frame in flight — the socket is cut and the
// worker's backoff-paced reconnect waited out; it loses no state — so every
// rerun of the plan sees identical state (a planned kill the engine has
// already turned into the end of the epoch). Then every live worker gets
// its step frame, carrying the checkpoint flag and what the machine handed
// over for it, and each one's ack is replayed through the machine. A link
// that dies with no plan event behind it is an unplanned crash: the rank is
// reported lost, while the workers that did get the frame still run the
// step and have their acks collected, keeping the streams free of stale
// frames.
func (o *orch) RunStep(ls, g int32, ckpt bool) ([]int32, error) {
	mc := o.mc
	for _, p := range mc.Procs {
		if ss := o.inj.SeverStep(p); ss >= 0 && ss <= g && !o.severed[p] {
			o.severed[p] = true
			w := o.workers[p]
			w.conn.Close()
			w.conn = nil
			if !o.awaitRejoin(w) {
				return nil, fmt.Errorf("procrun: rank %d never reconnected after sever", p)
			}
			o.inj.NoteSever()
			o.opts.Collector.Counter("procrun.severs").Inc()
		}
	}
	acked, lost := o.acked[:0], o.lost[:0]
	for _, p := range mc.Procs {
		e := enc{b: o.lastStep[p][:0]}
		e.i32(ls)
		e.i32(g)
		e.flag(ckpt)
		if mc.NoBatch {
			e.u32(0) // the fluxes go ahead of the frame, one fFlux each
		} else {
			appendFluxBatch(&e, o.flux[p])
		}
		o.lastStep[p] = e.b
		if err := o.sendStep(o.workers[p]); err != nil {
			lost = append(lost, p)
			continue
		}
		acked = append(acked, p)
	}
	for _, p := range acked {
		ran, ack, err := o.readAck(o.workers[p])
		if err != nil {
			lost = append(lost, p)
			continue
		}
		if err := o.fold(p, ls, ran, ack); err != nil {
			return nil, err
		}
	}
	for _, p := range lost {
		_ = mc.Replay(p, ls, nil, machine.Ack{}) // it reports nothing, which is a prefix of any row
	}
	for _, p := range mc.Procs {
		o.flux[p] = o.flux[p][:0]
	}
	slices.Sort(lost)
	o.acked, o.lost = acked, lost
	o.opts.Collector.Counter("procrun.steps").Inc()
	return lost, nil
}

// fold replays one rank's ack through the machine, which refuses
// completions that are not a prefix of the rank's row of the step
// (*machine.AccountError: the task ids are the worker's word, and index
// arrays here), and logs them as this sweep's.
func (o *orch) fold(p, ls int32, ran []comm.Item, ack machine.Ack) error {
	if err := o.mc.Replay(p, ls, ran, ack); err != nil {
		return fmt.Errorf("procrun: rank %d's ack: %w", p, err)
	}
	for _, c := range ran {
		o.sweepLog[p] = append(o.sweepLog[p], c.Task)
	}
	return nil
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
	if o.mc.NoBatch {
		items := o.flux[w.rank]
		for i := range items {
			o.fluxBuf = encodeFluxBatch(o.fluxBuf, items[i:i+1])
			if err := w.conn.writeFrame(fFlux, o.fluxBuf, 5*time.Second); err != nil {
				return err
			}
		}
	}
	return w.conn.writeFrame(fStep, o.lastStep[w.rank], 5*time.Second)
}

// readAck collects one step acknowledgement, riding out one transient
// reconnect by resending the in-flight step frames: the tasks the worker
// completed with their fluxes, and the stall or error that stopped it. The
// completions alias a scratch buffer reused on the next readAck, so the
// caller must consume them first (the ack loop does).
func (o *orch) readAck(w *workerProc) ([]comm.Item, machine.Ack, error) {
	typ, payload, err := o.readSkippingHeartbeats(w, o.opts.HeartbeatTimeout)
	if err != nil && o.awaitRejoin(w) {
		if err = o.writeStepFrames(w); err == nil {
			typ, payload, err = o.readSkippingHeartbeats(w, o.opts.HeartbeatTimeout)
		}
	}
	if err == nil && typ != fAck {
		err = fmt.Errorf("procrun: rank %d replied %s to step", w.rank, frameName(typ))
	}
	if err != nil {
		return nil, machine.Ack{}, err
	}
	return o.decodeAck(payload)
}

func (o *orch) decodeAck(payload []byte) ([]comm.Item, machine.Ack, error) {
	d := dec{b: payload}
	ran := d.fluxItems(o.ackBuf)
	if ran != nil {
		o.ackBuf = ran
	}
	ack := machine.Ack{Stalled: d.u8() == 1, StallTask: sched.TaskID(d.i32()), StallMiss: sched.TaskID(d.i32())}
	if msg := d.str(); msg != "" {
		ack.Err = errors.New(msg)
	}
	return ran, ack, d.err
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
			if tgt == nil || !h.resumed || !o.eng.Live(h.rank) {
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

// Kill delivers real SIGKILLs to the victims and rolls their
// current-sweep completions back to the last durable checkpoint shard on
// disk. The disk is the authority — values the orchestrator already
// holds in memory are discarded unless the victim's shard covers them,
// exactly as a restarted cluster could only trust what was fsynced.
func (o *orch) Kill(dying []int32, done []bool) int {
	lost := 0
	for _, p := range dying {
		o.killWorker(o.workers[p])
		covered := map[sched.TaskID]bool{}
		if ck, err := faults.LoadLatest(o.opts.CkptDir, p); err == nil && ck != nil && ck.Iter == o.iter {
			for _, t := range ck.Tasks {
				covered[t] = true
			}
		}
		for _, t := range o.sweepLog[p] {
			if done[t] && !covered[t] {
				done[t] = false
				lost++
			}
		}
		o.sweepLog[p] = nil
	}
	return lost
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
