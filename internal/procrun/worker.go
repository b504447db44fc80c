package procrun

import (
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"sweepsched/internal/comm"
	"sweepsched/internal/faults"
	"sweepsched/internal/machine"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// EnvWorker is the re-exec hook: when set (to "addr|rank") the process
// is a sweep worker, not a CLI. Binaries that can host workers call
// MaybeWorker first thing in main (or TestMain), so the orchestrator can
// spawn m copies of the current executable and turn them into workers.
const EnvWorker = "SWEEPSCHED_PROCRUN_WORKER"

// MaybeWorker turns the process into a sweep worker if EnvWorker is set,
// never returning in that case (the process exits when the orchestrator
// says goodbye, the connection is lost beyond the reconnect budget, or a
// fatal error occurs). A no-op otherwise.
func MaybeWorker() {
	v := os.Getenv(EnvWorker)
	if v == "" {
		return
	}
	os.Exit(runWorker(v))
}

// runWorker runs the worker loop for an "addr|rank" assignment and
// returns the process exit code.
func runWorker(assignment string) int {
	parts := strings.Split(assignment, "|")
	if len(parts) != 2 {
		fmt.Fprintf(os.Stderr, "sweepworker: malformed %s=%q (want addr|rank)\n", EnvWorker, assignment)
		return 2
	}
	rank64, err := strconv.ParseInt(parts[1], 10, 32)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweepworker: bad rank %q: %v\n", parts[1], err)
		return 2
	}
	w := &worker{addr: parts[0], rank: int32(rank64), col: obs.New()}
	w.ctr = comm.NewCounters(w.col)
	if err := w.run(); err != nil {
		fmt.Fprintf(os.Stderr, "sweepworker[%d]: %v\n", w.rank, err)
		return 1
	}
	return 0
}

// worker is one sweep processor living in its own OS process. It is a
// pure frame-reactor: all control (sweeps, epochs, barrier steps,
// checkpoint triggers, shutdown) comes from the orchestrator, which is
// also the interconnect. The worker steps a modelled machine
// (internal/machine) whose only live processor is its own rank — the same
// body the in-process executors run for every rank — and owns only the
// cell balance it fills once per sweep, its durable checkpoint shards, and
// its reconnect loop.
type worker struct {
	addr string
	rank int32

	mu   sync.Mutex // guards conn swaps (heartbeat goroutine vs reconnect)
	conn *wireConn

	inst    *sched.Instance
	cfg     transport.Config
	ckptDir string
	seed    uint64 // the plan's seed, which the reconnect jitter draws on
	col     *obs.Collector
	ctr     comm.Counters // receive-side comm.* accounting (deterministic per plan)

	fluxBuf []comm.Item // decode scratch for flux sections, reused per frame
	compBuf []comm.Item // this step's completions, reused per step
	ackb    []byte      // ack payload builder, reused per step

	// sweep state (reset by fSweep)
	iter     int32
	phi      []float64
	logTasks []sched.TaskID // cumulative completions this sweep, in completion order
	logPsi   []float64

	// epoch state (reset by fEpoch)
	epoch int32
	steps sched.StepTable // this epoch's schedule; the worker runs row w.rank
	// mc is the machine of which this process is processor w.rank, its one
	// live processor: the epoch's routes, the durable fluxes in their
	// slots, the fluxes the wire delivered. Its Done is nil until the first
	// epoch frame, its cell balance until the first sweep frame.
	mc machine.Machine
}

func (w *worker) current() *wireConn {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conn
}

func (w *worker) setConn(c *wireConn) {
	w.mu.Lock()
	old := w.conn
	w.conn = c
	w.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// connect dials the orchestrator and introduces itself. resumed marks a
// reconnection after a severed link, so the orchestrator re-binds the
// rank instead of treating it as a fresh arrival.
func (w *worker) connect(resumed bool) error {
	c, err := net.Dial("tcp", w.addr)
	if err != nil {
		return err
	}
	wc := newWireConn(c)
	var e enc
	e.i32(w.rank)
	e.flag(resumed)
	if err := wc.writeFrame(fHello, e.b, 5*time.Second); err != nil {
		wc.Close()
		return err
	}
	w.setConn(wc)
	return nil
}

// reconnect runs the bounded backoff loop after a lost connection.
func (w *worker) reconnect() error {
	delays := backoffDelays(w.seed, w.rank)
	var lastErr error
	for _, d := range delays {
		time.Sleep(d)
		if lastErr = w.connect(true); lastErr == nil {
			w.col.Counter("proc.reconnects").Inc()
			return nil
		}
	}
	return fmt.Errorf("procrun: rank %d: reconnect budget exhausted (%d attempts): %w",
		w.rank, len(delays), lastErr)
}

// run is the worker main loop: frames in, replies out, reconnect on a
// lost link, exit on fBye.
func (w *worker) run() error {
	if err := w.connect(false); err != nil {
		return fmt.Errorf("procrun: rank %d cannot reach orchestrator at %s: %w", w.rank, w.addr, err)
	}
	defer func() {
		if c := w.current(); c != nil {
			c.Close()
		}
	}()
	hbStop := make(chan struct{})
	defer close(hbStop)

	for {
		conn := w.current()
		typ, payload, err := conn.readFrame(workerReadTimeout)
		if err != nil {
			// Lost or severed link: bounded reconnect, then resume the
			// frame loop — all sweep/epoch state survives in this process.
			if rerr := w.reconnect(); rerr != nil {
				return rerr
			}
			continue
		}
		var reply func() error
		switch typ {
		case fSetup:
			reply, err = w.onSetup(payload, hbStop)
		case fSweep:
			reply, err = w.onSweep(payload)
		case fEpoch:
			reply, err = w.onEpoch(payload)
		case fFlux:
			reply, err = w.onFlux(payload)
		case fStep:
			reply, err = w.onStep(payload)
		case fSnapReq:
			reply, err = w.onSnapshot()
		case fBye:
			return nil
		default:
			err = fmt.Errorf("procrun: rank %d: unexpected %s frame", w.rank, frameName(typ))
		}
		if err != nil {
			// Protocol/state errors are fatal: report upstream best-effort
			// and die loudly rather than desynchronize the barrier.
			var e enc
			e.u32(0)
			e.u8(0)
			e.i32(-1)
			e.i32(-1)
			e.str(err.Error())
			w.current().writeFrame(fAck, e.b, 2*time.Second)
			return err
		}
		if rerr := reply(); rerr != nil {
			// A failed reply means the link dropped between read and
			// write; reconnect and let the orchestrator re-drive.
			if rcerr := w.reconnect(); rcerr != nil {
				return rcerr
			}
		}
	}
}

// onSetup decodes the problem spec, rebuilds the instance locally, and
// starts the heartbeat.
func (w *worker) onSetup(payload []byte, hbStop <-chan struct{}) (func() error, error) {
	d := dec{b: payload}
	spec := ProblemSpec{
		Family:   d.str(),
		Scale:    d.f64(),
		MeshSeed: d.u64(),
		K:        int(d.u32()),
		M:        int(d.u32()),
	}
	w.cfg = transport.Config{
		SigmaT: d.f64(),
		SigmaS: d.f64(),
		Source: d.f64(),
	}
	if sf := d.f64s(); len(sf) > 0 {
		w.cfg.SourceField = sf
	}
	w.ckptDir = d.str()
	w.seed = d.u64()
	if d.err != nil {
		return nil, d.err
	}
	inst, err := spec.Build()
	if err != nil {
		return nil, err
	}
	w.inst = inst
	go w.heartbeat(hbStop)
	return func() error {
		var e enc
		e.u32(uint32(inst.N()))
		e.u32(uint32(inst.K()))
		e.u32(uint32(inst.M))
		return w.current().writeFrame(fSetupOK, e.b, 5*time.Second)
	}, nil
}

// heartbeat keeps the liveness channel warm from a dedicated goroutine;
// the wireConn write mutex serializes it against frame replies. Send
// errors are ignored — the main loop owns reconnection.
func (w *worker) heartbeat(stop <-chan struct{}) {
	tick := time.NewTicker(heartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			w.current().writeFrame(fHeartbeat, nil, heartbeatInterval)
		}
	}
}

// onSweep begins a source iteration: fresh scalar flux, empty completion
// log.
func (w *worker) onSweep(payload []byte) (func() error, error) {
	d := dec{b: payload}
	w.iter = d.i32()
	w.phi = d.f64s()
	if d.err != nil {
		return nil, d.err
	}
	if w.inst == nil {
		return nil, fmt.Errorf("procrun: sweep before setup")
	}
	if len(w.phi) != w.inst.N() {
		return nil, fmt.Errorf("procrun: sweep phi covers %d of %d cells", len(w.phi), w.inst.N())
	}
	transport.CellBalance(&w.mc.Balance, w.cfg, w.phi)
	w.logTasks = w.logTasks[:0]
	w.logPsi = w.logPsi[:0]
	w.col.Counter("proc.sweeps").Inc()
	return w.okReply(), nil
}

// onEpoch installs an epoch's schedule and durable state: assignment,
// start steps, the done set, and the checkpointed fluxes the done tasks
// carry.
func (w *worker) onEpoch(payload []byte) (func() error, error) {
	d := dec{b: payload}
	w.epoch = d.i32()
	makespan := int(d.u32())
	assign := d.i32s()
	start := d.i32s()
	done := d.bools()
	psi := d.f64s()
	if d.err != nil {
		return nil, d.err
	}
	if w.inst == nil {
		return nil, fmt.Errorf("procrun: epoch before setup")
	}
	if len(assign) != w.inst.N() || len(start) != w.inst.NTasks() ||
		len(done) != w.inst.NTasks() || len(psi) != w.inst.NTasks() {
		return nil, fmt.Errorf("procrun: epoch frame shapes do not match the instance")
	}
	// The step table is sized by the tasks the frame carries, not by the
	// makespan it states, which only bounds the starts; a step is an int32,
	// and so must the makespan be.
	if makespan > math.MaxInt32 {
		return nil, fmt.Errorf("procrun: epoch frame claims a makespan of %d steps for %d processors", makespan, w.inst.M)
	}
	s := &sched.Schedule{Inst: w.inst, Assign: assign, Start: start, Makespan: makespan}
	if err := s.Assign.Validate(w.inst.N(), w.inst.M); err != nil {
		return nil, err
	}
	if err := w.steps.Build(s, nil, done); err != nil {
		return nil, err
	}
	// The epoch's machine: routes for the epoch's assignment, and every
	// flux that is durable placed where its consumers read it — a local one
	// in psi under a done mark, a cross-processor one in its receive slot.
	// (Its hand-over never runs: the orchestrator's copy of the machine is
	// the one with the interconnect.)
	mc := &w.mc
	mc.Steps, mc.Psi, mc.Done = &w.steps, psi, done
	mc.Procs = append(mc.Procs[:0], w.rank) // the one live processor it steps
	mc.Build(w.inst, s.Assign)
	mc.Route(start, done)
	w.col.Counter("proc.epochs").Inc()
	return w.okReply(), nil
}

// onFlux merges one standalone flux frame (the NoBatch interconnect's
// per-message transmissions) into the receive set. No reply: the step
// frame that follows carries the ack for the whole barrier.
func (w *worker) onFlux(payload []byte) (func() error, error) {
	if w.mc.Done == nil {
		return nil, fmt.Errorf("procrun: flux before epoch")
	}
	items, err := decodeFluxBatch(payload, w.fluxBuf)
	if err != nil {
		return nil, err
	}
	if items != nil {
		w.fluxBuf = items
	}
	if err := w.deliver(items); err != nil {
		return nil, err
	}
	w.ctr.Logical(len(items))
	w.ctr.PerMessage(len(items))
	return func() error { return nil }, nil
}

// onStep runs one barrier step: durable checkpoint if flagged (before
// executing, so the shard covers completions strictly before this
// step), the step frame's flux envelope into the receive set, then this
// step's tasks.
func (w *worker) onStep(payload []byte) (func() error, error) {
	d := dec{b: payload}
	local := d.i32()
	global := d.i32()
	ckpt := d.u8() == 1
	delivs := d.fluxItems(w.fluxBuf)
	if d.err != nil {
		return nil, d.err
	}
	if delivs != nil {
		w.fluxBuf = delivs
	}
	if w.mc.Done == nil || w.mc.Q == nil {
		return nil, fmt.Errorf("procrun: step before sweep and epoch")
	}
	if ckpt {
		ck := &faults.Checkpoint{
			Rank: w.rank, Iter: w.iter, Epoch: w.epoch, Step: global,
			Tasks: w.logTasks, Psi: w.logPsi,
		}
		if _, err := faults.WriteDurable(w.ckptDir, ck); err != nil {
			return nil, fmt.Errorf("procrun: rank %d checkpoint: %w", w.rank, err)
		}
		w.col.Counter("proc.checkpoints").Inc()
	}
	if err := w.deliver(delivs); err != nil {
		return nil, err
	}
	if n := len(delivs); n > 0 {
		w.ctr.Logical(n)
		w.ctr.Transmitted(1, comm.BatchWireBytes(n))
	}

	// The shared step body, for this rank only (the machine's Procs). What
	// it hands over stays in this process's slots for other ranks, which
	// nothing here reads: the orchestrator's machine hands it over again
	// when it replays the completions in the ack.
	mc := &w.mc
	mc.Step(local)
	ack := &mc.Acks[w.rank]
	completed := w.compBuf[:0]
	for _, t := range w.steps.Tasks(w.rank, local)[:ack.Completed] {
		val := mc.Psi[t]
		w.logTasks = append(w.logTasks, t)
		w.logPsi = append(w.logPsi, val)
		completed = append(completed, comm.Item{Task: t, Psi: val})
	}
	w.compBuf = completed
	w.col.Counter("proc.tasks").Add(int64(ack.Completed))
	w.col.Counter("proc.steps").Inc()
	errMsg := ""
	if ack.Err != nil {
		errMsg = fmt.Sprintf("procrun: rank %d at global step %d: %v", w.rank, global, ack.Err)
	}

	e := enc{b: w.ackb[:0]}
	appendFluxBatch(&e, completed)
	e.flag(ack.Stalled)
	e.i32(int32(ack.StallTask))
	e.i32(int32(ack.StallMiss))
	e.str(errMsg)
	w.ackb = e.b
	return func() error { return w.current().writeFrame(fAck, e.b, 5*time.Second) }, nil
}

// deliver places fluxes that came off the wire, named by producing task,
// in the receive slots the epoch's routes give (task, own rank). A task id
// out of range, or one with no edge into this rank, is a protocol error
// (*machine.RouteError): fatal, like any other malformed frame.
func (w *worker) deliver(items []comm.Item) error {
	for _, it := range items {
		if err := w.mc.DeliverNamed(it.Task, w.rank, it.Psi); err != nil {
			return fmt.Errorf("procrun: rank %d: %w", w.rank, err)
		}
	}
	return nil
}

// onSnapshot ships the worker's metrics snapshot for the orchestrator's
// merged report.
func (w *worker) onSnapshot() (func() error, error) {
	var buf strings.Builder
	if err := w.col.Snapshot().WriteJSON(&buf); err != nil {
		return nil, err
	}
	b := []byte(buf.String())
	return func() error { return w.current().writeFrame(fSnapshot, b, 5*time.Second) }, nil
}

func (w *worker) okReply() func() error {
	return func() error { return w.current().writeFrame(fOK, nil, 5*time.Second) }
}
