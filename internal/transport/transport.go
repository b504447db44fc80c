// Package transport implements a small discrete-ordinates (S_N) radiation
// transport solver — the application sweeps exist for (§1). Source
// iteration alternates full mesh sweeps (one per direction, in an order a
// sweep schedule prescribes) with a scattering-source update, until the
// scalar flux converges.
//
// The cell-balance model is deliberately simple (uniform cross sections,
// inflow-averaged upwind closure) but it is a genuine fixed-point solve
// whose inner sweeps have exactly the data dependencies the scheduling
// paper studies: cell v in direction i needs the angular fluxes of its
// upwind neighbors in direction i, and nothing else, before it can be
// solved.
//
// Two executors are provided, and they produce bitwise-identical fluxes:
//
//   - Solve: serial, walking tasks in schedule start order.
//   - SolveParallel: the m processors of the schedule's assignment as
//     modelled processors on the shared step driver (sched.RunSteps),
//     exchanging cross-processor angular fluxes only through the
//     interconnect, in barrier-synchronous steps — a faithful miniature
//     of the distributed sweep the schedule would drive on a real
//     cluster. The driver runs a step's processors one after another on
//     the caller's goroutine; what is modelled is the machine's data
//     flow and traffic, not its speed.
package transport

import (
	"context"
	"fmt"
	"math"

	"sweepsched/internal/comm"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// Config sets the physics and iteration controls.
type Config struct {
	SigmaT   float64 // total cross-section (> 0)
	SigmaS   float64 // scattering cross-section (0 ≤ SigmaS < SigmaT for convergence)
	Source   float64 // uniform external source
	Tol      float64 // max |Δφ| convergence threshold (default 1e-10)
	MaxIters int     // iteration cap (default 500)
	// Weights are the per-direction angular quadrature weights used to
	// integrate the scalar flux (e.g. quadrature.SNWeights). nil means
	// equal weights 1/k; otherwise the length must match the instance's
	// direction count and the weights must be positive.
	Weights []float64
	// SourceField, if non-nil, gives a per-cell external source that
	// overrides the uniform Source (used by the multigroup solver to feed
	// downscatter into a group). Entries must be non-negative.
	SourceField []float64
	// Verify audits the schedule with internal/verify before the solve
	// starts and, on the fault-tolerant path, audits every recovery
	// reschedule and the final accounting. The SWEEPSCHED_VERIFY
	// environment variable forces it on.
	Verify bool
	// NoBatch disables the batched flux interconnect on every
	// communicating executor (SolveParallel, SolveFaultTolerant, and the
	// multi-process runner), sending one transmission per logical
	// cross-processor message instead of deadline-driven per-destination
	// envelopes (internal/comm). The unbatched path is the differential
	// oracle: both modes converge bitwise-identically; only the
	// transmission counts and bytes differ.
	NoBatch bool
	// Collector, when non-nil, receives solve counters (iterations) and,
	// on the fault-tolerant path, the engine's epoch/recovery series.
	Collector *obs.Collector
}

// verifyOn reports whether this solve should audit its schedule.
func (c Config) verifyOn() bool { return c.Verify || verify.ForcedByEnv() }

func (c Config) withDefaults() (Config, error) {
	if c.Tol <= 0 {
		c.Tol = 1e-10
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 500
	}
	if c.SigmaT <= 0 {
		return c, fmt.Errorf("transport: SigmaT must be positive, got %v", c.SigmaT)
	}
	if c.SigmaS < 0 || c.SigmaS >= c.SigmaT {
		return c, fmt.Errorf("transport: need 0 <= SigmaS < SigmaT, got SigmaS=%v SigmaT=%v", c.SigmaS, c.SigmaT)
	}
	for i, w := range c.Weights {
		if w <= 0 {
			return c, fmt.Errorf("transport: angular weight %d is %v, want > 0", i, w)
		}
	}
	for v, q := range c.SourceField {
		if q < 0 {
			return c, fmt.Errorf("transport: negative source %v at cell %d", q, v)
		}
	}
	return c, nil
}

// validateFor checks the instance-dependent slice lengths the Config doc
// comment promises: Weights must match the direction count and SourceField
// the cell count. Both are verified at every solver's entry (withDefaults
// cannot — it has no instance), so a short slice yields a descriptive
// error instead of an index panic inside updatePhi or sweepOnce.
func (c Config) validateFor(inst *sched.Instance) error {
	if c.Weights != nil && len(c.Weights) != inst.K() {
		return fmt.Errorf("transport: %d angular weights for %d directions", len(c.Weights), inst.K())
	}
	if c.SourceField != nil && len(c.SourceField) != inst.N() {
		return fmt.Errorf("transport: source field covers %d of %d cells", len(c.SourceField), inst.N())
	}
	return nil
}

// CommStats is the communication the executor that produced a Result
// actually performed — observed traffic, not schedule-derived analytics
// (sched.C1/C2 describe the schedule; these describe the run, which may
// differ under recovery rescheduling).
type CommStats struct {
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

// Result is a converged (or iteration-capped) solve.
type Result struct {
	Phi        []float64 // scalar flux per cell
	Iterations int
	Residual   float64 // final max |Δφ|
	Converged  bool
	// Comm reports observed communication. Zero for the serial Solve
	// (it performs none) and for executors that predate the counters.
	Comm CommStats
}

// CellBalance returns the per-task cell-balance closure every executor
// shares — serial, parallel (step driver), fault-injected, and the worker
// processes of internal/procrun:
//
//	psi = (q + inflow) / (1 + SigmaT),  q = source(v) + SigmaS·φ[v]
//
// The closure reads phi at call time (UpdatePhi rewrites it in place
// between sweeps, so the capture stays current) and is otherwise a pure
// function of (task, inflow) within one sweep — the property that makes
// replayed tasks, on any executor, reproduce their fluxes bitwise.
func CellBalance(inst *sched.Instance, cfg Config, phi []float64) func(t sched.TaskID, inflow float64) float64 {
	return func(t sched.TaskID, inflow float64) float64 {
		v, _ := inst.Split(t)
		q := cfg.Source
		if cfg.SourceField != nil {
			q = cfg.SourceField[v]
		}
		q += cfg.SigmaS * phi[v]
		return (q + inflow) / (1 + cfg.SigmaT)
	}
}

// sweepOnce computes one full sweep of every direction given the previous
// scalar flux, writing angular fluxes into psi (indexed i*n+v). done is a
// scratch bool slice of the same length. Tasks are processed in the given
// order, which must be precedence-compatible.
func sweepOnce(inst *sched.Instance, order []sched.TaskID, phi, psi []float64, done []bool, cfg Config) error {
	n := int32(inst.N())
	compute := CellBalance(inst, cfg, phi)
	for i := range done {
		done[i] = false
	}
	for _, t := range order {
		v, i := inst.Split(t)
		d := inst.DAGs[i]
		base := int32(i) * n
		inflow := 0.0
		preds := d.In(v)
		for _, u := range preds {
			ut := base + u
			if !done[ut] {
				return fmt.Errorf("transport: task (%d,%d) ran before upwind (%d,%d)", v, i, u, i)
			}
			inflow += psi[ut]
		}
		if len(preds) > 0 {
			inflow /= float64(len(preds))
		}
		psi[base+v] = compute(t, inflow)
		done[base+v] = true
	}
	return nil
}

// UpdatePhi folds psi into a new scalar flux using the configured angular
// weights, in a fixed (cell-major, direction-minor) order so every executor
// produces the same floating-point result. It returns the max |Δφ|.
func UpdatePhi(inst *sched.Instance, psi, phi []float64, cfg Config) float64 {
	n := inst.N()
	k := inst.K()
	maxDiff := 0.0
	for v := 0; v < n; v++ {
		sum := 0.0
		if cfg.Weights == nil {
			for i := 0; i < k; i++ {
				sum += psi[i*n+v]
			}
			sum /= float64(k)
		} else {
			for i := 0; i < k; i++ {
				sum += cfg.Weights[i] * psi[i*n+v]
			}
		}
		if d := math.Abs(sum - phi[v]); d > maxDiff {
			maxDiff = d
		}
		phi[v] = sum
	}
	return maxDiff
}

// Solve runs source iteration serially, sweeping in the schedule's
// execution order — by start step, the order the step table groups tasks
// in — which any validated schedule makes precedence-compatible. A
// schedule that does not cover its tasks (one unscheduled, or starting at
// or after the makespan) is refused with the step table's error.
func Solve(s *sched.Schedule, cfg Config) (*Result, error) {
	return SolveCtx(context.Background(), s, cfg)
}

// SolveCtx is Solve with cooperative cancellation, checked once per source
// iteration (one full sweep of every direction).
func SolveCtx(ctx context.Context, s *sched.Schedule, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	inst := s.Inst
	if err := cfg.validateFor(inst); err != nil {
		return nil, err
	}
	if cfg.verifyOn() {
		if err := verify.Schedule(inst, s, verify.Opts{}); err != nil {
			return nil, fmt.Errorf("transport: schedule failed the audit: %w", err)
		}
	}
	var steps sched.StepTable
	if err := steps.Build(s, nil, nil); err != nil {
		return nil, err
	}
	span := cfg.Collector.Span("transport.solve.time")
	order := steps.Order()
	phi := make([]float64, inst.N())
	psi := make([]float64, inst.NTasks())
	done := make([]bool, inst.NTasks())
	res := &Result{}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := sweepOnce(inst, order, phi, psi, done, cfg); err != nil {
			return nil, err
		}
		cfg.Collector.Counter("transport.iterations").Inc()
		res.Residual = UpdatePhi(inst, psi, phi, cfg)
		res.Iterations = iter
		if res.Residual < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Phi = phi
	span.End()
	return res, nil
}

// SolveParallel runs the same source iteration on the machine the
// schedule was made for: m modelled processors following the schedule
// step by step on the shared step driver (sched.RunSteps). A
// cross-processor angular flux reaches its consumer only through the
// interconnect, delivered by the barrier hook between steps (a flux
// sent during step t is visible from step t+1, so every upwind flux is
// present when needed — the schedule guarantees the ordering). The
// result is bitwise-identical to Solve.
func SolveParallel(s *sched.Schedule, cfg Config) (*Result, error) {
	return SolveParallelCtx(context.Background(), s, cfg)
}

// SolveParallelCtx is SolveParallel with cooperative cancellation: the
// driver observes ctx before every step, so cancellation returns
// ctx.Err() within one barrier step.
//
// By default cross-processor fluxes ride deadline-driven per-destination
// envelopes (internal/comm): a sender's flux is held in the destination's
// open envelope until the barrier before its earliest consumer's step,
// so one transmission carries many messages. Config.NoBatch selects the
// per-message interconnect instead — one delivery per logical message at
// the barrier closing the step it was sent in — the differential oracle
// the batched path is tested against. Both are bitwise-identical to
// Solve; only Comm.Batches and Comm.Bytes differ.
func SolveParallelCtx(ctx context.Context, s *sched.Schedule, cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	inst := s.Inst
	if err := cfg.validateFor(inst); err != nil {
		return nil, err
	}
	if cfg.verifyOn() {
		if err := verify.Schedule(inst, s, verify.Opts{}); err != nil {
			return nil, fmt.Errorf("transport: schedule failed the audit: %w", err)
		}
	}
	ps, err := newParallelSolve(s, cfg)
	if err != nil {
		return nil, err
	}
	if ps.outbox != nil {
		// Every cross edge's consumer starts before Makespan, so a
		// completed sweep leaves the outbox empty; an error or cancellation
		// may not.
		defer ps.outbox.DiscardAll()
	}
	res := &ps.res
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if err := ps.sweep(ctx); err != nil {
			return nil, err
		}
		res.Residual = UpdatePhi(inst, ps.psi, ps.phi, cfg)
		res.Iterations = iter
		if res.Residual < cfg.Tol {
			res.Converged = true
			break
		}
	}
	ps.ctr.Logical(int(res.Comm.Messages))
	if cfg.NoBatch {
		// Per-message cost model: one transmission per logical message.
		res.Comm.Batches = res.Comm.Messages
		res.Comm.Bytes = comm.PerMessageWireBytes(int(res.Comm.Messages))
		ps.ctr.PerMessage(int(res.Comm.Messages))
	}
	res.Phi = ps.phi
	return res, nil
}

// procAck is one modelled processor's account of the running step,
// written by the processor and folded by the barrier hook.
type procAck struct {
	sent int32 // logical cross-processor messages produced this step
	err  error
}

// parallelSolve is SolveParallel's state on the step driver. A completed
// task's cross-processor fluxes are queued, and the interconnect — the
// only fork — takes them over at the barrier closing the step. Per
// message (Config.NoBatch), CloseStep delivers each one to its
// destination's receive slot. Batched, CloseStep appends each to the
// destination's open envelope tagged with the consumer's scheduled start
// step, and OpenStep delivers exactly the envelopes whose earliest
// deadline is the step about to open, so one transmission carries every
// flux the destination needs next, accumulated across all senders and all
// prior steps. The flux values, their production order per processor and
// Comm.{Messages,Rounds} are the same either way.
type parallelSolve struct {
	start   []int32 // the schedule's start steps: a message is due at its consumer's
	procs   []int32 // every modelled processor is live
	steps   sched.StepTable
	recv    sched.RecvTable
	sent    []sched.Send // the running step's messages, handed over by CloseStep
	outbox  *comm.Outbox // nil: per-message interconnect
	flush   func(*comm.Batch)
	compute func(sched.TaskID, float64) float64
	phi     []float64
	psi     []float64 // a processor reads only fluxes its own tasks wrote
	acks    []procAck
	ctr     comm.Counters
	res     Result
}

func newParallelSolve(s *sched.Schedule, cfg Config) (*parallelSolve, error) {
	inst := s.Inst
	ps := &parallelSolve{
		start: s.Start,
		procs: sched.AllProcs(inst.M),
		phi:   make([]float64, inst.N()),
		psi:   make([]float64, inst.NTasks()),
		acks:  make([]procAck, inst.M),
		ctr:   comm.NewCounters(cfg.Collector),
	}
	if err := ps.steps.Build(s, nil, nil); err != nil {
		return nil, err
	}
	ps.recv.Build(inst, s.Assign)
	ps.compute = CellBalance(inst, cfg, ps.phi)
	if !cfg.NoBatch {
		ps.outbox = comm.NewOutbox(inst.M)
		ps.flush = ps.deliverBatch // bound once: a method value per step would allocate
	}
	return ps, nil
}

// sweep runs one sweep of every direction into psi: the receive store is
// forgotten, then every step of the schedule runs on the step driver.
func (ps *parallelSolve) sweep(ctx context.Context) error {
	ps.recv.Reset()
	return sched.RunSteps(ctx, ps.procs, ps.steps.Steps(), ps)
}

func (ps *parallelSolve) OpenStep(st int32) error {
	if ps.outbox != nil {
		ps.outbox.FlushDue(st, ps.flush)
	}
	return nil
}

// deliverBatch accounts for one envelope and hands its fluxes to the
// destination's receive slots.
func (ps *parallelSolve) deliverBatch(b *comm.Batch) {
	ps.res.Comm.Batches++
	ps.res.Comm.Bytes += comm.BatchWireBytes(len(b.Items))
	ps.ctr.Envelope(len(b.Items))
	for _, it := range b.Items {
		ps.recv.Deliver(it.Slot, it.Psi)
	}
	ps.outbox.Recycle(b)
}

// RunProc is modelled processor p's step. Every route was resolved when
// the tables were built: an upwind flux is read at the producer's task id
// or in a receive slot, and a completed task's messages are its out-side
// entries, due at their consumers' scheduled starts.
func (ps *parallelSolve) RunProc(p, st int32) {
	start := ps.start
	ack := &ps.acks[p]
	*ack = procAck{}
	for _, t := range ps.steps.Tasks(p, st) {
		inflow := 0.0
		in := ps.recv.In(t)
		for _, x := range in {
			if x >= 0 {
				inflow += ps.psi[x] // written by this processor earlier
				continue
			}
			up, have := ps.recv.Load(^x)
			if !have {
				ack.err = fmt.Errorf("transport: proc %d missing flux for task %d at step %d", p, ps.recv.Producer(^x), st)
				return
			}
			inflow += up
		}
		if len(in) > 0 {
			inflow /= float64(len(in))
		}
		val := ps.compute(t, inflow)
		ps.psi[t] = val
		out := ps.recv.Out(t)
		for _, o := range out {
			ps.sent = append(ps.sent, sched.Send{Task: t, To: o.To, Slot: o.Slot, Due: start[o.Consumer], Psi: val})
		}
		ack.sent += int32(len(out))
	}
}

// CloseStep hands the step's sends to the interconnect and folds the acks
// in processor order: the lowest processor's error wins, and Comm.Rounds
// adds the step's per-processor maximum, the observed analogue of C2.
func (ps *parallelSolve) CloseStep(int32) error {
	for _, x := range ps.sent {
		if ps.outbox != nil {
			ps.outbox.Add(x.To, comm.Item{Task: x.Task, Slot: x.Slot, Psi: x.Psi}, x.Due)
		} else {
			ps.recv.Deliver(x.Slot, x.Psi)
		}
	}
	ps.sent = ps.sent[:0]
	var firstErr error
	var stepMax int32
	for p := range ps.acks {
		a := &ps.acks[p]
		ps.res.Comm.Messages += int64(a.sent)
		stepMax = max(stepMax, a.sent)
		if a.err != nil && firstErr == nil {
			firstErr = a.err
		}
	}
	ps.res.Comm.Rounds += int64(stepMax)
	return firstErr
}
