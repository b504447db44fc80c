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
// Three executors are provided, and they produce bitwise-identical
// fluxes. All run one source iteration (SolveOn): the same prelude, the same
// audit, the same sweep/UpdatePhi loop; they differ only in what sweeps.
//
//   - Solve: serial, walking tasks in schedule start order.
//   - SolveParallel: the modelled machine (internal/machine) — the m
//     processors of the schedule's assignment on the shared step driver
//     (sched.RunSteps), exchanging cross-processor angular fluxes only
//     through the interconnect, in barrier-synchronous steps — a faithful
//     miniature of the distributed sweep the schedule would drive on a
//     real cluster. The driver runs a step's processors one after another
//     on the caller's goroutine; what is modelled is the machine's data
//     flow and traffic, not its speed.
//   - SolveFaultTolerant: the same machine under the fault engine
//     (internal/faults).
package transport

import (
	"context"
	"fmt"
	"math"

	"sweepsched/internal/machine"
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
	// Collector, when non-nil, receives every solve's counters
	// (transport.iterations, the transport.solve.time span), the comm.*
	// series of the communicating executors — posted barrier by barrier,
	// so a cancelled solve has reported what it sent — and, on the
	// fault-tolerant path, the engine's epoch/recovery series.
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
// (see machine.Stats, which counts it).
type CommStats = machine.Stats

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
// shares — the serial walk, and the modelled machine's Compute under
// SolveParallel, the fault engine and the worker processes of
// internal/procrun:
//
//	psi = (q + inflow) / (1 + SigmaT),  q = source(v) + SigmaS·φ[v]
//
// The closure reads phi at call time (UpdatePhi rewrites it in place
// between sweeps, so the capture stays current) and is otherwise a pure
// function of (task, inflow) within one sweep — the property that makes
// replayed tasks, on any executor, reproduce their fluxes bitwise.
func CellBalance(inst *sched.Instance, cfg Config, phi []float64) machine.Compute {
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

// Sweeper is what one solve iterates: given the solve's scalar and angular
// flux arrays, it returns the function that sweeps every direction once
// into psi (reading phi as UpdatePhi last left it) and, for an executor
// that communicates, where it counts its observed traffic. It is called
// once the configuration and the schedule have passed the checks, so what
// an executor starts here (internal/procrun: worker processes) does not
// exist while a solve is refused.
type Sweeper func(s *sched.Schedule, cfg Config, phi, psi []float64) (sweep func(context.Context) error, traffic *CommStats, err error)

// SolveOn is the source iteration under every entry point, here and in
// internal/procrun: defaults and shape checks, the audit, then sweeps
// alternating with UpdatePhi until the scalar flux converges or MaxIters
// is spent.
func SolveOn(ctx context.Context, s *sched.Schedule, cfg Config, on Sweeper) (*Result, error) {
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
	res := &Result{Phi: make([]float64, inst.N())}
	psi := make([]float64, inst.NTasks())
	sweep, traffic, err := on(s, cfg, res.Phi, psi)
	if err != nil {
		return nil, err
	}
	defer cfg.Collector.Span("transport.solve.time").End()
	iterations := cfg.Collector.Counter("transport.iterations")
	for iter := 1; iter <= cfg.MaxIters && !res.Converged; iter++ {
		if err := sweep(ctx); err != nil {
			return nil, err
		}
		iterations.Inc()
		res.Residual = UpdatePhi(inst, psi, res.Phi, cfg)
		res.Iterations = iter
		res.Converged = res.Residual < cfg.Tol
	}
	if traffic != nil {
		res.Comm = *traffic
	}
	return res, nil
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
	return SolveOn(ctx, s, cfg, serialSweeper)
}

func serialSweeper(s *sched.Schedule, cfg Config, phi, psi []float64) (func(context.Context) error, *CommStats, error) {
	var steps sched.StepTable
	if err := steps.Build(s, nil, nil); err != nil {
		return nil, nil, err
	}
	done := make([]bool, len(psi))
	return func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return sweepOnce(s.Inst, steps.Order(), phi, psi, done, cfg)
	}, nil, nil
}

// SolveParallel runs the same source iteration on the machine the
// schedule was made for: m modelled processors following the schedule
// step by step on the shared step driver (sched.RunSteps). A
// cross-processor angular flux reaches its consumer only through the
// interconnect, delivered at the barrier between steps (a flux sent
// during step t is visible from step t+1, so every upwind flux is present
// when needed — the schedule guarantees the ordering, and a schedule that
// does not is refused with the machine's error). The result is
// bitwise-identical to Solve.
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
	return SolveOn(ctx, s, cfg, machineSweeper)
}

func machineSweeper(s *sched.Schedule, cfg Config, phi, psi []float64) (func(context.Context) error, *CommStats, error) {
	mc, err := machine.New(s, cfg.NoBatch, CellBalance(s.Inst, cfg, phi), psi)
	if err != nil {
		return nil, nil, err
	}
	mc.Observe(cfg.Collector)
	return mc.Sweep, &mc.Comm, nil
}
