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
// Two executors are provided, and they produce bitwise-identical fluxes.
// Both run one source iteration (SolveOn): the same prelude, the same
// audit, the same sweep/UpdatePhi loop; they differ only in what sweeps.
//
//   - SolveCtx: serial, walking tasks in schedule start order.
//   - SolveFaultTolerant: the modelled machine (internal/machine) — the m
//     processors of the schedule's assignment, exchanging cross-processor
//     angular fluxes only through the interconnect, in barrier-synchronous
//     steps — run by the fault engine (internal/faults), a faithful
//     miniature of the distributed sweep the schedule would drive on a
//     real cluster. With no plan it is the fault-free parallel solve: the
//     first sweep steps the machine, and every later one, having nothing
//     left to decide, runs flat and adds the traffic the first counted.
//     A stepped sweep runs its processors one after another on the
//     caller's goroutine; a large flat one runs its direction blocks side
//     by side, on up to GOMAXPROCS goroutines (internal/machine's Sweep).
//     What is modelled is the machine's data flow and traffic, not its
//     speed.
package transport

import (
	"context"
	"fmt"
	"math"
	"slices"

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
	// reschedule (verify.Schedule under its rule, done set included) and
	// the final accounting. The SWEEPSCHED_VERIFY
	// environment variable forces it on; the Config an executor's Sweeper
	// receives has it resolved.
	Verify bool
	// NoBatch disables the batched flux interconnect on every
	// communicating executor (SolveFaultTolerant, with or without a plan,
	// and the multi-process runner), sending one transmission per logical
	// cross-processor message instead of deadline-driven per-destination
	// envelopes (internal/comm). The unbatched path is the differential
	// oracle: both modes converge bitwise-identically; only the
	// transmission counts and bytes differ.
	NoBatch bool
	// Collector, when non-nil, receives every solve's counters
	// (transport.iterations, the transport.solve.time span), the comm.*
	// series of the communicating executors — posted once per fault
	// epoch, on every return path, so a cancelled solve has reported what
	// it sent — and the fault engine's faults.* series (epochs, live
	// processors, recoveries), which a fault-free parallel solve posts
	// too: it is the engine with an empty plan.
	Collector *obs.Collector
}

// DependencyOnly simulates a schedule: no source and no scattering, so
// every flux is zero, and one sweep on the per-message interconnect. A
// task still runs only once its upwind fluxes are done or delivered, and
// Comm.Messages and Comm.Rounds recount the schedule's C1 and C2.
var DependencyOnly = Config{SigmaT: 1, MaxIters: 1, NoBatch: true}

// verifyOn reports whether this solve should audit its schedule.
func (c Config) verifyOn() bool { return c.Verify || verify.ForcedByEnv() }

func (c Config) withDefaults() (Config, error) {
	c.Verify = c.verifyOn()
	// Every comparison with NaN is false: without this, a NaN input would
	// pass the range checks below and a NaN Tol would never be met.
	for _, x := range []struct {
		name string
		v    float64
	}{{"SigmaT", c.SigmaT}, {"SigmaS", c.SigmaS}, {"Source", c.Source}, {"Tol", c.Tol}} {
		if math.IsNaN(x.v) || math.IsInf(x.v, 0) {
			return c, fmt.Errorf("transport: %s must be finite, got %v", x.name, x.v)
		}
	}
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
		if !(w > 0) || math.IsInf(w, 0) {
			return c, fmt.Errorf("transport: angular weight %d is %v, want finite and > 0", i, w)
		}
	}
	for v, q := range c.SourceField {
		if !(q >= 0) || math.IsInf(q, 0) {
			return c, fmt.Errorf("transport: source %v at cell %d, want finite and >= 0", q, v)
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
	// Comm reports observed communication. Zero for the serial SolveCtx
	// (it performs none) and for executors that predate the counters.
	Comm CommStats
}

// CellBalance fills bal with the cell balance of the sweep that reads the
// scalar flux phi, which every executor shares — the serial walk, and the
// modelled machine under the fault engine and the worker processes of
// internal/procrun:
//
//	psi = (Q[v] + inflow) / Denom,  Q[v] = source(v) + SigmaS·φ[v],  Denom = 1 + SigmaT
//
// It is called once per sweep, after UpdatePhi rewrote phi, and the
// balance is constant within the sweep — the property that makes replayed
// tasks, on any executor, reproduce their fluxes bitwise.
func CellBalance(bal *machine.Balance, cfg Config, phi []float64) {
	bal.Q = slices.Grow(bal.Q[:0], len(phi))[:len(phi)]
	for v := range bal.Q {
		q := cfg.Source
		if cfg.SourceField != nil {
			q = cfg.SourceField[v]
		}
		bal.Q[v] = q + cfg.SigmaS*phi[v]
	}
	bal.Denom = 1 + cfg.SigmaT
}

// sweepOnce computes one full sweep of every direction with the cell
// balance bal, writing angular fluxes into psi (indexed i*n+v). done is a
// scratch bool slice of the same length. Tasks are processed in the given
// order, which must be precedence-compatible.
func sweepOnce(inst *sched.Instance, order []sched.TaskID, bal *machine.Balance, psi []float64, done []bool) error {
	n := int32(inst.N())
	clear(done)
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
		psi[base+v] = (bal.Q[v] + inflow) / bal.Denom
		done[base+v] = true
	}
	return nil
}

// UpdatePhi folds psi into a new scalar flux using the configured angular
// weights, in a fixed (cell-major, direction-minor) order so every executor
// produces the same floating-point result. It returns the max |Δφ|, NaN
// if any difference is (a NaN is never below the tolerance).
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
		if d := math.Abs(sum - phi[v]); d > maxDiff || math.IsNaN(d) {
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
		// The schedule carries the delay it was built under; hold it to that.
		if err := verify.Schedule(inst, s, verify.Opts{CommDelay: s.CommDelay}); err != nil {
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

// SolveCtx runs source iteration serially, sweeping in the schedule's
// execution order — by start step, the order the step table groups tasks
// in — which any validated schedule makes precedence-compatible. A
// schedule that does not cover its tasks (one unscheduled, or starting at
// or after the makespan) is refused with the step table's error. ctx is
// checked once per source iteration (one full sweep of every direction).
func SolveCtx(ctx context.Context, s *sched.Schedule, cfg Config) (*Result, error) {
	return SolveOn(ctx, s, cfg, serialSweeper)
}

func serialSweeper(s *sched.Schedule, cfg Config, phi, psi []float64) (func(context.Context) error, *CommStats, error) {
	var steps sched.StepTable
	if err := steps.Build(s, nil, nil); err != nil {
		return nil, nil, err
	}
	done := make([]bool, len(psi))
	var bal machine.Balance
	return func(ctx context.Context) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		CellBalance(&bal, cfg, phi)
		return sweepOnce(s.Inst, steps.Order(), &bal, psi, done)
	}, nil, nil
}
