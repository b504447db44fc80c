package sweepsched

import (
	"context"

	"sweepsched/internal/faults"
	"sweepsched/internal/simulate"
	"sweepsched/internal/transport"
)

// FaultKind classifies an injected fault event.
type FaultKind = faults.Kind

// The injectable fault kinds. FaultSever cuts a worker's coordinator
// socket (the process stays alive and reconnects with bounded backoff);
// only the multi-process executor gives it a physical meaning, the
// in-process engines ignore sever events.
const (
	FaultCrash     = faults.Crash
	FaultDrop      = faults.Drop
	FaultDelay     = faults.Delay
	FaultDuplicate = faults.Duplicate
	FaultSever     = faults.Sever
)

// FaultSpec sets how many faults of each kind a plan should contain; see
// the faults package for the knobs' semantics.
type FaultSpec = faults.Spec

// FaultEvent is one concrete injected fault.
type FaultEvent = faults.Event

// FaultPlan is a deterministic, seed-derived fault scenario for one
// schedule. The same (schedule, spec, seed) always yields the same plan.
type FaultPlan = faults.Plan

// RecoveryReport accounts for a fault-injected execution: events applied,
// recovery reschedules, replayed tasks, and step overheads. Its String
// form is byte-for-byte reproducible for a fixed plan.
type RecoveryReport = faults.RecoveryReport

// UnrecoverableError is returned when every processor has crashed with
// work remaining.
type UnrecoverableError = faults.UnrecoverableError

// NewFaultPlan draws a fault scenario for the result's schedule. Crash
// steps, victim processors and affected messages are sampled from
// independent substreams of the seed, so plans are reproducible and
// comparable across specs.
func NewFaultPlan(res *Result, spec FaultSpec, seed uint64) *FaultPlan {
	return faults.NewPlan(res.Schedule, spec, seed)
}

// SimulateCtx is Simulate with cooperative cancellation: the executor
// returns ctx.Err() within one barrier step.
func (p *Problem) SimulateCtx(ctx context.Context, res *Result) (*SimulationResult, error) {
	return simulate.RunCtx(ctx, res.Schedule)
}

// SimulateFaulty executes the result's schedule under a fault plan with
// checkpointed recovery rescheduling. A nil plan injects nothing. The
// RecoveryReport is returned even on error, describing the faults applied
// before the failure.
func (p *Problem) SimulateFaulty(ctx context.Context, res *Result, plan *FaultPlan) (*SimulationResult, *RecoveryReport, error) {
	return simulate.RunFaulty(ctx, res.Schedule, plan)
}

// SolveTransportCtx is SolveTransport with cooperative cancellation
// (observed once per source iteration).
func (p *Problem) SolveTransportCtx(ctx context.Context, res *Result, cfg TransportConfig) (*TransportResult, error) {
	return transport.SolveCtx(ctx, res.Schedule, cfg)
}

// SolveTransportParallelCtx is SolveTransportParallel with cooperative
// cancellation: the step driver observes ctx before every step and
// returns ctx.Err().
func (p *Problem) SolveTransportParallelCtx(ctx context.Context, res *Result, cfg TransportConfig) (*TransportResult, error) {
	return transport.SolveParallelCtx(ctx, res.Schedule, cfg)
}

// SolveTransportFaultTolerant runs the transport source iteration on the
// fault-injected recovery executor: the live modelled processors on the
// same step driver as SolveTransportParallel, with planned crashes, the
// injector's drops, delays and duplicates, checkpoints and stall
// detection all decided in the barrier hook. Under any plan that leaves
// at least one processor alive, the converged flux is bitwise-identical
// to the serial SolveTransport; the RecoveryReport is byte-for-byte
// reproducible for a fixed plan.
func (p *Problem) SolveTransportFaultTolerant(ctx context.Context, res *Result, cfg TransportConfig, plan *FaultPlan) (*TransportResult, *RecoveryReport, error) {
	return transport.SolveFaultTolerant(ctx, res.Schedule, cfg, plan)
}
