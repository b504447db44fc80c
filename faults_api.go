package sweepsched

import (
	"context"

	"sweepsched/internal/faults"
	"sweepsched/internal/transport"
)

// FaultSpec sets how many faults of each kind a plan should contain; see
// the faults package for the knobs' semantics. Severs cut a worker's
// coordinator socket: only SolveTransportProcs gives them a physical
// meaning, the in-process executors ignore them.
type FaultSpec = faults.Spec

// FaultPlan is a deterministic, seed-derived fault scenario for one
// schedule. The same (schedule, spec, seed) always yields the same plan.
type FaultPlan = faults.Plan

// RecoveryReport accounts for a fault-injected execution: events applied,
// recovery reschedules, replayed tasks, and step overheads. Its String
// form is byte-for-byte reproducible for a fixed plan.
type RecoveryReport = faults.RecoveryReport

// NewFaultPlan draws a fault scenario for the result's schedule. Crash
// steps, victim processors and affected messages are sampled from
// independent substreams of the seed, so plans are reproducible and
// comparable across specs.
func NewFaultPlan(res *Result, spec FaultSpec, seed uint64) *FaultPlan {
	return faults.NewPlan(res.Schedule, spec, seed)
}

// SimulateFaulty executes the result's schedule under a fault plan with
// checkpointed recovery rescheduling: SolveTransportFaultTolerant's
// dependency-only run. A nil plan injects nothing. The result counts what
// actually flowed (replays included). A failed execution still returns its
// RecoveryReport, describing the faults applied before the failure.
func (p *Problem) SimulateFaulty(ctx context.Context, res *Result, plan *FaultPlan) (*SimulationResult, *RecoveryReport, error) {
	s, err := p.scheduleOf(res)
	if err != nil {
		return nil, nil, err
	}
	_, rep, err := transport.SolveFaultTolerant(ctx, s, transport.DependencyOnly, plan)
	if err != nil {
		return nil, rep, err
	}
	return &SimulationResult{Steps: rep.StepsExecuted, TotalMessages: rep.MessagesSent, CommRounds: rep.CommRounds}, rep, nil
}

// SolveTransportFaultTolerant runs the transport source iteration on the
// fault-injected recovery executor: the live modelled processors on the
// same modelled machine as SolveTransportParallel, with planned crashes, the
// injector's drops, delays and duplicates, checkpoints and stall
// detection all decided in the barrier hook. Under any plan that leaves
// at least one processor alive, the converged flux is bitwise-identical
// to the serial SolveTransport; the RecoveryReport is byte-for-byte
// reproducible for a fixed plan. When every processor crashes with work
// left, the error is the faults package's UnrecoverableError.
func (p *Problem) SolveTransportFaultTolerant(ctx context.Context, res *Result, cfg TransportConfig, plan *FaultPlan) (*TransportResult, *RecoveryReport, error) {
	s, err := p.scheduleOf(res)
	if err != nil {
		return nil, nil, err
	}
	return transport.SolveFaultTolerant(ctx, s, cfg, plan)
}
