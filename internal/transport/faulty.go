package transport

import (
	"context"
	"fmt"

	"sweepsched/internal/faults"
	"sweepsched/internal/machine"
	"sweepsched/internal/sched"
)

// SolveFaultTolerant runs the source iteration (SolveOn) on the machine the
// schedule was made for, under the fault engine (internal/faults): m
// modelled processors following the schedule step by step, a
// cross-processor angular flux reaching its consumer only through the
// interconnect, visible from the step after the one that sent it — the
// schedule guarantees the ordering, and a schedule that does not is
// refused with the engine's error. The engine checks ctx before every
// step, so cancellation returns ctx.Err() within one barrier step.
//
// By default cross-processor fluxes ride deadline-driven per-destination
// envelopes (internal/comm): a flux joins its destination's open envelope,
// which is transmitted at the barrier before the earliest consumer's step
// of anything it holds, so one transmission carries many messages.
// Config.NoBatch selects one transmission per logical message instead, the
// differential oracle; only Comm.Batches and Comm.Bytes differ.
//
// plan's injector wraps the hand-over, and crashes and lost fluxes are
// recovered from by checkpointed rescheduling; a nil plan injects nothing,
// which is the fault-free parallel solve. Message fault events fire on the
// first sweep that sends the affected flux; crashes are permanent, so
// later iterations keep running on the recovered schedule.
//
// Because recovery replays tasks with identical inputs and the per-task
// cell-balance arithmetic is unchanged, the converged flux is
// bitwise-identical to the serial SolveCtx whenever recovery succeeds —
// i.e. under any plan that leaves at least one processor alive. The
// returned RecoveryReport is byte-for-byte reproducible for a fixed plan,
// independent of GOMAXPROCS. On error (cancellation, unrecoverable loss of
// every processor, infeasible schedule) the report still describes the
// faults applied so far.
func SolveFaultTolerant(ctx context.Context, s *sched.Schedule, cfg Config, plan *faults.Plan) (*Result, *faults.RecoveryReport, error) {
	var eng *faults.Engine
	res, err := SolveOn(ctx, s, cfg, func(s *sched.Schedule, cfg Config, phi, psi []float64) (func(context.Context) error, *CommStats, error) {
		var err error
		if eng, err = faults.NewEngine(s, plan); err != nil {
			return nil, nil, err
		}
		eng.Observe(cfg.Collector)
		eng.SetNoBatch(cfg.NoBatch)
		eng.SetVerify(cfg.verifyOn())
		var bal machine.Balance
		return func(ctx context.Context) error {
			CellBalance(&bal, cfg, phi)
			return eng.Sweep(ctx, bal, psi)
		}, eng.CommTraffic(), nil
	})
	if eng == nil {
		return nil, nil, err
	}
	if err == nil && cfg.verifyOn() {
		// Cross-check the run's accumulated accounting before reporting it.
		if aerr := eng.Audit(); aerr != nil {
			res, err = nil, fmt.Errorf("transport: recovery accounting failed the audit: %w", aerr)
		}
	}
	return res, eng.Report(), err
}
