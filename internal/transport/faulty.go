package transport

import (
	"context"
	"fmt"

	"sweepsched/internal/faults"
	"sweepsched/internal/sched"
)

// SolveFaultTolerant runs the source iteration (SolveOn) on the
// fault-injected distributed executor (internal/faults): the modelled
// machine's live processors on the shared step driver, its hand-over
// wrapped by the plan's injector, and checkpointed recovery rescheduling
// on crashes and lost fluxes. Message
// fault events fire on the first sweep that sends the affected flux;
// crashes are permanent, so later iterations keep running on the recovered
// schedule.
//
// Because recovery replays tasks with identical inputs and the per-task
// cell-balance arithmetic is unchanged, the converged flux is
// bitwise-identical to the serial Solve whenever recovery succeeds —
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
		compute := CellBalance(s.Inst, cfg, phi)
		return func(ctx context.Context) error { return eng.Sweep(ctx, compute, psi) }, eng.CommTraffic(), nil
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
