package transport

import (
	"context"
	"fmt"

	"sweepsched/internal/faults"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// SolveFaultTolerant runs the source iteration on the fault-injected
// distributed executor (internal/faults): the live modelled processors on
// the shared step driver, the interconnect wrapped by the plan's injector,
// and checkpointed recovery rescheduling on crashes and lost fluxes. Message
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
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	inst := s.Inst
	if err := cfg.validateFor(inst); err != nil {
		return nil, nil, err
	}
	eng, err := faults.NewEngine(s, plan)
	if err != nil {
		return nil, nil, err
	}
	eng.Observe(cfg.Collector)
	eng.SetNoBatch(cfg.NoBatch)
	if cfg.Verify {
		eng.SetVerify(true)
	}
	if cfg.verifyOn() {
		if err := verify.Schedule(s.Inst, s, verify.Opts{}); err != nil {
			return nil, eng.Report(), fmt.Errorf("transport: schedule failed the audit: %w", err)
		}
	}
	phi := make([]float64, inst.N())
	psi := make([]float64, inst.NTasks())
	compute := CellBalance(inst, cfg, phi)
	res := &Result{}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if err := eng.Sweep(ctx, compute, psi); err != nil {
			return nil, eng.Report(), err
		}
		res.Residual = UpdatePhi(inst, psi, phi, cfg)
		res.Iterations = iter
		if res.Residual < cfg.Tol {
			res.Converged = true
			break
		}
	}
	res.Phi = phi
	res.Comm.Messages, res.Comm.Batches, res.Comm.Bytes, res.Comm.Rounds = eng.CommTraffic()
	if cfg.verifyOn() {
		// Cross-check the run's accumulated accounting before reporting it.
		if err := eng.Audit(); err != nil {
			return nil, eng.Report(), fmt.Errorf("transport: recovery accounting failed the audit: %w", err)
		}
	}
	return res, eng.Report(), nil
}
