package transport

import (
	"context"

	"sweepsched/internal/machine"
	"sweepsched/internal/sched"
)

// parallelSolve is the handle the executor tests keep on SolveParallelCtx's
// machine: they swap its compute and run single sweeps.
type parallelSolve struct {
	mc      *machine.Machine
	compute machine.Compute
	res     Result
}

func newParallelSolve(s *sched.Schedule, cfg Config) (*parallelSolve, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	balance := CellBalance(s.Inst, cfg, make([]float64, s.Inst.N()))
	mc, err := machine.New(s, cfg.NoBatch, balance, make([]float64, s.Inst.NTasks()))
	if err != nil {
		return nil, err
	}
	return &parallelSolve{mc: mc, compute: mc.Compute}, nil
}

func (ps *parallelSolve) sweep(ctx context.Context) error {
	ps.mc.Compute = ps.compute
	err := ps.mc.Sweep(ctx)
	ps.res.Comm = ps.mc.Comm
	return err
}
