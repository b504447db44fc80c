// Package simulate executes a sweep schedule on the modelled machine
// (internal/machine) with no arithmetic: the schedule's m processors on
// the shared step driver (sched.RunSteps, one barrier-synchronous step
// loop), a constant for the cell balance and the per-message interconnect
// delivered at the barrier. It is the executable counterpart of the
// paper's simulation methodology — every precedence is enforced by an
// actual message arriving (or local completion), so a schedule that
// validates here would run correctly on a real cluster with the same task
// placement.
//
// The simulator doubles as a cross-check of the analytic objective
// functions: it recounts total messages (= C1) and per-step maximum
// send-degrees (summing to C2) from the messages that actually flow.
//
// Run rejects infeasible schedules with a descriptive error; RunCtx adds
// cooperative cancellation (the driver observes ctx before every step),
// and RunFaulty executes under an injected fault plan with checkpointed
// recovery rescheduling (see internal/faults).
package simulate

import (
	"context"

	"sweepsched/internal/faults"
	"sweepsched/internal/machine"
	"sweepsched/internal/sched"
)

// Result summarizes an execution.
type Result struct {
	Steps         int   // barrier steps executed (== schedule makespan when fault-free)
	TotalMessages int64 // messages sent across processors (== C1)
	CommRounds    int64 // Σ_step max_p (messages sent by p at that step) == C2
}

// Run executes the schedule. It returns an error if any task would run
// before one of its inputs is available — i.e., if the schedule is
// infeasible under message passing.
func Run(s *sched.Schedule) (*Result, error) {
	return RunCtx(context.Background(), s)
}

// noFlux is the simulator's cell balance: it tracks dependencies only.
func noFlux(sched.TaskID, float64) float64 { return 0 }

// RunCtx is Run with cooperative cancellation: it returns ctx.Err() within
// one barrier step of cancellation. It is one fault-free sweep of the
// modelled machine on the per-message interconnect.
func RunCtx(ctx context.Context, s *sched.Schedule) (*Result, error) {
	mc, err := machine.New(s, true, noFlux, make([]float64, s.Inst.NTasks()))
	if err != nil {
		return nil, err
	}
	if err := mc.Sweep(ctx); err != nil {
		return nil, err
	}
	return &Result{Steps: s.Makespan, TotalMessages: mc.Comm.Messages, CommRounds: mc.Comm.Rounds}, nil
}

// RunFaulty executes the schedule under an injected fault plan with
// checkpointed recovery (internal/faults): crashed processors' cells are
// rescheduled onto survivors, dropped and delayed fluxes are reread from
// the durable checkpoint after a recovery reschedule. The Result counts
// what actually flowed (replays included), so with an empty plan it equals
// Run's C1/C2 accounting exactly; the RecoveryReport is byte-for-byte
// reproducible for a fixed plan.
func RunFaulty(ctx context.Context, s *sched.Schedule, plan *faults.Plan) (*Result, *faults.RecoveryReport, error) {
	eng, err := faults.NewEngine(s, plan)
	if err != nil {
		return nil, nil, err
	}
	psi := make([]float64, s.Inst.NTasks())
	if err := eng.Sweep(ctx, noFlux, psi); err != nil {
		return nil, eng.Report(), err
	}
	rep := eng.Report()
	return &Result{
		Steps:         rep.StepsExecuted,
		TotalMessages: rep.MessagesSent,
		CommRounds:    rep.CommRounds,
	}, rep, nil
}
