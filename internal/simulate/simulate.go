// Package simulate executes a sweep schedule on a simulated distributed
// machine: the schedule's m processors modelled on the shared step driver
// (sched.RunSteps, one barrier-synchronous step loop) and a per-message
// interconnect delivered at the barrier. It is the executable counterpart
// of the paper's simulation methodology — every precedence is enforced by
// an actual message arriving (or local completion), so a schedule that
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
	"fmt"

	"sweepsched/internal/faults"
	"sweepsched/internal/sched"
)

// Result summarizes an execution.
type Result struct {
	Steps         int   // barrier steps executed (== schedule makespan when fault-free)
	TotalMessages int64 // messages sent across processors (== C1)
	CommRounds    int64 // Σ_step max_p (messages sent by p at that step) == C2
}

// procReport is one modelled processor's account of the running step,
// written by the processor and folded by the barrier hook.
type procReport struct {
	sent int32 // cross-processor messages sent at this step
	err  error // infeasibility detected at this step, nil if ok
}

// Run executes the schedule. It returns an error if any task would run
// before one of its inputs is available — i.e., if the schedule is
// infeasible under message passing.
func Run(s *sched.Schedule) (*Result, error) {
	return RunCtx(context.Background(), s)
}

// RunCtx is Run with cooperative cancellation: it returns ctx.Err() within
// one barrier step of cancellation.
func RunCtx(ctx context.Context, s *sched.Schedule) (*Result, error) {
	m := s.Inst.M
	r := &run{
		ran:     make([]bool, s.Inst.NTasks()),
		reports: make([]procReport, m),
		res:     Result{Steps: s.Makespan},
	}
	if err := r.steps.Build(s, nil, nil); err != nil {
		return nil, err
	}
	r.recv.Build(s.Inst, s.Assign)
	if err := sched.RunSteps(ctx, sched.AllProcs(m), r.steps.Steps(), r); err != nil {
		return nil, err
	}
	return &r.res, nil
}

// run is one execution on the shared step driver (sched.RunSteps): the
// per-message interconnect, one delivery per message at the barrier
// closing the step it was sent in.
type run struct {
	steps   sched.StepTable
	recv    sched.RecvTable
	sent    []sched.Send // the running step's messages, delivered by CloseStep
	ran     []bool       // per task; written and read only by the task's processor
	reports []procReport
	res     Result
}

func (r *run) OpenStep(int32) error { return nil }

// RunProc is one simulated processor's step: it checks every input of
// every task scheduled now against what has completed locally or been
// delivered, "executes" the task, and sends its flux to downstream
// off-processor tasks. A detected infeasibility travels in the report.
func (r *run) RunProc(p, st int32) {
	rep := &r.reports[p]
	*rep = procReport{}
	for _, t := range r.steps.Tasks(p, st) {
		for _, x := range r.recv.In(t) {
			if x >= 0 { // a local producer's task id
				if !r.ran[x] {
					rep.err = fmt.Errorf("simulate: proc %d task %d at step %d: local input %d not done", p, t, st, x)
					return
				}
			} else if _, ok := r.recv.Load(^x); !ok {
				rep.err = fmt.Errorf("simulate: proc %d task %d at step %d: flux from task %d not received", p, t, st, r.recv.Producer(^x))
				return
			}
		}
		r.ran[t] = true
		out := r.recv.Out(t)
		for _, o := range out {
			r.sent = append(r.sent, sched.Send{Task: t, To: o.To, Slot: o.Slot})
		}
		rep.sent += int32(len(out))
	}
}

// CloseStep delivers the step's messages and folds the reports in
// processor order, so the reported error is deterministic (lowest
// processor id wins).
func (r *run) CloseStep(int32) error {
	for _, x := range r.sent {
		r.recv.Deliver(x.Slot, 0)
	}
	r.sent = r.sent[:0]
	var stepMax int32
	var stepErr error
	for p := range r.reports {
		rep := &r.reports[p]
		r.res.TotalMessages += int64(rep.sent)
		stepMax = max(stepMax, rep.sent)
		if rep.err != nil && stepErr == nil {
			stepErr = rep.err
		}
	}
	if stepErr != nil {
		return stepErr
	}
	r.res.CommRounds += int64(stepMax)
	return nil
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
	zero := func(sched.TaskID, float64) float64 { return 0 }
	if err := eng.Sweep(ctx, zero, psi); err != nil {
		return nil, eng.Report(), err
	}
	rep := eng.Report()
	return &Result{
		Steps:         rep.StepsExecuted,
		TotalMessages: rep.MessagesSent,
		CommRounds:    rep.CommRounds,
	}, rep, nil
}
