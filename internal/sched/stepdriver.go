package sched

import "context"

// Stepper is one barrier-step execution as the step driver sees it: the
// modelled processors' step bodies and the coordinator work on either
// side of them. The one implementation outside tests is the modelled
// machine (internal/machine) sweeping fault-free; the fault engine steps
// the same machine itself, because its processors may be other processes.
//
// RunProc(p, step) is modelled processor p's share of a step. A body
// writes its own tasks' state and what they hand over, and nothing it
// writes is visible to another body of the same step: a processor must
// not see what a lower-numbered one did earlier in the step, or the
// outcome would depend on processor numbering.
//
// OpenStep and CloseStep are the barrier hook: they run before the first
// and after the last body of the step — flushing due envelopes, folding
// the per-processor acks. Returning an error ends the run with that error.
type Stepper interface {
	OpenStep(step int32) error
	RunProc(p, step int32)
	CloseStep(step int32) error
}

// RunSteps executes steps 0..steps-1 of the modelled processors procs:
// per step it checks ctx, runs OpenStep, every processor's body in the
// order given (ascending) and CloseStep, all on the caller's goroutine.
// A modelled processor is a slice of this loop, not a goroutine: a step
// is around a microsecond of work for the whole machine, less than any
// hand-over between threads costs (DESIGN.md §7.1 has the measurements).
//
// RunSteps returns the first hook error, ctx.Err() before the step that
// follows a cancellation, or nil.
func RunSteps(ctx context.Context, procs []int32, steps int32, s Stepper) error {
	if len(procs) == 0 {
		return nil
	}
	for st := int32(0); st < steps; st++ {
		err := ctx.Err()
		if err == nil {
			err = s.OpenStep(st)
		}
		if err == nil {
			for _, p := range procs {
				s.RunProc(p, st)
			}
			err = s.CloseStep(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
