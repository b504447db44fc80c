package sched

// This file implements the paper's uniform-communication-cost model (§3:
// "there exists a communication cost of uniform time c between
// processors"): when a task's predecessor ran on a different processor, the
// task becomes available only c steps after that predecessor completes.
// §5.1 sketches trading processing time against communication through block
// partitioning; a Rule's CommDelay, run by the shared step core
// (stepcore.go) and recorded on the schedule it writes, makes that
// trade-off measurable.

// ValidateComm checks a schedule's edges against a communication delay
// the caller names rather than the one the schedule records: every
// cross-processor edge leaves at least commDelay idle steps between
// predecessor completion and successor start (the other constraints are
// Validate's). A commDelay the kernels refuse (StepRangeError) is refused
// here too, so a delay truncated to int32 can never pass for the one asked
// for.
func ValidateComm(s *Schedule, commDelay int) error {
	if err := checkStepRange(s.Inst.NTasks(), commDelay, 0); err != nil {
		return err
	}
	for i := int32(0); i < int32(s.Inst.K()); i++ {
		if err := s.edgeError(i, int32(commDelay)); err != nil {
			return err
		}
	}
	return nil
}
