package sched

import (
	"fmt"
)

// This file implements the paper's uniform-communication-cost model (§3:
// "there exists a communication cost of uniform time c between
// processors"): when a task's predecessor ran on a different processor, the
// task becomes available only c steps after that predecessor completes.
// §5.1 sketches trading processing time against communication through block
// partitioning; CommScheduleInto, the shared step core (stepcore.go) with
// the rule's commDelay set, makes that trade-off measurable.

// ValidateComm checks the communication-delay feasibility of a schedule:
// every cross-processor edge leaves at least commDelay idle steps between
// predecessor completion and successor start (on top of the base
// constraints, which the caller checks with Validate). A commDelay the
// kernels refuse (StepRangeError) is refused here too, so a delay
// truncated to int32 can never pass for the one asked for.
func ValidateComm(s *Schedule, commDelay int) error {
	inst := s.Inst
	if err := checkStepRange(inst.NTasks(), commDelay, 0); err != nil {
		return err
	}
	for i := int32(0); i < int32(inst.K()); i++ {
		if u, w, gap, tight := s.tightEdge(i, int32(commDelay)); tight {
			return fmt.Errorf("sched: comm gap violated on edge (%d,%d)->(%d,%d): %d -> %d (need +%d)",
				u, i, w, i, s.Start[inst.Task(u, i)], s.Start[inst.Task(w, i)], gap)
		}
	}
	return nil
}
