package sched

import (
	"fmt"
)

// This file implements the paper's uniform-communication-cost model (§3:
// "there exists a communication cost of uniform time c between
// processors"): when a task's predecessor ran on a different processor, the
// task becomes available only c steps after that predecessor completes.
// §5.1 sketches trading processing time against communication through block
// partitioning; ListScheduleComm makes that trade-off measurable.
//
// The stepping engine is the shared step core (stepcore.go) with the
// rule's commDelay set; CommScheduleInto is its allocation-free entry.

// ListScheduleComm runs priority list scheduling under the uniform
// communication-delay model: an edge ((u,i),(v,i)) whose endpoints are on
// different processors delays (v,i)'s availability by commDelay extra
// steps. commDelay = 0 reduces to ListSchedule.
//
// ListScheduleComm is a convenience wrapper over CommScheduleInto with a
// pooled workspace; trial loops that schedule the same instance shape
// repeatedly should hold a Workspace and call the Into form directly.
func ListScheduleComm(inst *Instance, assign Assignment, prio Priorities, commDelay int) (*Schedule, error) {
	ws := GetWorkspace(inst)
	defer ws.Release()
	dst := &Schedule{}
	if err := CommScheduleInto(ws, dst, inst, assign, prio, commDelay); err != nil {
		return nil, err
	}
	return dst, nil
}

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
