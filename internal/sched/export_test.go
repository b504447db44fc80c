package sched

// Two rules under kernel-shaped names the package does not export: the
// recovery reschedule (a done set, internal/faults) and an angleset
// rule under a communication delay. The zero-allocation tables of
// TestScheduleIntoZeroAllocs and TestAnglesetZeroAllocs name their cases
// by these calls; everything else spells the Rule out.

func ListScheduleResidualInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, prio Priorities, done []bool) error {
	return ws.Schedule(dst, inst, assign, Rule{Prio: prio, Done: done})
}

func CommScheduleAnglesetInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, groups [][]int32, aggPrio Priorities, commDelay int) error {
	return ws.Schedule(dst, inst, assign, Rule{Prio: aggPrio, CommDelay: commDelay, Anglesets: groups})
}
