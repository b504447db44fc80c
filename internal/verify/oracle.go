package verify

import (
	"fmt"

	"sweepsched/internal/sched"
	"sweepsched/internal/sched/refimpl"
)

// Differential oracle: replay the same inputs through the optimized
// workspace kernels and the pre-optimization reference implementations
// (internal/sched/refimpl) and demand bitwise-identical output. The
// reference kernels predate the rankq/radix/calendar rewrite and share
// no code with the hot path, so agreement here is strong evidence the
// optimization preserved semantics exactly. These functions allocate
// freely (each runs both kernels); they are for tests and the CI verify
// pass, not hot loops.

// diffStarts compares two start-time vectors and makespans.
func diffStarts(kind string, got, want *sched.Schedule) error {
	if len(got.Start) != len(want.Start) {
		return fmt.Errorf("verify: %s kernel covers %d tasks, reference %d", kind, len(got.Start), len(want.Start))
	}
	for t := range want.Start {
		if got.Start[t] != want.Start[t] {
			return fmt.Errorf("verify: %s kernel diverges from reference at task %d: start %d vs %d",
				kind, t, got.Start[t], want.Start[t])
		}
	}
	if got.Makespan != want.Makespan {
		return fmt.Errorf("verify: %s kernel makespan %d, reference %d", kind, got.Makespan, want.Makespan)
	}
	return nil
}

// DifferentialList runs sched.ListScheduleInto and the reference list
// scheduler on the same inputs and returns an error on any divergence.
// Both kernels' errors must also agree (both fail or both succeed).
func DifferentialList(inst *sched.Instance, assign sched.Assignment, prio sched.Priorities, release []int32) error {
	want, refErr := refimpl.ListScheduleWithRelease(inst, assign, prio, release)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	got := &sched.Schedule{}
	err := sched.ListScheduleInto(ws, got, inst, assign, prio, release)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("verify: list kernel error mismatch: kernel %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil // agreeing failures are a match
	}
	return diffStarts("list", got, want)
}

// DifferentialComm is DifferentialList for the communication-delay
// kernel.
func DifferentialComm(inst *sched.Instance, assign sched.Assignment, prio sched.Priorities, commDelay int) error {
	want, refErr := refimpl.ListScheduleComm(inst, assign, prio, commDelay)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	got := &sched.Schedule{}
	err := sched.CommScheduleInto(ws, got, inst, assign, prio, commDelay)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("verify: comm kernel error mismatch: kernel %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	return diffStarts("comm", got, want)
}

// DifferentialAngleset checks the angleset-aggregated list kernel
// against the per-direction reference: the aggregate priority/release
// vectors are expanded to their per-direction form (through the
// expansion the kernel itself runs, which TestExpandAnglesetByFormula
// holds to the contract) and replayed through the frozen reference
// scheduler. Expansion errors must be mirrored by a kernel rejection of
// the same inputs.
func DifferentialAngleset(inst *sched.Instance, assign sched.Assignment, groups [][]int32, aggPrio sched.Priorities, aggRel []int32) error {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	got := &sched.Schedule{}
	err := sched.ListScheduleAnglesetInto(ws, got, inst, assign, groups, aggPrio, aggRel)

	prio, rel, expErr := expandAngleset(inst, groups, aggPrio, aggRel)
	if expErr != nil {
		if err == nil {
			return fmt.Errorf("verify: angleset kernel accepted inputs the expansion rejects: %v", expErr)
		}
		return nil
	}
	want, refErr := refimpl.ListScheduleWithRelease(inst, assign, prio, rel)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("verify: angleset kernel error mismatch: kernel %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	return diffStarts("angleset", got, want)
}

// DifferentialAnglesetComm is DifferentialAngleset for the aggregated
// communication-delay kernel.
func DifferentialAnglesetComm(inst *sched.Instance, assign sched.Assignment, groups [][]int32, aggPrio sched.Priorities, commDelay int) error {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	got := &sched.Schedule{}
	err := sched.CommScheduleAnglesetInto(ws, got, inst, assign, groups, aggPrio, commDelay)

	prio, _, expErr := expandAngleset(inst, groups, aggPrio, nil)
	if expErr != nil {
		if err == nil {
			return fmt.Errorf("verify: angleset comm kernel accepted inputs the expansion rejects: %v", expErr)
		}
		return nil
	}
	want, refErr := refimpl.ListScheduleComm(inst, assign, prio, commDelay)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("verify: angleset comm kernel error mismatch: kernel %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	return diffStarts("angleset comm", got, want)
}

// expandAngleset materializes the per-direction priority and release
// vectors an aggregated input pair denotes. A nil aggPrio expands to
// all-zero priorities (the kernels' convention); a nil aggRel stays
// nil.
func expandAngleset(inst *sched.Instance, groups [][]int32, aggPrio sched.Priorities, aggRel []int32) (sched.Priorities, []int32, error) {
	n := inst.N()
	if err := sched.ValidateAnglesets(groups, inst.K()); err != nil {
		return nil, nil, err
	}
	if aggPrio == nil {
		aggPrio = make(sched.Priorities, n*len(groups))
	}
	prio := make(sched.Priorities, inst.NTasks())
	if err := sched.ExpandAnglesetPrio(prio, aggPrio, groups, n); err != nil {
		return nil, nil, err
	}
	var rel []int32
	if aggRel != nil {
		rel = make([]int32, inst.NTasks())
		if err := sched.ExpandAnglesetRelease(rel, aggRel, groups, n); err != nil {
			return nil, nil, err
		}
	}
	return prio, rel, nil
}

// DifferentialGreedy compares sched.GreedyScheduleInto against the
// reference Graham scheduler on levels and makespan.
func DifferentialGreedy(inst *sched.Instance, prio sched.Priorities) error {
	wantLevel, wantMk, refErr := refimpl.GreedySchedule(inst, prio)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	level := make([]int32, inst.NTasks())
	mk, err := sched.GreedyScheduleInto(ws, level, inst, prio)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("verify: greedy kernel error mismatch: kernel %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	if mk != wantMk {
		return fmt.Errorf("verify: greedy kernel makespan %d, reference %d", mk, wantMk)
	}
	for t := range wantLevel {
		if level[t] != wantLevel[t] {
			return fmt.Errorf("verify: greedy kernel diverges at task %d: level %d vs %d", t, level[t], wantLevel[t])
		}
	}
	return nil
}

// DifferentialResidual compares sched.ListScheduleResidualInto against
// the reference residual scheduler for the given done set.
func DifferentialResidual(inst *sched.Instance, assign sched.Assignment, prio sched.Priorities, done []bool) error {
	want, refErr := refimpl.ListScheduleResidual(inst, assign, prio, done)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	got := &sched.Schedule{}
	err := sched.ListScheduleResidualInto(ws, got, inst, assign, prio, done)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("verify: residual kernel error mismatch: kernel %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil
	}
	return diffStarts("residual", got, want)
}
