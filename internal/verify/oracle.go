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

// Differential runs rule through the step core ((*sched.Workspace).
// Schedule) and through the frozen reference its fields pick, and returns
// an error on any divergence: refimpl.ListScheduleResidual with a done
// set, refimpl.ListScheduleComm under a delay,
// refimpl.ListScheduleWithRelease otherwise. An angleset rule's priorities and floors are expanded per
// direction first (through the expansion the kernel itself runs, which
// TestExpandAnglesetByFormula holds to the contract); expansion errors
// must be mirrored by a kernel rejection of the same rule. Both kernels'
// errors must agree (both fail or both succeed). A rule no one reference
// covers — a done set with floors or a delay, floors with a delay — is
// refused.
func Differential(inst *sched.Instance, assign sched.Assignment, rule sched.Rule) error {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	got := &sched.Schedule{}
	err := ws.Schedule(got, inst, assign, rule)

	prio, rel := rule.Prio, rule.Release
	if rule.Anglesets != nil {
		var expErr error
		if prio, rel, expErr = expandAngleset(inst, rule.Anglesets, prio, rel); expErr != nil {
			if err == nil {
				return fmt.Errorf("verify: angleset kernel accepted inputs the expansion rejects: %v", expErr)
			}
			return nil
		}
	}
	var kind string
	var want *sched.Schedule
	var refErr error
	switch {
	case rule.Done != nil && rel == nil && rule.CommDelay == 0:
		kind = "residual"
		want, refErr = refimpl.ListScheduleResidual(inst, assign, prio, rule.Done)
	case rule.Done == nil && rule.CommDelay == 0:
		kind = "list"
		want, refErr = refimpl.ListScheduleWithRelease(inst, assign, prio, rel)
	case rule.Done == nil && rel == nil:
		kind = "comm"
		want, refErr = refimpl.ListScheduleComm(inst, assign, prio, rule.CommDelay)
	default:
		return fmt.Errorf("verify: no reference kernel runs a rule with floors %v, delay %d and a done set %v",
			rel != nil, rule.CommDelay, rule.Done != nil)
	}
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("verify: %s kernel error mismatch: kernel %v, reference %v", kind, err, refErr)
	}
	if err != nil {
		return nil // agreeing failures are a match
	}
	return diffStarts(kind, got, want)
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
