package verify

import (
	"fmt"

	"sweepsched/internal/sched"
)

// Residual audits a recovery reschedule produced by
// sched.ListScheduleResidualInto: done tasks must keep Start = -1
// (they are never re-executed), every surviving task must be scheduled,
// precedence must hold over the residual sub-DAG (edges between two
// not-done tasks), processors must run at most one task per step, and
// Makespan must equal the number of residual steps. A nil done set
// means nothing is done — the residual schedule is then a complete
// schedule starting at step 0.
func Residual(inst *sched.Instance, s *sched.Schedule, done []bool) error {
	if s == nil {
		return fmt.Errorf("verify: nil residual schedule")
	}
	if inst == nil {
		inst = s.Inst
	}
	if inst == nil {
		return fmt.Errorf("verify: residual schedule has no instance")
	}
	nt := inst.NTasks()
	n := int32(inst.N())
	if done != nil && len(done) != nt {
		return fmt.Errorf("verify: done set covers %d of %d tasks", len(done), nt)
	}
	if len(s.Start) != nt {
		return fmt.Errorf("verify: residual schedule covers %d of %d tasks", len(s.Start), nt)
	}
	if err := s.Assign.Validate(inst.N(), inst.M); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	isDone := func(t int) bool { return done != nil && done[t] }

	maxStart := int32(-1)
	for t := 0; t < nt; t++ {
		st := s.Start[t]
		if isDone(t) {
			if st != -1 {
				return fmt.Errorf("verify: done task %d rescheduled at step %d", t, st)
			}
			continue
		}
		if st < 0 {
			return fmt.Errorf("verify: surviving task %d unscheduled (start %d)", t, st)
		}
		if st > maxStart {
			maxStart = st
		}
	}
	if s.Makespan != int(maxStart)+1 {
		return fmt.Errorf("verify: residual makespan %d inconsistent with max start %d", s.Makespan, maxStart)
	}
	// Precedence over the residual sub-DAG.
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			ut := int(base + u)
			if isDone(ut) {
				continue
			}
			for _, w := range d.Out(u) {
				wt := int(base + w)
				if isDone(wt) {
					continue
				}
				if s.Start[wt] <= s.Start[ut] {
					return fmt.Errorf("verify: residual precedence violated in dir %d: cell %d@%d !< cell %d@%d",
						i, u, s.Start[ut], w, s.Start[wt])
				}
			}
		}
	}
	// Processor exclusivity among surviving tasks (done tasks carry
	// start -1, which stepOrder leaves out).
	proc := make([]int32, nt)
	for t := range proc {
		proc[t] = s.Assign[int32(t)%n]
	}
	if p, a, b, step, found := doubleBooked(inst.M, proc, s.Start, stepOrder(s.Start)); found {
		return fmt.Errorf("verify: processor %d runs tasks %d and %d at residual step %d", p, a, b, step)
	}
	return nil
}

// RecoveryStats is the accounting a fault-tolerant run reports, flattened
// into plain counters so the auditor stays decoupled from the faults
// engine's report type (internal/faults mirrors its RecoveryReport into
// this struct).
type RecoveryStats struct {
	// Procs is the instance's processor count m.
	Procs int
	// Fault counts actually applied.
	Crashes, Drops, Delays, Duplicates int
	// Execution accounting.
	Epochs, Recoveries, TasksReplayed int
	StepsExecuted, StepsFaultFree     int
	MessagesSent, CommRounds          int64
	// DeadProcs lists the crashed processors (order irrelevant).
	DeadProcs []int32
}

// Recovery audits a completed fault-tolerant run's accounting for
// internal consistency: fault counts must match the dead-processor
// list, at least one processor must have survived, replay work can only
// exist if something crashed, and the step/message counters must be
// mutually consistent. It cannot re-derive the true counts (the faults
// are nondeterministic from the auditor's viewpoint) — it proves the
// report could describe a real run.
func Recovery(st RecoveryStats) error {
	if st.Procs <= 0 {
		return fmt.Errorf("verify: recovery report for %d processors", st.Procs)
	}
	for name, v := range map[string]int{
		"crashes": st.Crashes, "drops": st.Drops, "delays": st.Delays,
		"duplicates": st.Duplicates, "epochs": st.Epochs, "recoveries": st.Recoveries,
		"tasks replayed": st.TasksReplayed, "steps executed": st.StepsExecuted,
		"fault-free steps": st.StepsFaultFree,
	} {
		if v < 0 {
			return fmt.Errorf("verify: negative %s count %d", name, v)
		}
	}
	if st.MessagesSent < 0 || st.CommRounds < 0 {
		return fmt.Errorf("verify: negative message accounting (%d sent, %d rounds)", st.MessagesSent, st.CommRounds)
	}
	if len(st.DeadProcs) != st.Crashes {
		return fmt.Errorf("verify: %d crashes but %d dead processors listed", st.Crashes, len(st.DeadProcs))
	}
	if st.Crashes >= st.Procs {
		return fmt.Errorf("verify: %d crashes with only %d processors (no survivor)", st.Crashes, st.Procs)
	}
	seen := make(map[int32]bool, len(st.DeadProcs))
	for _, p := range st.DeadProcs {
		if p < 0 || int(p) >= st.Procs {
			return fmt.Errorf("verify: dead processor %d out of range (m=%d)", p, st.Procs)
		}
		if seen[p] {
			return fmt.Errorf("verify: processor %d crashed twice", p)
		}
		seen[p] = true
	}
	// Every recovery (crash or stall) is followed by at least one more
	// epoch that makes progress, and the final epoch always completes, so
	// a successful run has strictly more epochs than recoveries.
	if st.Epochs > 0 && st.Recoveries >= st.Epochs {
		return fmt.Errorf("verify: %d recoveries in %d epochs (the final epoch must complete)", st.Recoveries, st.Epochs)
	}
	if st.Crashes == 0 && st.TasksReplayed != 0 {
		return fmt.Errorf("verify: %d tasks replayed with no crashes", st.TasksReplayed)
	}
	totalFaults := st.Crashes + st.Drops + st.Delays + st.Duplicates
	if totalFaults == 0 {
		// A fault-free execution runs exactly the planned schedule: no
		// recoveries, and the barrier steps match the fault-free plan.
		if st.Recoveries != 0 {
			return fmt.Errorf("verify: %d recoveries with no applied faults", st.Recoveries)
		}
		if st.StepsExecuted != st.StepsFaultFree {
			return fmt.Errorf("verify: executed %d steps with no faults, fault-free plan is %d",
				st.StepsExecuted, st.StepsFaultFree)
		}
	}
	// CommRounds charges each step the maximum per-processor send count,
	// MessagesSent the sum — the max can never exceed the sum.
	if st.CommRounds > st.MessagesSent {
		return fmt.Errorf("verify: %d comm rounds exceed %d messages sent", st.CommRounds, st.MessagesSent)
	}
	return nil
}
