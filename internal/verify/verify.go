// Package verify is the runtime schedule auditor: an independent
// implementation of every feasibility constraint and objective function
// the scheduling pipeline claims to satisfy, used to cross-check
// production schedules at runtime (ScheduleOptions.Verify, the
// SWEEPSCHED_VERIFY environment variable) and, through the differential
// oracle in oracle.go, to pin the optimized kernels bitwise to the
// pre-optimization reference implementations in internal/sched/refimpl.
//
// The auditor deliberately shares no code with internal/sched: no queue,
// sort, calendar, grouping or counting helper of the hot path is called
// here, and every check is written out in direct serial form over slices
// local to this package, so a bug in the optimized kernels or in the
// production validators cannot hide in a shared helper. Verification is
// O(tasks + edges) in time and O(tasks + m) in memory per schedule,
// whatever the start values are: the tasks are put in step order once
// (stepOrder), and processor exclusivity and the C2 recomputation walk
// that one order together, C2 from per-task send counts the precedence
// walk leaves behind.
package verify

import (
	"fmt"
	"math/bits"
	"os"
	"sync"

	dagrefimpl "sweepsched/internal/dag/refimpl"
	"sweepsched/internal/sched"
)

// ForcedByEnv reports whether the SWEEPSCHED_VERIFY environment variable
// (any non-empty value) forces schedule auditing on everywhere — the
// hook the CI verify pass uses to run the tier-1 suite under the
// auditor. Read once; changing the variable mid-process has no effect.
var ForcedByEnv = sync.OnceValue(func() bool {
	return os.Getenv("SWEEPSCHED_VERIFY") != ""
})

// Opts selects the optional checks of Schedule and Tasks beyond the
// structural invariants (which always run).
type Opts struct {
	// Release, when non-nil, asserts every task starts no earlier than
	// its floor (the §5.2 random-delay release model): one per task, or
	// with Anglesets one per angleset, as in a sched.Rule.
	Release []int32
	// CommDelay > 0 asserts the uniform communication-delay model: a
	// successor on a different processor starts at least 1+CommDelay
	// steps after its predecessor.
	CommDelay int
	// Metrics, when non-nil, is cross-checked against an independent
	// recomputation: Makespan against max start + 1, C1 against C1Ref,
	// C2 against C2Ref's count (recounted from the audit's own precedence
	// walk, c2Steps).
	Metrics *sched.Metrics
	// Anglesets, when non-nil, asserts the schedule was produced by
	// angleset aggregation over this direction partition: the partition
	// itself is re-validated, and when the instance carries its mesh and
	// direction set, every member direction's precedence is additionally
	// checked against an independently rebuilt DAG (the frozen
	// internal/dag/refimpl builder) — catching aggregation that shared a
	// representative DAG across directions it does not actually serve
	// (a wrong-octant placement survives the inst.DAGs precedence check,
	// because the corrupted family *is* inst.DAGs, but not this one).
	Anglesets [][]int32
	// Done, when non-nil, marks the tasks a residual run (a sched.Rule
	// with Done) finished before step 0: each must keep start -1 and
	// constrains nothing, every other task must be scheduled, and the
	// makespan counts the survivors' steps.
	Done []bool
}

// RuleOpts is the audit of a schedule the step core wrote under rule:
// its floors, delay, angleset partition and done set. A plan adds its
// Metrics.
func RuleOpts(rule sched.Rule) Opts {
	return Opts{Release: rule.Release, CommDelay: rule.CommDelay, Anglesets: rule.Anglesets, Done: rule.Done}
}

// Schedule audits a complete schedule — or, with opts.Done, a residual
// one — against the §3 feasibility constraints and, per opts, the
// release/comm-delay models and reported metrics. inst may be nil (s.Inst is used); when both are given they
// must be the same instance. A nil error means every audited invariant
// holds.
func Schedule(inst *sched.Instance, s *sched.Schedule, opts Opts) error {
	if s == nil {
		return fmt.Errorf("verify: nil schedule")
	}
	if inst == nil {
		inst = s.Inst
	} else if s.Inst != nil && s.Inst != inst {
		return fmt.Errorf("verify: schedule built for a different instance")
	}
	if inst == nil {
		return fmt.Errorf("verify: schedule has no instance")
	}
	if err := s.Assign.Validate(inst.N(), inst.M); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	nt, n := inst.NTasks(), inst.N()
	proc := make([]int32, nt)
	for base := 0; base < nt; base += n {
		copy(proc[base:], s.Assign)
	}
	var cross []int32
	if opts.Metrics != nil {
		cross = make([]int32, nt)
	}
	order := stepOrder(s.Start)
	c2, err := audit(inst, proc, s.Start, order, opts, cross)
	if err != nil {
		return err
	}
	// Makespan consistency: the schedule's claim against the start times.
	maxStart := int32(-1)
	if len(order) > 0 {
		maxStart = s.Start[order[len(order)-1]]
	}
	if s.Makespan != int(maxStart)+1 {
		return fmt.Errorf("verify: makespan %d inconsistent with max start %d", s.Makespan, maxStart)
	}
	if m := opts.Metrics; m != nil {
		if m.Makespan != s.Makespan {
			return fmt.Errorf("verify: reported makespan %d, schedule has %d", m.Makespan, s.Makespan)
		}
		if want := C1Ref(inst, s.Assign); m.C1 != want {
			return fmt.Errorf("verify: reported C1 %d, reference recomputation %d", m.C1, want)
		}
		if m.C2 != c2 {
			return fmt.Errorf("verify: reported C2 %d, reference recomputation %d", m.C2, c2)
		}
	}
	return nil
}

// Tasks audits a schedule given as parallel per-task processor and start
// slices. This lower-level form can express states a sched.Schedule
// structurally cannot — in particular copies of one cell split across
// processors — which is what lets the corruption tests prove the
// split-cell check fires. Checks: coverage (start >= 0, -1 for a done
// task), processor range, all k copies of a cell on one processor,
// release feasibility, per-direction DAG precedence with the comm-delay
// gap on cross-processor edges, and <= 1 task per processor per step.
func Tasks(inst *sched.Instance, proc []int32, start []int32, opts Opts) error {
	_, err := audit(inst, proc, start, stepOrder(start), opts, nil)
	return err
}

// audit is Tasks given the step order of start. When cross is non-nil
// (nt long) it also recounts C2 for Schedule, off its own walks: the
// precedence walk stores there each task's count of cross-processor
// out-edges, and the exclusivity walk sums them by step (doubleBooked).
func audit(inst *sched.Instance, proc, start, order []int32, opts Opts, cross []int32) (c2 int64, err error) {
	nt := inst.NTasks()
	n := int32(inst.N())
	if len(proc) != nt {
		return 0, fmt.Errorf("verify: processor slice covers %d of %d tasks", len(proc), nt)
	}
	if len(start) != nt {
		return 0, fmt.Errorf("verify: start slice covers %d of %d tasks", len(start), nt)
	}
	taskFloor := opts.Release
	if opts.Anglesets != nil {
		taskFloor = nil // one per angleset: anglesetAudit's
	}
	if taskFloor != nil && len(taskFloor) != nt {
		return 0, fmt.Errorf("verify: release slice covers %d of %d tasks", len(taskFloor), nt)
	}
	if opts.CommDelay < 0 {
		return 0, fmt.Errorf("verify: negative comm delay %d", opts.CommDelay)
	}
	done := opts.Done
	if done != nil && len(done) != nt {
		return 0, fmt.Errorf("verify: done set covers %d of %d tasks", len(done), nt)
	}
	for t := 0; t < nt; t++ {
		if isDone(done, int32(t)) {
			if start[t] != -1 {
				return 0, fmt.Errorf("verify: done task %d rescheduled at step %d", t, start[t])
			}
			continue
		}
		if start[t] < 0 {
			return 0, fmt.Errorf("verify: task %d unscheduled (start %d)", t, start[t])
		}
		if proc[t] < 0 || int(proc[t]) >= inst.M {
			return 0, fmt.Errorf("verify: task %d on processor %d (m=%d)", t, proc[t], inst.M)
		}
		if taskFloor != nil && start[t] < taskFloor[t] {
			return 0, fmt.Errorf("verify: task %d starts at %d before release %d", t, start[t], taskFloor[t])
		}
	}
	// All k copies of a cell on one processor (§3, constraint 3).
	for v := int32(0); v < n; v++ {
		p0 := proc[v]
		for i := int32(1); i < int32(inst.K()); i++ {
			if p := proc[i*n+v]; p != p0 {
				return 0, fmt.Errorf("verify: cell %d split across processors %d (dir 0) and %d (dir %d)", v, p0, p, i)
			}
		}
	}
	// Precedence within every direction DAG, with the comm-delay gap on
	// cross-processor edges; an edge with a done end constrains nothing.
	cd := int32(opts.CommDelay)
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			ut := base + u
			if isDone(done, ut) {
				continue
			}
			sends := int32(0)
			for _, w := range d.Out(u) {
				wt := base + w
				if isDone(done, wt) {
					continue
				}
				gap := int32(1)
				if proc[ut] != proc[wt] {
					sends++
					gap += cd
				}
				if start[wt] < start[ut]+gap {
					return 0, fmt.Errorf("verify: precedence violated in dir %d: cell %d@%d -> cell %d@%d needs gap %d",
						i, u, start[ut], w, start[wt], gap)
				}
			}
			if cross != nil {
				cross[ut] = sends
			}
		}
	}
	// Processor exclusivity: <= 1 task per processor per step.
	p, a, b, step, c2, found := doubleBooked(inst.M, proc, start, order, cross)
	if found {
		return 0, fmt.Errorf("verify: processor %d runs tasks %d and %d at step %d", p, a, b, step)
	}
	if opts.Anglesets != nil {
		if err := anglesetAudit(inst, proc, start, opts); err != nil {
			return 0, err
		}
	}
	return c2, nil
}

// isDone reports whether task t is in the done set (nil: none is).
func isDone(done []bool, t int32) bool { return done != nil && done[t] }

// stepOrder returns the tasks with a start >= 0 (a residual schedule's
// done tasks have none) in (start, task) order. It is a stable
// least-significant-digit radix sort on the start step, over as many
// equal digits of at most 16 bits as the largest start has bits: every
// practical schedule — up to 65,536 steps — is ordered by one counting
// pass, and one whose steps reach the top of the int32 range by two, with
// two task-long id arrays and a table of at most 65,536 counters however
// far apart the steps are.
func stepOrder(start []int32) []int32 {
	order := make([]int32, 0, len(start))
	var top int32
	for t, st := range start {
		if st >= 0 {
			order = append(order, int32(t))
			top = max(top, st)
		}
	}
	width := bits.Len32(uint32(top))
	if width == 0 {
		return order
	}
	passes := (width + 15) / 16
	digit := (width + passes - 1) / passes
	mask := int32(1)<<digit - 1
	count := make([]int32, 1<<digit)
	next := make([]int32, len(order))
	for shift := 0; shift < width; shift += digit {
		clear(count)
		for _, t := range order {
			count[start[t]>>shift&mask]++
		}
		at := int32(0)
		for d, c := range count {
			count[d], at = at, at+c
		}
		for _, t := range order {
			d := start[t] >> shift & mask
			next[count[d]] = t
			count[d]++
		}
		order, next = next, order
	}
	return order
}

// doubleBooked looks for a processor that runs two tasks in one step,
// walking the tasks in step order with, per processor, the last step it
// ran a task in and which task that was: a task whose processor is
// already stamped with its step is a conflict. When there are several
// conflicts the one reported is in the lowest doubly-used step — the
// first found in (step, task) order — with the two lowest-numbered tasks
// of that slot.
//
// When cross is non-nil (task t's count of cross-processor out-edges)
// the same walk recounts C2: with no processor double-booked, a
// processor's sends after a step are its one task's count, so each step
// is charged the largest count among its tasks — what c2Over counts,
// without walking the DAGs again. c2 means nothing when found is true.
func doubleBooked(m int, proc, start, order, cross []int32) (p, a, b int, step int32, c2 int64, found bool) {
	lastStep := make([]int32, m)
	lastTask := make([]int32, m)
	for q := range lastStep {
		lastStep[q] = -1
	}
	step, most := int32(-1), int32(0)
	for _, t := range order {
		q, st := proc[t], start[t]
		if lastStep[q] == st {
			return int(q), int(lastTask[q]), int(t), st, 0, true
		}
		lastStep[q], lastTask[q] = st, t
		if cross != nil {
			if st != step {
				c2, step, most = c2+int64(most), st, 0
			}
			most = max(most, cross[t])
		}
	}
	return 0, 0, 0, 0, c2 + int64(most), false
}

// anglesetAudit is the aggregated-schedule audit: an independent
// re-validation of the angleset partition, the per-angleset release
// floors expanded to member directions, and — when the instance is
// geometric — per-direction precedence against DAGs rebuilt from the
// mesh with the frozen reference builder. The last check is the one
// the in-family precedence audit cannot perform: if the schedule's own
// DAG family was built with an unsound representative (one octant's
// DAG standing in for a direction it does not serve), inst.DAGs agrees
// with the schedule by construction, and only an independent rebuild
// exposes the violated true dependence.
func anglesetAudit(inst *sched.Instance, proc, start []int32, opts Opts) error {
	groups := opts.Anglesets
	k := inst.K()
	n := int32(inst.N())
	dirGroup := make([]int32, k)
	for i := range dirGroup {
		dirGroup[i] = -1
	}
	for a, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("verify: angleset %d is empty", a)
		}
		prev := int32(-1)
		for _, i := range g {
			if i < 0 || int(i) >= k {
				return fmt.Errorf("verify: angleset %d contains direction %d (k=%d)", a, i, k)
			}
			if i <= prev {
				return fmt.Errorf("verify: angleset %d members not strictly ascending at direction %d", a, i)
			}
			if dirGroup[i] != -1 {
				return fmt.Errorf("verify: direction %d in more than one angleset", i)
			}
			dirGroup[i] = int32(a)
			prev = i
		}
	}
	for i, a := range dirGroup {
		if a == -1 {
			return fmt.Errorf("verify: direction %d not covered by any angleset", i)
		}
	}
	if opts.Release != nil {
		if len(opts.Release) != len(groups) {
			return fmt.Errorf("verify: %d angleset release delays for %d anglesets", len(opts.Release), len(groups))
		}
		for i := 0; i < k; i++ {
			rel := opts.Release[dirGroup[i]]
			base := int32(i) * n
			for v := int32(0); v < n; v++ {
				if !isDone(opts.Done, base+v) && start[base+v] < rel {
					return fmt.Errorf("verify: task %d (dir %d) starts at %d before its angleset's release %d",
						base+v, i, start[base+v], rel)
				}
			}
		}
	}
	if inst.Mesh == nil || len(inst.Dirs) != k {
		return nil // non-geometric instance: no independent DAGs to rebuild
	}
	cd := int32(opts.CommDelay)
	for i := 0; i < k; i++ {
		d := dagrefimpl.Build(inst.Mesh, inst.Dirs[i])
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			ut := base + u
			for _, w := range d.Out(u) {
				wt := base + w
				if isDone(opts.Done, ut) || isDone(opts.Done, wt) {
					continue
				}
				gap := int32(1)
				if cd > 0 && proc[ut] != proc[wt] {
					gap += cd
				}
				if start[wt] < start[ut]+gap {
					return fmt.Errorf("verify: aggregated schedule violates direction %d's true DAG: cell %d@%d -> cell %d@%d needs gap %d (representative DAG does not serve this direction?)",
						i, u, start[ut], w, start[wt], gap)
				}
			}
		}
	}
	return nil
}

// C1Ref recomputes C1 — the number of DAG edges whose endpoint cells
// live on different processors — in the most direct serial form,
// independent of the parallel production counter (sched.C1).
func C1Ref(inst *sched.Instance, assign sched.Assignment) int64 {
	var cut int64
	for _, d := range inst.DAGs {
		for u := int32(0); u < int32(d.N); u++ {
			for _, w := range d.Out(u) {
				if assign[u] != assign[w] {
					cut++
				}
			}
		}
	}
	return cut
}

// C2Ref recomputes C2 under the repository's edge-counting convention
// (documented in DESIGN.md §5 and matched by the rounds a
// transport.DependencyOnly run counts): after
// every step, each processor sends one message per cross-processor edge
// out of its tasks finishing that step, and the step is charged the
// maximum over processors. Steps at or beyond s.Makespan, and tasks with
// a negative start, are not charged. Written as a per-step scan of the
// tasks in step order with one counter per processor, sharing nothing
// with the sched package's recount (sched.C2).
func C2Ref(s *sched.Schedule) int64 {
	return c2Over(s, stepOrder(s.Start))
}

// c2Over is C2Ref over the schedule's tasks already in step order.
func c2Over(s *sched.Schedule, order []int32) int64 {
	inst := s.Inst
	sends := make([]int64, inst.M) // messages each processor sends after the current step
	var senders []int32            // the processors with sends[p] > 0, to reset them
	var total int64
	for lo := 0; lo < len(order); {
		step := s.Start[order[lo]]
		if int(step) >= s.Makespan {
			break
		}
		var max int64
		for ; lo < len(order) && s.Start[order[lo]] == step; lo++ {
			v, i := inst.Split(sched.TaskID(order[lo]))
			p := s.Assign[v]
			for _, w := range inst.DAGs[i].Out(v) {
				if s.Assign[w] == p {
					continue
				}
				if sends[p] == 0 {
					senders = append(senders, p)
				}
				sends[p]++
				if sends[p] > max {
					max = sends[p]
				}
			}
		}
		total += max
		for _, p := range senders {
			sends[p] = 0
		}
		senders = senders[:0]
	}
	return total
}
