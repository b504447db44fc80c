package sched

import (
	"fmt"
	"math"
)

// The unit-step scheduling core. The §3 list scheduler, its §5.2
// random-delay releases, the uniform communication-delay model and the
// recovery reschedule are one loop:
// rank the tasks and file the sources (rankq.load, the prelude all the
// list engines share), pop one ready task per processor per step,
// release successors. What differs between them is when a
// task becomes available,
//
//	avail(t) = max(floor(t), max over predecessors u of
//	               finish(u) + (proc(u) != proc(t) ? commDelay : 0)),
//
// and which tasks exist at all. A Rule states exactly that as plain data;
// (*Workspace).Schedule expands an angleset rule per task (angleset.go)
// and hands the core a stepRule, the same rule per task.

// kernelSeries names the obs series one kernel reports under.
type kernelSeries struct{ kernel, time, runs, steps string }

func seriesFor(kernel string) *kernelSeries {
	return &kernelSeries{kernel, "sched." + kernel + ".time", "sched." + kernel + ".runs", "sched." + kernel + ".steps"}
}

var (
	listSeries     = seriesFor("list")
	commSeries     = seriesFor("comm")
	residualSeries = seriesFor("residual")
	anglistSeries  = seriesFor("anglist")
	angcommSeries  = seriesFor("angcomm")
)

// Rule is one run's availability rule as plain data: the §3 list
// scheduler's ranking, the §5.2 release floors, the uniform communication
// delay and a recovery's done set. Nil slices switch their clause off.
type Rule struct {
	// Prio ranks the ready tasks, smaller first, ties by TaskID; nil is
	// all equal. One per task, or with Anglesets one per (angleset, cell).
	Prio Priorities
	// Release holds the floors: a task starts no earlier than its own.
	// One per task, or with Anglesets one per angleset.
	Release []int32
	// CommDelay is added to a predecessor's finish on a cross-processor
	// edge. The schedule records it (Schedule.CommDelay).
	CommDelay int
	// Anglesets, when non-nil, is the angleset partition of the
	// directions (ValidateAnglesets) that Prio and Release are given
	// over; the run expands both per task first.
	Anglesets [][]int32
	// Done marks tasks finished before step 0: they are not scheduled
	// (Start stays -1) and their successors owe them no wait.
	Done []bool
	// Layered says Prio are layers that climb along every edge and
	// Release their floors (LayerFloorsInto), with no other field set: the
	// layered kernel writes the step core's schedule under such a rule.
	Layered bool
}

// series names the obs series a run under the rule reports to.
func (r *Rule) series() *kernelSeries {
	switch {
	case r.Done != nil:
		return residualSeries
	case r.Anglesets != nil && r.CommDelay > 0:
		return angcommSeries
	case r.Anglesets != nil:
		return anglistSeries
	case r.CommDelay > 0:
		return commSeries
	}
	return listSeries
}

// stepRule is a Rule as the core runs it, every slice per task.
type stepRule struct {
	series    *kernelSeries
	prio      Priorities
	taskFloor []int32
	commDelay int
	done      []bool
}

// Schedule runs the step core under rule, writing the schedule into dst
// (dst.Start's backing array is reused; dst must not alias a schedule
// still in use). Without a done set the output is bitwise the frozen
// reference's (refimpl.ListScheduleWithRelease, or ListScheduleComm
// under a delay), an angleset rule's the per-direction one's on the
// expanded inputs. With one, done tasks keep Start = -1 and Makespan
// covers only the residual steps: an execution plan, not a schedule
// Validate accepts. On a warm workspace and a recycled dst it performs
// zero heap allocations.
func (ws *Workspace) Schedule(dst *Schedule, inst *Instance, assign Assignment, rule Rule) error {
	if rule.Layered {
		return ws.scheduleLayered(dst, inst, assign, rule)
	}
	run := stepRule{series: rule.series(), prio: rule.Prio, taskFloor: rule.Release, commDelay: rule.CommDelay, done: rule.Done}
	if rule.Anglesets != nil {
		var err error
		if run.prio, run.taskFloor, err = ws.expandAngleset(inst, assign, rule.Anglesets, rule.Prio, rule.Release); err != nil {
			return err
		}
	}
	return ws.schedule(dst, inst, assign, run)
}

// popped is a task a step ran, as the release walk after the pops needs
// it: its processor and its successors' range in the task graph. The pop
// loop reads the range while it pops, so a step's node loads overlap one
// another instead of each waiting for the previous task's walk.
type popped struct{ proc, lo, hi int32 }

// StepRangeError reports a communication delay or release time whose
// worst-case makespan — nt·(commDelay+1) steps on top of the latest
// release — does not fit the int32 step counter of a Schedule.
type StepRangeError struct {
	NTasks     int
	CommDelay  int
	MaxRelease int32
}

func (e *StepRangeError) Error() string {
	return fmt.Sprintf("sched: %d tasks under communication delay %d and release times up to %d may need more than %d steps",
		e.NTasks, e.CommDelay, e.MaxRelease, math.MaxInt32)
}

// checkStepRange rejects delays that could wrap the step counter.
func checkStepRange(nt, commDelay int, maxRelease int32) error {
	if commDelay > math.MaxInt32 || int64(maxRelease)+int64(nt)*(int64(commDelay)+1) > math.MaxInt32 {
		return &StepRangeError{NTasks: nt, CommDelay: commDelay, MaxRelease: maxRelease}
	}
	return nil
}

// schedule is Schedule once the rule is per task.
func (ws *Workspace) schedule(dst *Schedule, inst *Instance, assign Assignment, rule stepRule) error {
	nt, m := inst.NTasks(), inst.M
	ws.hasMetrics = false
	if rule.commDelay < 0 {
		return fmt.Errorf("sched: negative communication delay %d", rule.commDelay)
	}
	if rule.taskFloor != nil && len(rule.taskFloor) != nt {
		return fmt.Errorf("sched: %d release times for %d tasks", len(rule.taskFloor), nt)
	}
	if rule.done != nil && len(rule.done) != nt {
		return fmt.Errorf("sched: done set covers %d of %d tasks", len(rule.done), nt)
	}
	prio, err := ws.checkListArgs(inst, assign, rule.prio)
	if err != nil {
		return err
	}
	var maxFloor int32
	for _, f := range rule.taskFloor {
		maxFloor = max(maxFloor, f)
	}
	if err := checkStepRange(nt, rule.commDelay, maxFloor); err != nil {
		return err
	}

	g, err := inst.taskGraph()
	if err != nil {
		return err
	}
	span := ws.col.Span(rule.series.time)
	// readyAt[s] is the earliest step slot s may start as far as is
	// known: its release floor, raised by every finished cross-processor
	// predecessor. nil means no task ever waits.
	cd := int32(rule.commDelay)
	var readyAt []int32
	if rule.taskFloor != nil {
		readyAt = ws.readyAt
		toSlots(g, readyAt, rule.taskFloor)
	} else if cd > 0 {
		readyAt = ws.readyAt
		clear(readyAt)
	}
	// A task released at a step waits at most until max(floor, step+1+cd).
	// Only a run that waits files tasks in the calendar.
	cal, waits := &ws.cal, 0
	if readyAt != nil {
		waits = nt
	}
	cal.prepare(max(maxFloor, cd+1), waits)

	rq := &ws.rq
	remaining := rq.load(prelude{prio: prio, nt: nt, m: m, n: int32(inst.N()), assign: assign, dags: inst.DAGs, g: g, done: rule.done, floor: readyAt, cal: cal})
	nodes, succ, procs := rq.node, g.succ, rq.procs

	start := ws.start
	if rule.done != nil {
		// A full run writes every start; a residual one leaves the done
		// tasks' at -1.
		for i := range start {
			start[i] = -1
		}
	}
	completed := ws.completed[:0]
	// c1 and c2 are the paper's communication metrics, read off the edge
	// walk below: a popped task's cross-processor out-edges are the
	// messages its processor sends after this step, a processor runs one
	// task per step, so their sum is C1 and the per-step maximum, summed
	// over the steps, is C2.
	var c1, c2 int64
	step := int32(0)
	for ; remaining > 0; step++ {
		if cal.pending > 0 {
			for _, s := range cal.drain(step) {
				rq.push(nodes[s].proc, nodes[s].rank)
			}
		}
		completed = completed[:0]
		for p := int32(0); p < int32(m); p++ {
			if procs[p].count == 0 {
				continue
			}
			s := rq.pop(p)
			start[s] = step
			remaining--
			completed = append(completed, popped{p, nodes[s].off, nodes[s+1].off})
		}
		if len(completed) == 0 {
			if cal.pending == 0 {
				ws.completed = completed
				return fmt.Errorf("sched: %s kernel deadlocked at step %d with %d tasks remaining", rule.series.kernel, step, remaining)
			}
			// No processor had a ready task, so nothing happens before the
			// calendar's next entry: a release of 2³⁰ is not 2³⁰ idle turns.
			step = cal.earliest() - 1
		}
		// Whether a successor's last predecessor just finished, and whether
		// it sits on another processor, are coin flips for the branch
		// predictor, so both are counted as 0/1 rather than branched on.
		// Only the calendar and delay clauses branch, and those first test
		// whether the run has floors or a delay at all; then whether the
		// successor must still wait, which past the early steps of a floor
		// run is almost never true, and only then whether it is ready.
		var stepMax int32
		for _, ran := range completed {
			p := ran.proc
			var cross int32
			for _, sw := range succ[ran.lo:ran.hi] {
				w := &nodes[sw]
				other := w.proc ^ p
				cross += 1 - zeroBit(other)
				if cd > 0 && other != 0 && step+1+cd > readyAt[sw] {
					readyAt[sw] = step + 1 + cd
				}
				// A done successor starts at indegree 0 and only goes negative.
				w.indeg--
				left := w.indeg
				if readyAt != nil && readyAt[sw] > step+1 {
					if left == 0 {
						cal.push(sw, readyAt[sw])
					}
					continue
				}
				rq.pushIf(w.proc, w.rank, zeroBit(left))
			}
			c1 += int64(cross)
			stepMax = max(stepMax, cross)
		}
		c2 += int64(stepMax)
	}
	ws.completed = completed[:0]
	fromSlots(g, ensureStart(dst, nt), start)
	dst.Inst, dst.Assign, dst.CommDelay = inst, assign, rule.commDelay
	dst.Makespan = int(step) // the last step always runs a task
	// A residual run walks only part of the graph: its counts are no metrics.
	ws.metrics, ws.hasMetrics = Metrics{Makespan: dst.Makespan, C1: c1, C2: c2}, rule.done == nil
	span.End()
	ws.col.Counter(rule.series.runs).Inc()
	ws.col.Counter(rule.series.steps).Add(int64(step))
	return nil
}

// ListScheduleInto is Schedule under Rule{Prio: prio, Release: release}:
// priority list scheduling (§3) with optional release floors (§5.2).
func ListScheduleInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, prio Priorities, release []int32) error {
	return ws.Schedule(dst, inst, assign, Rule{Prio: prio, Release: release})
}

// CommScheduleInto is Schedule under Rule{Prio: prio, CommDelay:
// commDelay}: list scheduling under the uniform communication delay (§3).
func CommScheduleInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, prio Priorities, commDelay int) error {
	return ws.Schedule(dst, inst, assign, Rule{Prio: prio, CommDelay: commDelay})
}
