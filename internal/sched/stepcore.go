package sched

import (
	"fmt"
	"math"
)

// The unit-step scheduling core. The §3 list scheduler, its §5.2
// random-delay releases, the uniform communication-delay model, the
// angleset-aggregated forms and the recovery reschedule are one loop:
// rank the tasks, prime the calendar, pop one ready task per processor
// per step, release successors. What differs between them is when a
// task becomes available,
//
//	avail(t) = max(floor(t), max over predecessors u of
//	               finish(u) + (proc(u) != proc(t) ? commDelay : 0)),
//
// and which tasks exist at all. A stepRule states exactly that as plain
// data; the five exported kernels are wrappers that fill one in.

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

// stepRule is one run's release rule. Nil slices switch their clause off.
type stepRule struct {
	series *kernelSeries
	// prio holds one priority per task or, aggregated, one per (angleset,
	// cell) with groups partitioning the directions into anglesets.
	prio       Priorities
	aggregated bool
	groups     [][]int32
	// Release floors: per task, or per angleset when aggregated.
	taskFloor  []int32
	groupFloor []int32
	// commDelay is added to a predecessor's finish on cross-processor edges.
	commDelay int
	// done marks tasks finished before step 0: they are not scheduled
	// (Start stays -1) and their successors owe them no wait.
	done []bool
}

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

// schedule runs the step core under rule, writing the schedule into dst
// (dst.Start's backing array is reused). On a warm workspace and a
// recycled dst it performs zero heap allocations.
func (ws *Workspace) schedule(dst *Schedule, inst *Instance, assign Assignment, rule stepRule) error {
	nt, n, m := inst.NTasks(), int32(inst.N()), inst.M
	ws.hasMetrics = false
	if rule.commDelay < 0 {
		return fmt.Errorf("sched: negative communication delay %d", rule.commDelay)
	}
	if rule.taskFloor != nil && len(rule.taskFloor) != nt {
		return fmt.Errorf("sched: %d release times for %d tasks", len(rule.taskFloor), nt)
	}
	if rule.groupFloor != nil && len(rule.groupFloor) != len(rule.groups) {
		return fmt.Errorf("sched: %d release delays for %d anglesets", len(rule.groupFloor), len(rule.groups))
	}
	if rule.done != nil && len(rule.done) != nt {
		return fmt.Errorf("sched: done set covers %d of %d tasks", len(rule.done), nt)
	}
	var prio Priorities
	var err error
	if rule.aggregated {
		prio, err = ws.checkAnglesetArgs(inst, assign, rule.groups, rule.prio)
	} else {
		prio, err = ws.checkListArgs(inst, assign, rule.prio)
	}
	if err != nil {
		return err
	}
	var maxFloor int32
	for _, floors := range [2][]int32{rule.taskFloor, rule.groupFloor} {
		for _, f := range floors {
			maxFloor = max(maxFloor, f)
		}
	}
	if err := checkStepRange(nt, rule.commDelay, maxFloor); err != nil {
		return err
	}

	g, err := inst.taskGraph()
	if err != nil {
		return err
	}
	span := ws.col.Span(rule.series.time)
	rq := &ws.rq
	if rule.aggregated {
		rq.buildAngleset(prio, n, m, assign, rule.groups, ws.dirGroup)
	} else {
		rq.build(prio, nt, m, assign, n)
	}
	rq.reset()
	nodes, succ := rq.node, g.succ
	remaining := fillNodes(nodes, inst, g, assign, rule.done)

	// readyAt[t] is the earliest step t may start as far as is known:
	// its release floor, raised by every finished cross-processor
	// predecessor. With no communication delay nothing raises it, so the
	// caller's floors are read in place; nil means no task ever waits.
	cd := int32(rule.commDelay)
	readyAt := rule.taskFloor
	if cd > 0 || rule.groupFloor != nil {
		readyAt = ws.readyAt
		switch {
		case rule.groupFloor != nil:
			for i, a := range ws.dirGroup {
				seg := readyAt[int32(i)*n : int32(i+1)*n]
				for v := range seg {
					seg[v] = rule.groupFloor[a]
				}
			}
		case rule.taskFloor != nil:
			copy(readyAt, rule.taskFloor)
		default:
			clear(readyAt)
		}
	}
	// A task released at step s waits until at most max(floor, s+1+cd).
	cal := &ws.cal
	cal.prepare(max(maxFloor, cd+1), nt)

	for t := TaskID(0); t < TaskID(nt); t++ {
		if nodes[t].indeg != 0 || rule.done != nil && rule.done[t] {
			continue
		}
		if readyAt != nil && readyAt[t] > 0 {
			cal.push(t, readyAt[t])
		} else {
			rq.push(nodes[t].proc, t)
		}
	}

	start := ensureStart(dst, nt)
	for i := range start {
		start[i] = -1
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
			for _, t := range cal.drain(step) {
				rq.push(nodes[t].proc, t)
			}
		}
		completed = completed[:0]
		for p := int32(0); p < int32(m); p++ {
			if rq.count[p] == 0 {
				continue
			}
			t := rq.pop(p)
			start[t] = step
			remaining--
			completed = append(completed, t)
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
		var stepMax int32
		for _, t := range completed {
			p := nodes[t].proc
			var cross int32
			for _, wt := range succ[nodes[t].off:nodes[t+1].off] {
				w := &nodes[wt]
				if w.proc != p {
					cross++
					if cd > 0 && step+1+cd > readyAt[wt] {
						readyAt[wt] = step + 1 + cd
					}
				}
				// A done successor starts at indegree 0 and only goes negative.
				w.indeg--
				if w.indeg == 0 {
					if readyAt != nil && readyAt[wt] > step+1 {
						cal.push(wt, readyAt[wt])
					} else {
						rq.push(w.proc, wt)
					}
				}
			}
			c1 += int64(cross)
			stepMax = max(stepMax, cross)
		}
		c2 += int64(stepMax)
	}
	ws.completed = completed[:0]
	dst.Inst, dst.Assign = inst, assign
	dst.Makespan = int(step) // the last step always runs a task
	// A residual run walks only part of the graph: its counts are no metrics.
	ws.metrics, ws.hasMetrics = Metrics{Makespan: dst.Makespan, C1: c1, C2: c2}, rule.done == nil
	span.End()
	ws.col.Counter(rule.series.runs).Inc()
	ws.col.Counter(rule.series.steps).Add(int64(step))
	return nil
}

// fillNodes loads every task's indegree, successor offset and processor
// into its node (the ranks are the queue's) and returns the number of
// tasks to schedule. Under a done mask only edges between not-done tasks
// count, and done tasks are left at indegree 0.
func fillNodes(nodes []node, inst *Instance, g *taskGraph, assign Assignment, done []bool) (remaining int) {
	n := inst.N()
	for i, d := range inst.DAGs {
		seg, off := nodes[i*n:(i+1)*n], g.off[i*n:(i+1)*n]
		if done == nil {
			for v := range seg {
				nd := &seg[v]
				nd.indeg, nd.off, nd.proc = int32(d.InDegree(int32(v))), off[v], assign[v]
			}
			remaining += n
			continue
		}
		mask := done[i*n : (i+1)*n]
		for v := range seg {
			nd := &seg[v]
			nd.indeg, nd.off, nd.proc = 0, off[v], assign[v]
			if mask[v] {
				continue
			}
			remaining++
			for _, u := range d.In(int32(v)) {
				if !mask[u] {
					nd.indeg++
				}
			}
		}
	}
	nodes[len(nodes)-1].off = g.off[len(g.off)-1]
	return remaining
}

// ListScheduleInto is the allocation-free form of priority list
// scheduling with optional per-task release times (§3 "List Scheduling";
// release times implement the §5.2 random-delay combinations). It writes
// the schedule into dst and uses ws for every piece of transient state;
// output is bitwise-identical to ListScheduleWithRelease's.
//
// dst must not alias a schedule still in use: its contents are
// overwritten. A nil release means all zeros; a nil prio means all equal
// with TaskID tie-breaks.
func ListScheduleInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, prio Priorities, release []int32) error {
	return ws.schedule(dst, inst, assign, stepRule{series: listSeries, prio: prio, taskFloor: release})
}

// CommScheduleInto is the allocation-free form of list scheduling under
// the uniform communication-delay model (§3): a cross-processor edge
// delays its successor by commDelay extra steps. Output matches
// ListScheduleComm bit for bit.
func CommScheduleInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, prio Priorities, commDelay int) error {
	return ws.schedule(dst, inst, assign, stepRule{series: commSeries, prio: prio, commDelay: commDelay})
}

// ListScheduleResidualInto is the allocation-free form of recovery
// rescheduling (internal/faults): list scheduling restricted to the
// tasks with !done[t], done tasks treated as finished before step 0.
// Done tasks keep Start = -1 and Makespan covers only residual steps
// (the result is an execution plan, not a Validate-able full schedule).
func ListScheduleResidualInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, prio Priorities, done []bool) error {
	return ws.schedule(dst, inst, assign, stepRule{series: residualSeries, prio: prio, done: done})
}
