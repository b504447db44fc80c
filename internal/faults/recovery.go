package faults

import (
	"fmt"
	"sort"

	"sweepsched/internal/heuristics"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// Recovery is the engine's crash-recovery core: it tracks which processors
// are alive, owns the (mutating) cell assignment, and rebuilds feasible
// schedules over the outstanding tasks — the same decisions for a
// simulated crash and a kill -9'd worker process, since both are the
// engine's. Kill order, orphan reassignment (least loaded survivor, ties
// to smallest id) and the reschedules are pure functions of the inputs.
//
// A reschedule is a plan over the tasks not done: the level recipe
// (heuristics.Level) under the original schedule's delay
// (Schedule.CommDelay), so a schedule built for a delay recovers into the
// same machine model, without the plan's priorities and floors, which
// served its draw.
type Recovery struct {
	inst   *sched.Instance
	assign sched.Assignment
	live   []bool
	nLive  int
	dead   []int32

	// Built at the first fault (prepare): ws, reporting to col (Observe's),
	// the level rule — its CommDelay set from the start, its Done per
	// reschedule — and none, a full rebuild's empty done set. full backs
	// the cross-sweep schedule after a post-crash rebuild, resid is the
	// scratch for mid-sweep recoveries (transient: callers drop references
	// before the next recovery overwrites it).
	ws    *sched.Workspace
	rule  sched.Rule
	none  []bool
	col   *obs.Collector
	full  sched.Schedule
	resid sched.Schedule

	audit bool
}

// NewRecovery prepares a recovery core for the schedule's instance and
// assignment. It validates the assignment and copies it; the residual
// rule waits for the first reschedule.
func NewRecovery(s *sched.Schedule) (*Recovery, error) {
	inst := s.Inst
	if err := s.Assign.Validate(inst.N(), inst.M); err != nil {
		return nil, err
	}
	if len(s.Start) != inst.NTasks() {
		return nil, fmt.Errorf("faults: schedule covers %d of %d tasks", len(s.Start), inst.NTasks())
	}
	r := &Recovery{
		inst:   inst,
		assign: append(sched.Assignment(nil), s.Assign...),
		rule:   sched.Rule{CommDelay: s.CommDelay},
		live:   make([]bool, inst.M),
		nLive:  inst.M,
		audit:  verify.ForcedByEnv(),
	}
	for p := range r.live {
		r.live[p] = true
	}
	return r, nil
}

// prepare builds the workspace, the level rule and the empty done set,
// once: the levels do not change with the assignment.
func (r *Recovery) prepare() error {
	if r.ws != nil {
		return nil
	}
	ws := sched.NewWorkspace()
	ws.SetObserver(r.col)
	rule, err := heuristics.Rule(ws, heuristics.Level, r.inst, r.assign, nil, nil, 1)
	if err != nil {
		return err
	}
	rule.CommDelay = r.rule.CommDelay
	r.ws, r.rule, r.none = ws, rule, make([]bool, r.inst.NTasks())
	return nil
}

// Assign returns the live cell assignment. Callers must treat it as
// read-only; it changes across Kill calls.
func (r *Recovery) Assign() sched.Assignment { return r.assign }

// Live reports whether processor p is still alive.
func (r *Recovery) Live(p int32) bool { return r.live[p] }

// NLive returns the number of live processors.
func (r *Recovery) NLive() int { return r.nLive }

// Dead returns the dead processors sorted ascending (a copy).
func (r *Recovery) Dead() []int32 {
	d := append([]int32(nil), r.dead...)
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	return d
}

// Observe attaches a stats collector to the rescheduling workspace (the
// sched.* kernel series), now or once built. A nil collector detaches.
func (r *Recovery) Observe(col *obs.Collector) {
	r.col = col
	if r.ws != nil {
		r.ws.SetObserver(col)
	}
}

// SetVerify toggles auditing of every reschedule with verify.Schedule
// under the residual rule (a failed audit aborts with its diagnostic).
// Defaults to off unless SWEEPSCHED_VERIFY forces it.
func (r *Recovery) SetVerify(on bool) { r.audit = on }

// Kill marks the processors dead and moves every cell of a dead
// processor onto the least-loaded survivor (done marks tasks that no
// longer contribute load). Safe to call with processors already dead
// (no-op for those). Call after rolling back the victims' lost
// completions, so reassignment sees the true outstanding load.
func (r *Recovery) Kill(procs []int32, done []bool) {
	killed := false
	for _, p := range procs {
		if !r.live[p] {
			continue
		}
		r.live[p] = false
		r.nLive--
		r.dead = append(r.dead, p)
		killed = true
	}
	if killed && r.nLive > 0 {
		r.reassignOrphans(done)
	}
}

// RebuildFull list-schedules the whole instance over the current (post
// crash) assignment — the cross-sweep schedule after a recovery. The
// returned schedule is owned by the Recovery and overwritten by the next
// RebuildFull.
func (r *Recovery) RebuildFull() (*sched.Schedule, error) {
	if err := r.reschedule(&r.full, nil, "post-crash rebuild"); err != nil {
		return nil, err
	}
	return &r.full, nil
}

// Reschedule list-schedules the not-yet-done tasks over the current
// assignment — the mid-sweep residual schedule after a recovery. The
// returned schedule is owned by the Recovery and overwritten by the next
// Reschedule.
func (r *Recovery) Reschedule(done []bool) (*sched.Schedule, error) {
	if err := r.reschedule(&r.resid, done, "recovery reschedule"); err != nil {
		return nil, err
	}
	return &r.resid, nil
}

// reschedule runs the residual rule for done into dst and, when auditing,
// holds the result to verify.Schedule under that rule: done is exact at a
// barrier, so the residual schedule must cover precisely the survivors.
// done is nil for a full rebuild, which runs on the empty done set.
func (r *Recovery) reschedule(dst *sched.Schedule, done []bool, what string) error {
	if err := r.prepare(); err != nil {
		return err
	}
	r.rule.Done = done
	if done == nil {
		r.rule.Done = r.none
	}
	if err := r.ws.Schedule(dst, r.inst, r.assign, r.rule); err != nil {
		return err
	}
	if r.audit {
		if err := verify.Schedule(r.inst, dst, verify.RuleOpts(r.rule)); err != nil {
			return fmt.Errorf("faults: %s failed the audit: %w", what, err)
		}
	}
	return nil
}

// reassignOrphans moves every cell of a dead processor onto the live
// processor with the least remaining load (ties to the smallest id) — a
// deterministic greedy rebalance. Cells with no outstanding tasks move
// too: a later sweep of the same executor (transport source iteration)
// re-executes every cell, and a cell left on a dead processor would
// silently never run.
func (r *Recovery) reassignOrphans(done []bool) {
	inst := r.inst
	n := inst.N()
	k := inst.K()
	remainPerCell := make([]int, n)
	for i := 0; i < k; i++ {
		base := i * n
		for v := 0; v < n; v++ {
			if !done[base+v] {
				remainPerCell[v]++
			}
		}
	}
	load := make([]int, inst.M)
	for v := 0; v < n; v++ {
		if p := r.assign[v]; r.live[p] {
			load[p] += remainPerCell[v]
		}
	}
	for v := 0; v < n; v++ {
		if r.live[r.assign[v]] {
			continue
		}
		best := -1
		for q := 0; q < inst.M; q++ {
			if r.live[q] && (best < 0 || load[q] < load[best]) {
				best = q
			}
		}
		r.assign[v] = int32(best)
		load[best] += remainPerCell[v]
	}
}
