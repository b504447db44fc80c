package faults

import (
	"fmt"
	"sort"

	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// Recovery is the engine's crash-recovery core: it tracks which processors
// are alive, owns the (mutating) cell assignment, and rebuilds feasible
// schedules over the outstanding tasks by residual list scheduling — the
// same decisions for a simulated crash and a kill -9'd worker process,
// since both are the engine's.
//
// Recovery is deterministic: Kill order, orphan reassignment (least
// loaded survivor, ties to smallest id) and list-scheduling priorities
// (per-direction DAG levels) are pure functions of the inputs.
//
// Every reschedule runs under the original schedule's communication delay
// (Schedule.CommDelay), so a schedule built for a delay recovers into the
// same machine model. It does not keep the plan's priorities or release
// floors: those served the plan's draw, and the residual ranks by level.
type Recovery struct {
	inst   *sched.Instance
	assign sched.Assignment
	// rule is the residual run's: level priorities and the original
	// delay; its Done is set per reschedule.
	rule  sched.Rule
	none  []bool // the empty done set of a full rebuild
	live  []bool
	nLive int
	dead  []int32

	// ws and the two destination schedules make repeated residual
	// rescheduling allocation-free: full backs the cross-sweep schedule
	// after a post-crash rebuild, resid is the scratch for mid-sweep
	// recoveries (transient: callers drop references before the next
	// recovery overwrites it).
	ws    *sched.Workspace
	full  sched.Schedule
	resid sched.Schedule

	audit bool
}

// NewRecovery prepares a recovery core for the schedule's instance and
// assignment. It validates the assignment and precomputes the residual
// list-scheduling priorities (per-direction DAG levels: cheap,
// deterministic, and a good order on sweep DAGs).
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
		none:   make([]bool, inst.NTasks()),
		live:   make([]bool, inst.M),
		nLive:  inst.M,
		ws:     sched.NewWorkspace(),
		audit:  verify.ForcedByEnv(),
	}
	for p := range r.live {
		r.live[p] = true
	}
	n := int32(inst.N())
	r.rule = sched.Rule{Prio: make(sched.Priorities, inst.NTasks()), CommDelay: s.CommDelay}
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			r.rule.Prio[base+v] = int64(d.Level[v])
		}
	}
	return r, nil
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
// sched.* kernel series). A nil collector detaches.
func (r *Recovery) Observe(col *obs.Collector) { r.ws.SetObserver(col) }

// SetVerify toggles auditing of every reschedule with verify.Residual (a
// failed audit aborts with its diagnostic). Defaults to off unless
// SWEEPSCHED_VERIFY forces it.
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
	if err := r.reschedule(&r.full, r.none, "post-crash rebuild"); err != nil {
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
// holds the result to verify.Residual: done is exact at a barrier, so the
// residual schedule must cover precisely the survivors.
func (r *Recovery) reschedule(dst *sched.Schedule, done []bool, what string) error {
	r.rule.Done = done
	if err := r.ws.Schedule(dst, r.inst, r.assign, r.rule); err != nil {
		return err
	}
	if r.audit {
		if err := verify.Residual(r.inst, dst, done); err != nil {
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
