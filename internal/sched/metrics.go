package sched

// This file implements the paper's objective functions (§5, "Objective
// functions"): the makespan is Schedule.Makespan; C1 is the static count of
// interprocessor DAG edges; C2 charges, after every computation step, the
// maximum number of off-processor messages any single processor must send
// (the "Max Off-Proc-Outdegree" series in the paper's Figure 2(b)).
//
// C1 decomposes into per-direction counts, which fan over a bounded worker
// pool (internal/par) and are summed in direction order, so the total is
// identical for every worker count.

import (
	"slices"

	"sweepsched/internal/par"
)

// C1 counts the edges ((u,i),(v,i)) over all direction DAGs whose endpoint
// cells are assigned to different processors. It depends only on the
// assignment, not on task start times. Directions are counted on up to
// workers goroutines (<= 0 selects GOMAXPROCS), each into its own slot,
// and the per-direction partials are summed in direction order.
func C1(inst *Instance, assign Assignment, workers int) int64 {
	partial := make([]int64, len(inst.DAGs))
	_ = par.ForEach(len(inst.DAGs), workers, func(i int) error {
		d := inst.DAGs[i]
		var cut int64
		for u := int32(0); u < int32(d.N); u++ {
			pu := assign[u]
			for _, w := range d.Out(u) {
				if assign[w] != pu {
					cut++
				}
			}
		}
		partial[i] = cut
		return nil
	})
	var cut int64
	for _, c := range partial {
		cut += c
	}
	return cut
}

// C2 returns the total communication delay under the synchronous-rounds
// model: after each timestep t, communication takes max over processors of
// the number of edges from tasks finishing at t to tasks on other
// processors. The sum over steps is the schedule's total communication
// time. Every task must be scheduled (Start >= 0); the steps are read
// from Start alone, so a stale Makespan changes nothing. The kernels
// count it on their own walks (Workspace.Metrics); this is the recount
// from the finished schedule, one serial walk in start order.
func C2(s *Schedule) int64 {
	inst := s.Inst
	nt := len(s.Start)
	if nt == 0 {
		return 0
	}
	sc := keyOrderPool.Get().(*keyOrder)
	defer keyOrderPool.Put(sc)
	ids, keys := sc.take(nt)
	for t, st := range s.Start {
		ids[t], keys[t] = int32(t), uint64(st)
	}
	tasks, _ := sc.sortByKey(ids, keys, uint64(max(slices.Max(s.Start), 0)))
	// perStep[p] counts messages processor p sends after the current step.
	perStep := make([]int32, inst.M)
	var total int64
	var touched []int32
	for len(tasks) > 0 {
		st := s.Start[tasks[0]]
		maxMsgs := int32(0)
		for len(tasks) > 0 && s.Start[tasks[0]] == st {
			v, i := inst.Split(TaskID(tasks[0]))
			tasks = tasks[1:]
			p := s.Assign[v]
			d := inst.DAGs[i]
			for _, w := range d.Out(v) {
				if s.Assign[w] != p {
					if perStep[p] == 0 {
						touched = append(touched, p)
					}
					perStep[p]++
					if perStep[p] > maxMsgs {
						maxMsgs = perStep[p]
					}
				}
			}
		}
		total += int64(maxMsgs)
		for _, p := range touched {
			perStep[p] = 0
		}
		touched = touched[:0]
	}
	return total
}

// Metrics bundles the quantities every experiment reports.
type Metrics struct {
	Makespan int
	C1       int64
	C2       int64
}

// Measure computes all metrics of a schedule, C1 on up to workers
// goroutines (<= 0 selects GOMAXPROCS). The result is identical for every
// worker count.
func Measure(s *Schedule, workers int) Metrics {
	return Metrics{
		Makespan: s.Makespan,
		C1:       C1(s.Inst, s.Assign, workers),
		C2:       C2(s),
	}
}
