// Package opt computes exact optimal sweep schedules for tiny instances by
// exhaustive search: all cell-to-processor assignments (up to processor
// symmetry) × a completed-task-set dynamic program for the pinned
// scheduling subproblem. The paper never knows OPT ("note that we do not
// know the value of the optimal solution"); on instances small enough for
// this package, tests can measure true approximation ratios instead of
// ratios to the nk/m bound.
package opt

import (
	"fmt"

	"sweepsched/internal/sched"
)

// MaxTasks bounds the instances Exact accepts: the DP state is a bitmask
// over tasks.
const MaxTasks = 20

// Exact returns the optimal makespan over all assignments and schedules.
// It errors if the instance exceeds MaxTasks tasks.
func Exact(inst *sched.Instance) (int, error) {
	nt := inst.NTasks()
	if nt > MaxTasks {
		return 0, fmt.Errorf("opt: %d tasks exceeds the exact-search limit %d", nt, MaxTasks)
	}
	n := inst.N()
	m := inst.M
	if m > n {
		m = n // extra processors can never help beyond one per cell
	}
	assign := make(sched.Assignment, n)
	best := nt + 1 // any schedule fits in nt steps

	// Enumerate assignments with symmetry breaking: cell v may only use a
	// processor index at most 1 + max(assign[0..v-1]).
	var rec func(v int, maxUsed int32)
	rec = func(v int, maxUsed int32) {
		if v == n {
			if ms := exactGivenAssignment(inst, assign); ms < best {
				best = ms
			}
			return
		}
		limit := maxUsed + 1
		if limit >= int32(m) {
			limit = int32(m) - 1
		}
		for p := int32(0); p <= limit; p++ {
			assign[v] = p
			nu := maxUsed
			if p > nu {
				nu = p
			}
			rec(v+1, nu)
		}
	}
	rec(0, -1)
	return best, nil
}

// exactGivenAssignment runs a BFS over completed-task bitmasks. For unit
// tasks with pinned processors, idling a processor that has ready work is
// never beneficial (a standard exchange argument), so each step every
// processor either runs one of its ready tasks or has none.
func exactGivenAssignment(inst *sched.Instance, assign sched.Assignment) int {
	nt := inst.NTasks()
	n := int32(inst.N())

	// Precompute per-task predecessor masks and per-task processor.
	predMask := make([]uint32, nt)
	proc := make([]int32, nt)
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			t := base + v
			proc[t] = assign[v]
			var mask uint32
			for _, u := range d.In(v) {
				mask |= 1 << uint(base+u)
			}
			predMask[t] = mask
		}
	}

	full := uint32(1)<<uint(nt) - 1
	frontier := map[uint32]bool{0: true}
	seen := map[uint32]bool{0: true}
	for step := 0; ; step++ {
		if frontier[full] {
			return step
		}
		next := map[uint32]bool{}
		for mask := range frontier {
			// Ready tasks grouped by processor.
			var perProc [][]int
			procIdx := map[int32]int{}
			for t := 0; t < nt; t++ {
				bit := uint32(1) << uint(t)
				if mask&bit != 0 || predMask[t]&^mask != 0 {
					continue
				}
				pi, ok := procIdx[proc[t]]
				if !ok {
					pi = len(perProc)
					procIdx[proc[t]] = pi
					perProc = append(perProc, nil)
				}
				perProc[pi] = append(perProc[pi], t)
			}
			if len(perProc) == 0 {
				continue // deadlocked mask (cannot happen on valid DAGs)
			}
			// Cartesian product of one choice per processor with ready work.
			var expand func(pi int, acc uint32)
			expand = func(pi int, acc uint32) {
				if pi == len(perProc) {
					nm := mask | acc
					if !seen[nm] {
						seen[nm] = true
						next[nm] = true
					}
					return
				}
				for _, t := range perProc[pi] {
					expand(pi+1, acc|uint32(1)<<uint(t))
				}
			}
			expand(0, 0)
		}
		if len(next) == 0 {
			// All states exhausted without completing: impossible for DAGs.
			return nt
		}
		frontier = next
	}
}
