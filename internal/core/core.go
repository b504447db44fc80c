// Package core holds what the paper's provable algorithms (§4) need
// beyond the scheduler table in internal/heuristics:
//
//   - Delays, the per-direction random delays X_i every algorithm draws;
//   - DelayPrioritiesInto and GreedyLevelPrioritiesInto, which turn levels,
//     or Algorithm 3's Graham preprocessing levels L', into delayed
//     priorities;
//   - Rho and Log2Sq, the approximation factors of Corollary 1 and
//     Theorem 1, which the "guarantee" experiment prints.
//
// Algorithm 2, "Random Delays with Priorities" (Γ(v,i) = level_i(v) + X_i,
// list-scheduled with no idling, Theorem 2), and the priority form of
// Algorithm 3 are list schedules: heuristics.Run runs them as
// random_delays_priority and improved_delays, and Algorithm 1, "Random
// Delay" (O(OPT·log²n) whp, Theorem 1), as random_delays: Algorithm 2's
// rule run layer by layer. Every entry point takes a cell-to-processor
// assignment; the paper's uniformly random one is sched.RandomAssignment,
// drawn from the same stream before the delays.
package core

import (
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// Delays draws the per-direction random delays X_i uniform on {0..k-1}
// (step 1 of every algorithm). Each X_i is drawn from direction i's
// splitmix-derived substream of r rather than sequentially from r itself,
// so X_i is a pure function of (r's position, i): the draws are identical
// whether the directions are processed serially or fanned over a worker
// pool, and future parallelization of any per-direction loop cannot change
// them. The parent advances by one draw so successive calls differ.
func Delays(k int, r *rng.Source) []int32 {
	x := make([]int32, k)
	for i := range x {
		x[i] = int32(r.Substream(uint64(i)).Intn(k))
	}
	r.Uint64()
	return x
}

// DelayPrioritiesInto folds per-segment delays into priorities laid out
// in n-entry segments (one per direction, or per angleset): prio[s·n+v]
// += X_s — the step that turns levels into Algorithm 2's Γ(v,i) =
// level_i(v) + X_i.
func DelayPrioritiesInto(prio sched.Priorities, n int, delays []int32) {
	for s, x := range delays {
		seg := prio[s*n : (s+1)*n]
		for v := range seg {
			seg[v] += int64(x)
		}
	}
}

// GreedyLevelPrioritiesInto fills prio (len = NTasks) with Algorithm 3's
// preprocessing levels L': every task's completion step in a Graham
// list schedule of the union DAG H on m machines, which bounds every
// layer's width by m. The levels are the instance's, built by its first
// Algorithm 3 plan on ws (sched.Instance.GreedyLevels).
func GreedyLevelPrioritiesInto(ws *sched.Workspace, prio sched.Priorities, inst *sched.Instance) error {
	level, err := inst.GreedyLevels(ws)
	if err != nil {
		return err
	}
	for t, l := range level {
		prio[t] = int64(l)
	}
	return nil
}
