// Package core implements the paper's randomized sweep-scheduling
// algorithms with provable guarantees:
//
//   - Algorithm 1, "Random Delay": combine the k direction DAGs with
//     uniformly random per-direction delays, assign each cell to a random
//     processor, and process the combined layers synchronously. Makespan is
//     O(OPT·log²n) with high probability (Theorem 1).
//   - Algorithm 2, "Random Delays with Priorities": the same random delays
//     folded into per-task priorities Γ(v,i) = level_i(v) + X_i, executed
//     with idle-free priority list scheduling. Same O(log²n) guarantee
//     (Theorem 2), much better in practice (§5.1).
//   - Algorithm 3, "Improved Random Delay": greedy (Graham) preprocessing
//     on the union DAG H bounds every layer width by m before the delays,
//     giving expected makespan O(OPT·log m·logloglog m) (Corollary 1).
//
// Every algorithm has a *WithAssignment variant taking an externally
// produced cell-to-processor assignment (e.g. the block assignment of §5.1)
// in place of step "choose a processor uniformly at random for each cell".
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
// layer's width by m. The levels pass through the workspace's int32
// scratch.
func GreedyLevelPrioritiesInto(ws *sched.Workspace, prio sched.Priorities, inst *sched.Instance) error {
	level := ws.Int32Buf(inst.NTasks())
	if _, err := sched.GreedyScheduleInto(ws, level, inst, nil); err != nil {
		return err
	}
	for t, l := range level {
		prio[t] = int64(l)
	}
	return nil
}

// combinedLayers returns the Algorithm 1 layer function on tasks:
// task (v,i) lies in layer level_i(v) + X_i (1-based). Edges of every DAG
// strictly increase the layer because levels do.
func combinedLayers(inst *sched.Instance, delays []int32) []int32 {
	n := int32(inst.N())
	layer := make([]int32, inst.NTasks())
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			layer[base+v] = d.Level[v] + delays[i]
		}
	}
	return layer
}

// RandomDelay runs Algorithm 1 with a uniformly random cell assignment.
func RandomDelay(inst *sched.Instance, r *rng.Source) (*sched.Schedule, error) {
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	return RandomDelayWithAssignment(inst, assign, r)
}

// RandomDelayWithAssignment runs Algorithm 1 with the given assignment:
// random delays, combined DAG, layer-synchronous execution.
func RandomDelayWithAssignment(inst *sched.Instance, assign sched.Assignment, r *rng.Source) (*sched.Schedule, error) {
	layer := combinedLayers(inst, Delays(inst.K(), r))
	return sched.LayeredSchedule(inst, assign, layer)
}

// RandomDelayPriorities runs Algorithm 2 with a uniformly random cell
// assignment.
func RandomDelayPriorities(inst *sched.Instance, r *rng.Source) (*sched.Schedule, error) {
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	return RandomDelayPrioritiesWithAssignment(inst, assign, r)
}

// RandomDelayPrioritiesWithAssignment runs Algorithm 2 with the given
// assignment: Γ(v,i) = level_i(v) + X_i, smallest-Γ-first list scheduling
// with no idling.
func RandomDelayPrioritiesWithAssignment(inst *sched.Instance, assign sched.Assignment, r *rng.Source) (*sched.Schedule, error) {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	dst := &sched.Schedule{}
	if err := RandomDelayPrioritiesInto(ws, dst, inst, assign, r); err != nil {
		return nil, err
	}
	return dst, nil
}

// RandomDelayPrioritiesInto is the trial-loop form of Algorithm 2: the
// priorities Γ(v,i) = level_i(v) + X_i are built in the workspace's
// priority scratch and the schedule lands in dst. On a warm workspace
// only the k delays are allocated.
func RandomDelayPrioritiesInto(ws *sched.Workspace, dst *sched.Schedule, inst *sched.Instance, assign sched.Assignment, r *rng.Source) error {
	n := inst.N()
	prio := ws.PrioBuf(inst.NTasks())
	for i, d := range inst.DAGs {
		for v, l := range d.Level {
			prio[i*n+v] = int64(l)
		}
	}
	DelayPrioritiesInto(prio, n, Delays(inst.K(), r))
	return sched.ListScheduleInto(ws, dst, inst, assign, prio, nil)
}

// ImprovedRandomDelay runs Algorithm 3 with a uniformly random cell
// assignment.
func ImprovedRandomDelay(inst *sched.Instance, r *rng.Source) (*sched.Schedule, error) {
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	return ImprovedRandomDelayWithAssignment(inst, assign, r)
}

// ImprovedRandomDelayWithAssignment runs Algorithm 3 with the given
// assignment. The preprocessing step runs Graham list scheduling on the
// union DAG H (all task copies distinct) on m machines; the completion step
// of each task defines the new levels L', which bound every layer's width
// by m. The random delays and layer-synchronous execution then proceed as
// in Algorithm 1.
func ImprovedRandomDelayWithAssignment(inst *sched.Instance, assign sched.Assignment, r *rng.Source) (*sched.Schedule, error) {
	level, _, err := sched.GreedySchedule(inst, nil)
	if err != nil {
		return nil, err
	}
	delays := Delays(inst.K(), r)
	n := int32(inst.N())
	layer := make([]int32, inst.NTasks())
	for i := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			layer[base+v] = level[base+v] + delays[i]
		}
	}
	return sched.LayeredSchedule(inst, assign, layer)
}

// ImprovedRandomDelayPriorities is the natural priority-compacted version
// of Algorithm 3 (the same idle-elimination that turns Algorithm 1 into
// Algorithm 2, applied to the preprocessed levels). It retains the
// theoretical guarantee — compaction never lengthens a layered schedule —
// and performs best of the provable family in practice.
func ImprovedRandomDelayPriorities(inst *sched.Instance, r *rng.Source) (*sched.Schedule, error) {
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	return ImprovedRandomDelayPrioritiesWithAssignment(inst, assign, r)
}

// ImprovedRandomDelayPrioritiesWithAssignment is the assignment-taking
// variant of ImprovedRandomDelayPriorities.
func ImprovedRandomDelayPrioritiesWithAssignment(inst *sched.Instance, assign sched.Assignment, r *rng.Source) (*sched.Schedule, error) {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	dst := &sched.Schedule{}
	if err := ImprovedRandomDelayPrioritiesInto(ws, dst, inst, assign, r); err != nil {
		return nil, err
	}
	return dst, nil
}

// ImprovedRandomDelayPrioritiesInto is the trial-loop form of the
// priority-compacted Algorithm 3: the Graham preprocessing levels and
// the delayed priorities are built in the workspace's scratch and the
// schedule lands in dst. On a warm workspace only the k delays are
// allocated.
func ImprovedRandomDelayPrioritiesInto(ws *sched.Workspace, dst *sched.Schedule, inst *sched.Instance, assign sched.Assignment, r *rng.Source) error {
	prio := ws.PrioBuf(inst.NTasks())
	if err := GreedyLevelPrioritiesInto(ws, prio, inst); err != nil {
		return err
	}
	DelayPrioritiesInto(prio, inst.N(), Delays(inst.K(), r))
	return sched.ListScheduleInto(ws, dst, inst, assign, prio, nil)
}
