package kba

import (
	"fmt"
	"sort"

	"sweepsched/internal/sched"
)

// AnglesetOrdering selects the order in which anglesets enter the KBA
// pipeline. Adams et al. ("Provably Optimal Parallel Transport Sweeps
// on Semi-Structured Grids") and chi-tech's angleset scheduler both
// treat this as a tunable: FIFO launches anglesets in index order,
// DepthOfGraph launches deepest-first so the longest critical path
// starts draining earliest and shorter anglesets fill its pipeline
// bubbles.
type AnglesetOrdering int

const (
	FIFO AnglesetOrdering = iota
	DepthOfGraph
)

func (o AnglesetOrdering) String() string {
	switch o {
	case FIFO:
		return "fifo"
	case DepthOfGraph:
		return "depth_of_graph"
	}
	return fmt.Sprintf("AnglesetOrdering(%d)", int(o))
}

// SchedulePipelined runs the KBA pipeline with angleset aggregation:
// each angleset's tasks carry its representative DAG's level priorities
// offset by the angleset's pipeline stage, so the list scheduler drains
// anglesets through the processor tiling in stage order while letting a
// later angleset's wavefront start as soon as the earlier one's tail
// frees its processors — the multi-angleset pipelining of the
// semi-structured sweep schedulers. The stage order is the given
// ordering over groups (DepthOfGraph: representative depth descending,
// ties by group index). The instance must be built on the matching
// regular hex mesh with the column assignment (ColumnAssignment).
func SchedulePipelined(inst *sched.Instance, assign sched.Assignment, groups [][]int32, ordering AnglesetOrdering) (*sched.Schedule, error) {
	if err := sched.ValidateAnglesets(groups, inst.K()); err != nil {
		return nil, err
	}
	A := len(groups)
	order := make([]int, A)
	for a := range order {
		order[a] = a
	}
	if ordering == DepthOfGraph {
		sort.SliceStable(order, func(x, y int) bool {
			dx := inst.DAGs[groups[order[x]][0]].NumLevels
			dy := inst.DAGs[groups[order[y]][0]].NumLevels
			return dx > dy
		})
	}
	stage := make([]int64, A)
	for s, a := range order {
		stage[a] = int64(s)
	}
	// A stride of max depth + 1 keeps stage bands disjoint: within a
	// band the wavefront order is the plain KBA level order.
	stride := int64(1)
	for _, g := range groups {
		if d := int64(inst.DAGs[g[0]].NumLevels); d >= stride {
			stride = d + 1
		}
	}
	n := int32(inst.N())
	aggPrio := make(sched.Priorities, int(n)*A)
	for a, g := range groups {
		d := inst.DAGs[g[0]]
		base := int32(a) * n
		off := stage[a] * stride
		for v := int32(0); v < n; v++ {
			aggPrio[base+v] = off + int64(d.Level[v])
		}
	}
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	dst := &sched.Schedule{}
	if err := sched.ListScheduleAnglesetInto(ws, dst, inst, assign, groups, aggPrio, nil); err != nil {
		return nil, err
	}
	return dst, nil
}
