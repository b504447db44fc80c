// Angleset-aggregated forms of the §5.2 priority schedulers: priorities
// are computed once per angleset on its representative DAG (the first
// member direction's) instead of once per direction — the one stage
// where aggregation saves work — and a sched.Rule with Anglesets (what
// Rule returns given a partition) expands them to per-direction inputs
// for the per-direction step rule. With octant anglesets on a mesh whose
// octant groups are orientation-consistent the representative DAG *is*
// every member's DAG, so the aggregated priorities are exact; on
// unstructured meshes they are the representative's hints applied to
// near-identical sibling DAGs — feasibility is never at stake because
// the kernel enforces precedence with every direction's true DAG, only
// the tie-breaking hints are shared.
package heuristics

import "sweepsched/internal/sched"

// DescendantAnglesetPrioritiesInto fills aggregate descendant
// priorities: angleset a's segment holds the (negated) descendant
// counts of its representative DAG.
func DescendantAnglesetPrioritiesInto(prio sched.Priorities, inst *sched.Instance, groups [][]int32, workers int) {
	fillSegments(prio, inst, nil, groups, workers, descendantFill)
}
