// Angleset-aggregated forms of the §5.2 priority schedulers: priorities
// are computed once per angleset on its representative DAG (the first
// member direction's) instead of once per direction — the one stage
// where aggregation saves work — and the aggregated kernels
// (sched.ListScheduleAnglesetInto) expand them to per-direction inputs
// for the per-direction kernel. With octant anglesets on a mesh whose
// octant groups are orientation-consistent the representative DAG *is*
// every member's DAG, so the aggregated priorities are exact; on
// unstructured meshes they are the representative's hints applied to
// near-identical sibling DAGs — feasibility is never at stake because
// the kernel enforces precedence with every direction's true DAG, only
// the tie-breaking hints are shared.
package heuristics

import (
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// DescendantAnglesetPrioritiesInto fills aggregate descendant
// priorities: angleset a's segment holds the (negated) descendant
// counts of its representative DAG.
func DescendantAnglesetPrioritiesInto(prio sched.Priorities, inst *sched.Instance, groups [][]int32, workers int) {
	fillSegments(prio, inst, nil, groups, workers, descendantFill)
}

// RunAnglesetInto is the angleset-aggregated counterpart of RunInto:
// the named scheduler's priorities are computed per angleset on
// representative DAGs and the schedule is built by the aggregated
// kernel. Delay variants draw one release delay per angleset (uniform
// in {0..len(groups)-1}, per-angleset substreams) instead of one per
// direction. RandomDelays and ImprovedDelays rank tasks across all k
// directions at once and cannot run aggregated; they return an error.
// It returns the per-angleset release delays the kernel ran with, nil
// for a scheduler without them (verify.Opts.AnglesetRelease).
func RunAnglesetInto(ws *sched.Workspace, dst *sched.Schedule, name Name, inst *sched.Instance, assign sched.Assignment, groups [][]int32, r *rng.Source, workers int) (release []int32, err error) {
	col := ws.Observer()
	defer col.Span("heuristics.runangleset.time").End()
	col.Counter("heuristics.angleset_runs").Inc()
	if err := sched.ValidateAnglesets(groups, inst.K()); err != nil {
		return nil, err
	}
	prio, release, err := Inputs(ws, name, inst, assign, groups, r, workers)
	if err != nil {
		return nil, err
	}
	return release, sched.ListScheduleAnglesetInto(ws, dst, inst, assign, groups, prio, release)
}
