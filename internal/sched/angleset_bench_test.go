package sched_test

import (
	"testing"

	"sweepsched/internal/heuristics"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// anglesetBenchWorkload is kernelBenchWorkload's aggregated form: the
// same instance shape (nx=8 Kuhn box, k=24, m=32), octant anglesets,
// and level+delay priorities drawn once per angleset instead of once
// per direction.
func anglesetBenchWorkload(b *testing.B) (*sched.Instance, []sched.Assignment, [][]int32, sched.Priorities, []int32) {
	b.Helper()
	inst := meshInstance(b, 8, 24, 32, 1)
	groups, err := quadrature.AnglesetsByOctant(inst.K())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	n := int32(inst.N())
	aggPrio := make(sched.Priorities, inst.N()*len(groups))
	aggRel := make([]int32, len(groups))
	for a, g := range groups {
		d := inst.DAGs[g[0]]
		base := int32(a) * n
		delay := int32(r.Intn(len(groups)))
		for v := int32(0); v < n; v++ {
			aggPrio[base+v] = int64(d.Level[v] + delay)
		}
		aggRel[a] = delay
	}
	assigns := make([]sched.Assignment, 8)
	for i := range assigns {
		assigns[i] = sched.RandomAssignment(inst.N(), inst.M, r)
	}
	return inst, assigns, groups, aggPrio, aggRel
}

// BenchmarkAnglesetKernel compares the aggregated kernel on the compact
// per-angleset inputs ("angleset": expanding them, then the
// per-direction kernel) with the per-direction kernel on inputs expanded
// beforehand ("perdir"); the output is identical, so the difference is
// the expansion. The level+delay priorities take the counting pass; the
// "_radix" pair ranks descendant priorities, plan-ladder's angleset rung,
// whose spread rankPathFor sends to the radix sort of all n·k keys.
// Allocs/op must be 0 for all four on the warm workspace.
func BenchmarkAnglesetKernel(b *testing.B) {
	inst, assigns, groups, aggPrio, aggRel := anglesetBenchWorkload(b)
	wide := make(sched.Priorities, inst.N()*len(groups))
	heuristics.DescendantAnglesetPrioritiesInto(wide, inst, groups, 1)
	for _, c := range []struct {
		suffix  string
		aggPrio sched.Priorities
	}{{"", aggPrio}, {"_radix", wide}} {
		prio := make(sched.Priorities, inst.NTasks())
		if err := sched.ExpandAnglesetPrio(prio, c.aggPrio, groups, inst.N()); err != nil {
			b.Fatal(err)
		}
		rel := make([]int32, inst.NTasks())
		if err := sched.ExpandAnglesetRelease(rel, aggRel, groups, inst.N()); err != nil {
			b.Fatal(err)
		}
		b.Run("perdir"+c.suffix, func(b *testing.B) {
			benchKernel(b, assigns, func(ws *sched.Workspace, dst *sched.Schedule, assign sched.Assignment) error {
				return sched.ListScheduleInto(ws, dst, inst, assign, prio, rel)
			})
		})
		b.Run("angleset"+c.suffix, func(b *testing.B) {
			benchKernel(b, assigns, func(ws *sched.Workspace, dst *sched.Schedule, assign sched.Assignment) error {
				return sched.ListScheduleAnglesetInto(ws, dst, inst, assign, groups, c.aggPrio, aggRel)
			})
		})
	}
}

// benchKernel times run on a fresh workspace, cycling the assignments.
func benchKernel(b *testing.B, assigns []sched.Assignment, run func(*sched.Workspace, *sched.Schedule, sched.Assignment) error) {
	ws := sched.NewWorkspace()
	dst := &sched.Schedule{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(ws, dst, assigns[i%len(assigns)]); err != nil {
			b.Fatal(err)
		}
	}
}
