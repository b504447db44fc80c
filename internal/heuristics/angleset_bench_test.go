package heuristics

import (
	"testing"

	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// BenchmarkAnglesetPipeline is the headline comparison for angleset
// aggregation: the full warm schedule build (priority computation +
// list kernel) per direction versus per octant angleset, on the same
// workload shape as the sched kernel benchmarks (nx=8 Kuhn box, k=24,
// m=32). The aggregated path computes DescendantDelays priorities once
// per angleset (8 of them) instead of once per direction (24), then
// drives all 24 per-direction DAGs through the aggregated kernel.
func BenchmarkAnglesetPipeline(b *testing.B) {
	inst := testInstance(b, 8, 24, 32, 1)
	groups, err := quadrature.AnglesetsByOctant(inst.K())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	assigns := make([]sched.Assignment, 8)
	for i := range assigns {
		assigns[i] = sched.RandomAssignment(inst.N(), inst.M, r)
	}
	b.Run("perdir", func(b *testing.B) {
		ws := sched.NewWorkspace()
		dst := &sched.Schedule{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runInto(ws, dst, DescendantDelays, inst, assigns[i%len(assigns)], nil, rng.New(7), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("angleset", func(b *testing.B) {
		ws := sched.NewWorkspace()
		dst := &sched.Schedule{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runInto(ws, dst, DescendantDelays, inst, assigns[i%len(assigns)], groups, rng.New(7), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
