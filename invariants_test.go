package sweepsched_test

// Property test: every scheduler over a grid of (family, scale, k, m, seed)
// configurations must produce schedules satisfying the three feasibility
// constraints of §3 — precedence within every direction DAG, one task per
// processor per step, every copy of a cell on one processor — and a
// makespan no smaller than each §4 lower bound.

import (
	"fmt"
	"testing"

	"sweepsched"
)

func TestScheduleInvariants(t *testing.T) {
	type config struct {
		family string
		scale  float64
		k, m   int
		seed   uint64
	}
	var grid []config
	for _, family := range []string{"tetonly", "long", "prismtet"} {
		for _, km := range [][2]int{{4, 4}, {8, 16}} {
			for _, seed := range []uint64{1, 2} {
				grid = append(grid, config{family, 0.008, km[0], km[1], seed})
			}
		}
	}
	for _, c := range grid {
		p, err := sweepsched.NewProblemFromFamily(c.family, c.scale, c.k, c.m, c.seed)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		bounds := p.Bounds()
		for _, alg := range sweepsched.Schedulers() {
			t.Run(fmt.Sprintf("%s/k=%d/m=%d/seed=%d/%s", c.family, c.k, c.m, c.seed, alg), func(t *testing.T) {
				res, err := p.Schedule(alg, sweepsched.ScheduleOptions{Seed: c.seed * 31, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				// Schedule() already validates precedence and
				// one-task-per-processor-per-step; re-run the validator
				// explicitly so this test stands alone if that ever changes.
				if err := res.Schedule.Validate(); err != nil {
					t.Fatalf("invariants violated: %v", err)
				}
				// Same-processor-per-cell is structural (assignments map
				// cells, not tasks); confirm that every cell has exactly
				// one in-range processor.
				for v := 0; v < p.N(); v++ {
					if pr := int(res.Schedule.Assign[v]); pr < 0 || pr >= p.M() {
						t.Fatalf("cell %d on processor %d (m=%d)", v, pr, p.M())
					}
				}
				// Makespan dominates every §4 lower bound.
				if float64(res.Metrics.Makespan) < bounds.Load {
					t.Fatalf("makespan %d below load bound %.2f", res.Metrics.Makespan, bounds.Load)
				}
				if res.Metrics.Makespan < bounds.PerCell {
					t.Fatalf("makespan %d below per-cell bound %d", res.Metrics.Makespan, bounds.PerCell)
				}
				if res.Metrics.Makespan < bounds.CriticalPath {
					t.Fatalf("makespan %d below critical-path bound %d", res.Metrics.Makespan, bounds.CriticalPath)
				}
				if res.Metrics.Makespan < bounds.Max() {
					t.Fatalf("makespan %d below combined bound %d", res.Metrics.Makespan, bounds.Max())
				}
			})
		}
	}
}
