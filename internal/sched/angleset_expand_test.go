package sched_test

import (
	"testing"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// TestExpandAnglesetByFormula holds the one expansion loop, which the
// aggregated kernels and the differential oracles share, to the
// emulation contract written out element by element:
//
//	prio[i·n+v] = aggPrio[group(i)·n+v],  rel[i·n+v] = aggRel[group(i)].
func TestExpandAnglesetByFormula(t *testing.T) {
	r := rng.New(0xE7)
	for trial := 0; trial < 50; trial++ {
		n, k := 1+r.Intn(9), 1+r.Intn(12)
		groups := randomAnglesets(k, 1+r.Intn(k), r)
		group := make([]int, k)
		for a, g := range groups {
			for _, i := range g {
				group[i] = a
			}
		}
		aggPrio := randomAggPrio(n, len(groups), 1000, r)
		aggRel := randomAggRel(len(groups), 9, r)
		prio := make(sched.Priorities, n*k)
		rel := make([]int32, n*k)
		if err := sched.ExpandAnglesetPrio(prio, aggPrio, groups, n); err != nil {
			t.Fatal(err)
		}
		if err := sched.ExpandAnglesetRelease(rel, aggRel, groups, n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			for v := 0; v < n; v++ {
				if got, want := prio[i*n+v], aggPrio[group[i]*n+v]; got != want {
					t.Fatalf("trial %d: prio[%d·%d+%d] = %d, want %d", trial, i, n, v, got, want)
				}
				if got, want := rel[i*n+v], aggRel[group[i]]; got != want {
					t.Fatalf("trial %d: rel[%d·%d+%d] = %d, want %d", trial, i, n, v, got, want)
				}
			}
		}
		if sched.ExpandAnglesetPrio(prio, aggPrio[1:], groups, n) == nil {
			t.Fatalf("trial %d: short aggregate priorities accepted", trial)
		}
		if sched.ExpandAnglesetRelease(rel[1:], aggRel, groups, n) == nil {
			t.Fatalf("trial %d: short destination accepted", trial)
		}
	}
}
