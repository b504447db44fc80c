package sched_test

import (
	"math"
	"slices"
	"testing"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/sched/refimpl"
	"sweepsched/internal/verify"
)

// FuzzStepCoreEquivalence holds the unit-step core to the frozen
// container/heap kernels of internal/sched/refimpl on a small random DAG
// family: the list rule (with release floors), the comm rule and the
// residual rule (under a precedence-consistent done mask) must each write
// the reference's schedule bit for bit, and the metrics the core counts
// on its edge walk must be sched.Measure's. The residual rule under the
// drawn delay, recovery's, has no reference of its own: with nothing done
// it must be the comm schedule bit for bit, and at the cut
// verify.Schedule must accept it under the rule, verify.RuleOpts. The
// layered kernel, under Algorithm 1's Layered rule (levels plus delays,
// with the LayerFloorsInto floors), must write the reference's schedule
// too, as must the step core under the same layers and floors, and so
// must the layered kernel after another layer function's floors pass on
// the same workspace, whichever buffers each rule sits in. The fuzzer
// picks the family, m, the priorities' spread — narrow enough for the
// counting pass, widened into the radix sort, or at the extremes of int64
// for the comparison fallback — the floors, the delay and where the done
// mask cuts. One workspace serves every run, as in a recovering solve.
func FuzzStepCoreEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), uint8(4), uint8(5), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(2), uint8(70), uint8(4), uint8(6), uint8(70), uint8(6), uint8(2), uint8(9))
	f.Add(uint64(3), uint8(25), uint8(2), uint8(3), uint8(140), uint8(3), uint8(5), uint8(1))
	f.Add(uint64(4), uint8(60), uint8(5), uint8(8), uint8(200), uint8(9), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, mRaw, prioRaw, relRaw, cdRaw, cutRaw uint8) {
		n, k, m := int(nRaw%80)+1, int(kRaw%5)+1, int(mRaw%9)+1
		inst := syntheticInstance(t, n, k, m, seed)
		r := rng.New(seed ^ 0x5eed)
		nt := inst.NTasks()
		assign := sched.RandomAssignment(n, m, r)
		prio := fuzzPriorities(nt, prioRaw, r)
		var rel []int32
		if relRaw%8 != 0 {
			rel = randomRelease(nt, int(relRaw%8)*k, r)
		}
		cd := int(cdRaw % 6)

		ws := sched.NewWorkspace()
		got := &sched.Schedule{}
		check := func(kernel string, want *sched.Schedule, metrics bool) {
			t.Helper()
			if !slices.Equal(got.Start, want.Start) || got.Makespan != want.Makespan {
				t.Fatalf("%s (n=%d k=%d m=%d): the core's schedule differs from the reference", kernel, n, k, m)
			}
			met, ok := ws.Metrics()
			if ok != metrics {
				t.Fatalf("%s: metrics reported %v, want %v", kernel, ok, metrics)
			}
			if ok {
				if want := sched.Measure(got, 1); met != want {
					t.Fatalf("%s: the core counted %+v, Measure %+v", kernel, met, want)
				}
			}
		}

		want, err := refimpl.ListScheduleWithRelease(inst, assign, prio, rel)
		if err != nil {
			t.Fatal(err)
		}
		if err := sched.ListScheduleInto(ws, got, inst, assign, prio, rel); err != nil {
			t.Fatal(err)
		}
		check("list", want, true)

		if want, err = refimpl.ListScheduleComm(inst, assign, prio, cd); err != nil {
			t.Fatal(err)
		}
		if err := sched.CommScheduleInto(ws, got, inst, assign, prio, cd); err != nil {
			t.Fatal(err)
		}
		check("comm", want, true)

		// Everything the comm schedule started before the cut is done.
		cut := int32(cutRaw) % int32(got.Makespan+1)
		done := make([]bool, nt)
		for tt, st := range got.Start {
			done[tt] = st < cut
		}
		if want, err = refimpl.ListScheduleResidual(inst, assign, prio, done); err != nil {
			t.Fatal(err)
		}
		if err := ws.Schedule(got, inst, assign, sched.Rule{Prio: prio, Done: done}); err != nil {
			t.Fatal(err)
		}
		check("residual", want, false)

		if want, err = refimpl.ListScheduleComm(inst, assign, prio, cd); err != nil {
			t.Fatal(err)
		}
		if err := ws.Schedule(got, inst, assign, sched.Rule{Prio: prio, CommDelay: cd, Done: make([]bool, nt)}); err != nil {
			t.Fatal(err)
		}
		check("residual comm, nothing done", want, false)
		rule := sched.Rule{Prio: prio, CommDelay: cd, Done: done}
		if err := ws.Schedule(got, inst, assign, rule); err != nil {
			t.Fatal(err)
		}
		if got.CommDelay != cd {
			t.Fatalf("residual comm: the schedule records delay %d, the rule ran %d", got.CommDelay, cd)
		}
		if err := verify.Schedule(inst, got, verify.RuleOpts(rule)); err != nil {
			t.Fatalf("residual comm (n=%d k=%d m=%d cd=%d cut=%d): %v", n, k, m, cd, cut, err)
		}

		// Algorithm 1's layered rule: each task's level plus its
		// direction's delay, and the floors LayerFloorsInto puts on them.
		layer := make(sched.Priorities, nt)
		for i, d := range inst.DAGs {
			x := int64(r.Intn(k))
			for v, l := range d.Level {
				layer[i*n+v] = int64(l) + x
			}
		}
		floor := make([]int32, nt)
		if err := sched.LayerFloorsInto(ws, floor, inst, assign, layer); err != nil {
			t.Fatal(err)
		}
		layered := sched.Rule{Prio: layer, Release: floor, Layered: true}
		if want, err = refimpl.ListScheduleWithRelease(inst, assign, layer, floor); err != nil {
			t.Fatal(err)
		}
		if err := ws.Schedule(got, inst, assign, layered); err != nil {
			t.Fatal(err)
		}
		check("layered", want, true)
		if err := ws.Schedule(got, inst, assign, sched.Rule{Prio: layer, Release: floor}); err != nil {
			t.Fatal(err)
		}
		check("layered rule on the step core", want, true)

		// Another rule's floors pass leaves its ranks in the workspace: the
		// first rule's run must not take them, and neither may a run of the
		// other rule written over the first one's buffers, whose floors pass
		// came last.
		other := slices.Clone(layer)
		for i := range k {
			for v := range n {
				other[i*n+v] += int64(i % 2)
			}
		}
		otherFloor := make([]int32, nt)
		if err := sched.LayerFloorsInto(ws, otherFloor, inst, assign, other); err != nil {
			t.Fatal(err)
		}
		if err := ws.Schedule(got, inst, assign, layered); err != nil {
			t.Fatal(err)
		}
		check("layered after another rule's floors", want, true)
		if want, err = refimpl.ListScheduleWithRelease(inst, assign, other, otherFloor); err != nil {
			t.Fatal(err)
		}
		if err := sched.LayerFloorsInto(ws, floor, inst, assign, layer); err != nil {
			t.Fatal(err)
		}
		copy(layer, other)
		copy(floor, otherFloor)
		if err := ws.Schedule(got, inst, assign, layered); err != nil {
			t.Fatal(err)
		}
		check("another rule in the first one's buffers", want, true)
	})
}

// fuzzPriorities draws nt priorities whose spread mode picks: the low
// bits of mode bound a narrow spread (0 is nil, all equal); from 64 the
// same values are scaled past the counting pass's buckets into the radix
// sort; from 128 past what packs beside an id, still the radix sort;
// from 192 they sit at both extremes of int64.
func fuzzPriorities(nt int, mode uint8, r *rng.Source) sched.Priorities {
	spread := int(mode % 64)
	if mode == 0 {
		return nil
	}
	prio := make(sched.Priorities, nt)
	for t := range prio {
		prio[t] = int64(r.Intn(spread + 1))
	}
	switch mode / 64 {
	case 1:
		for t := range prio {
			prio[t] *= int64(nt) + 1
		}
	case 2:
		for t := range prio {
			prio[t] = prio[t]<<50 - 1<<61
		}
	case 3:
		for t := range prio {
			if prio[t]%2 == 0 {
				prio[t] += math.MinInt64 / 2
			} else {
				prio[t] += math.MaxInt64 / 2
			}
		}
	}
	return prio
}
