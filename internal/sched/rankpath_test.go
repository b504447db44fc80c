package sched

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"sweepsched/internal/rng"
)

// TestRankPathSelection pins rankPathFor on both sides of its threshold:
// the counting pass while (spread+1)·m buckets fit in the tasks, the radix
// sort from one bucket row past that, up to spreads far too wide to pack
// beside a task id in 64 bits.
func TestRankPathSelection(t *testing.T) {
	const nt, m = 1000, 8 // 125 buckets a processor
	cases := []struct {
		spread uint64
		m      int
		want   rankPath
	}{
		{0, m, countPath},
		{124, m, countPath},
		{125, m, radixPath},
		{nt - 1, 1, countPath},
		{nt, 1, radixPath},
		{0, nt + 1, radixPath}, // more processors than tasks: no bucket budget at all
		{1<<53 - 1, m, radixPath},
		{1 << 53, m, radixPath},
		{math.MaxUint64, m, radixPath},
	}
	for _, tc := range cases {
		if got := rankPathFor(tc.spread, nt, tc.m); got != tc.want {
			t.Errorf("spread %d, m=%d: path %d, want %d", tc.spread, tc.m, got, tc.want)
		}
	}
}

// TestBuildPathsAgree pins the counting pass against the radix sort
// without a test hook: priorities p and a·p + b (a > 0) order the tasks
// the same way, so every engine must produce byte-identical output from
// both, and the affine forms are chosen to move the run off the counting
// pass — a = nt widens the spread into the radix sort, and a = 2⁵⁰ with
// b = −2⁶¹ widens it past what packs beside a task id in 64 bits, which
// the radix sort must rank too. Each form's path is asserted, for the
// unit core's list, release, comm, residual and angleset wrappers, the
// weighted core and the greedy pass, on a mesh and a random-DAG instance.
func TestBuildPathsAgree(t *testing.T) {
	r := rng.New(2929)
	insts := []*Instance{testInstance(t, 3, 8, 4, 5), randomDAGInstance(t, 120, 6, 7, 6)}
	forms := []struct {
		name string
		a, b int64
		path rankPath
	}{
		{"p", 1, 0, countPath},
		{"nt·p-7", 0, -7, radixPath}, // a = nt, set per instance
		{"2^50·p-2^61", 1 << 50, -(1 << 61), radixPath},
	}
	for ii, inst := range insts {
		n, k, nt, m := inst.N(), inst.K(), inst.NTasks(), inst.M
		assign := RandomAssignment(n, m, r)
		var groups [][]int32
		for i := 0; i < k; i += 2 {
			groups = append(groups, []int32{int32(i), int32(i + 1)})
		}
		narrow := func(count int) Priorities {
			p := make(Priorities, count)
			for i := range p {
				p[i] = int64(r.Intn(20))
			}
			p[0], p[1] = 0, 19 // a spread of 19, in the counting pass's budget
			return p
		}
		basePrio, baseAgg := narrow(nt), narrow(n*len(groups))
		rel, aggRel := releaseStream(nt, k, r), releaseStream(len(groups), k, r)
		weights := randomWeights(n, r, 5)
		model := &MachineModel{IntraDelay: 1, CrossDelay: 2}
		full, err := into(inst, assign, Rule{Prio: basePrio})
		if err != nil {
			t.Fatal(err)
		}
		done := make([]bool, nt)
		for tt, st := range full.Start {
			done[tt] = st < int32(full.Makespan)/2
		}

		var want []string
		for fi, f := range forms {
			a := f.a
			if a == 0 {
				a = int64(nt)
			}
			affine := func(p Priorities) Priorities {
				q := make(Priorities, len(p))
				for i, v := range p {
					q[i] = a*v + f.b
				}
				return q
			}
			prio, agg := affine(basePrio), affine(baseAgg)
			for _, c := range []struct {
				what  string
				prio  Priorities
				nt, m int
			}{{"per-task", prio, nt, m}, {"aggregate", agg, nt, m}, {"greedy", prio, nt, 1}} {
				_, spread := prioRange(c.prio)
				if got := rankPathFor(spread, c.nt, c.m); got != f.path {
					t.Fatalf("inst %d form %s: %s priorities take path %d, want %d", ii, f.name, c.what, got, f.path)
				}
			}

			ws := NewWorkspace()
			unit, weighted := &Schedule{}, &WeightedSchedule{}
			level := make([]int32, nt)
			unitRun := func(run func() error) string {
				if err := run(); err != nil {
					t.Fatalf("inst %d form %s: %v", ii, f.name, err)
				}
				met, ok := ws.Metrics()
				return fmt.Sprint(unit.Start, unit.Makespan, met, ok)
			}
			got := []string{
				unitRun(func() error { return ListScheduleInto(ws, unit, inst, assign, prio, nil) }),
				unitRun(func() error { return ListScheduleInto(ws, unit, inst, assign, prio, rel) }),
				unitRun(func() error { return CommScheduleInto(ws, unit, inst, assign, prio, 2) }),
				unitRun(func() error { return ws.Schedule(unit, inst, assign, Rule{Prio: prio, Done: done}) }),
				unitRun(func() error { return ListScheduleAnglesetInto(ws, unit, inst, assign, groups, agg, aggRel) }),
				unitRun(func() error { return ws.Schedule(unit, inst, assign, Rule{Prio: agg, CommDelay: 1, Anglesets: groups}) }),
			}
			if err := ListScheduleWeightedInto(ws, weighted, inst, assign, prio, weights, model); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprint(weighted.Start, weighted.Finish, weighted.Makespan))
			mk, err := GreedyScheduleInto(ws, level, inst, prio)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprint(level, mk))
			if fi == 0 {
				want = got
				continue
			}
			for e, name := range []string{"list", "release", "comm", "residual", "anglist", "angcomm", "weighted", "greedy"} {
				if got[e] != want[e] {
					t.Errorf("inst %d: the %s engine under %s differs from under p", ii, name, f.name)
				}
			}
		}
		if !slices.Contains(done, true) || !slices.Contains(done, false) {
			t.Fatalf("inst %d: the residual run's done mask is trivial", ii)
		}
	}
}
