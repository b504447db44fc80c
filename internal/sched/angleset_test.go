package sched_test

// Correctness of the angleset-aggregated kernels: bitwise identity with
// the per-direction kernels (and the frozen refimpl) on the expanded
// inputs, singleton-partition identity, partition validation, and the
// zero-allocation contract on a warm workspace.

import (
	"testing"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/sched/refimpl"
)

// randomAnglesets draws a random partition of k directions into at most
// maxA anglesets (members ascending, groups ordered by first member).
func randomAnglesets(k, maxA int, r *rng.Source) [][]int32 {
	of := make([]int, k)
	for i := range of {
		of[i] = r.Intn(maxA)
	}
	buckets := make([][]int32, maxA)
	for i := 0; i < k; i++ {
		buckets[of[i]] = append(buckets[of[i]], int32(i))
	}
	var groups [][]int32
	// Non-empty buckets in first-member order: iterating directions in
	// ascending order and appending each bucket once gives exactly that.
	seen := make([]bool, maxA)
	for i := 0; i < k; i++ {
		if a := of[i]; !seen[a] {
			seen[a] = true
			groups = append(groups, buckets[a])
		}
	}
	return groups
}

func singletonAnglesets(k int) [][]int32 {
	groups := make([][]int32, k)
	for i := range groups {
		groups[i] = []int32{int32(i)}
	}
	return groups
}

func randomAggPrio(n, a int, spread int64, r *rng.Source) sched.Priorities {
	prio := make(sched.Priorities, n*a)
	for t := range prio {
		prio[t] = int64(r.Intn(int(spread) + 1))
	}
	return prio
}

func randomAggRel(a, maxRel int, r *rng.Source) []int32 {
	rel := make([]int32, a)
	for i := range rel {
		rel[i] = int32(r.Intn(maxRel + 1))
	}
	return rel
}

// TestAnglesetBitwiseVsExpanded pins both aggregated kernels to the
// per-direction kernels and the frozen refimpl on the expanded
// priority/release vectors, across mesh (one renumbered at random) and
// synthetic instances, random partitions (including heavy priority
// collisions: equal priorities across anglesets) and random releases.
func TestAnglesetBitwiseVsExpanded(t *testing.T) {
	instances := map[string]*sched.Instance{
		"mesh":      meshInstance(t, 4, 12, 5, 7),
		"synthetic": syntheticInstance(t, 80, 9, 4, 11),
		"shuffled":  shuffledInstance(t, 4, 12, 5, 7),
	}
	for name, inst := range instances {
		t.Run(name, func(t *testing.T) {
			r := rng.New(0xA5)
			n, k := inst.N(), inst.K()
			ws := sched.GetWorkspace(inst)
			defer ws.Release()
			for trial := 0; trial < 25; trial++ {
				assign := sched.RandomAssignment(n, inst.M, r)
				groups := randomAnglesets(k, 1+r.Intn(k), r)
				a := len(groups)
				// Small spreads make many tasks of different anglesets tie
				// on priority; the counting path must break every tie by
				// TaskID, as the per-direction kernels do.
				spread := int64(r.Intn(3)*50 + 1)
				aggPrio := randomAggPrio(n, a, spread, r)
				var aggRel []int32
				if trial%2 == 0 {
					aggRel = randomAggRel(a, 6, r)
				}

				prio := make(sched.Priorities, inst.NTasks())
				if err := sched.ExpandAnglesetPrio(prio, aggPrio, groups, n); err != nil {
					t.Fatal(err)
				}
				var rel []int32
				if aggRel != nil {
					rel = make([]int32, inst.NTasks())
					if err := sched.ExpandAnglesetRelease(rel, aggRel, groups, n); err != nil {
						t.Fatal(err)
					}
				}

				var got, want sched.Schedule
				if err := sched.ListScheduleAnglesetInto(ws, &got, inst, assign, groups, aggPrio, aggRel); err != nil {
					t.Fatalf("trial %d: aggregated: %v", trial, err)
				}
				if err := sched.ListScheduleInto(ws, &want, inst, assign, prio, rel); err != nil {
					t.Fatalf("trial %d: per-direction: %v", trial, err)
				}
				compareStarts(t, trial, "list", &got, &want)

				ref, err := refimpl.ListScheduleWithRelease(inst, assign, prio, rel)
				if err != nil {
					t.Fatalf("trial %d: refimpl: %v", trial, err)
				}
				compareStarts(t, trial, "list-vs-refimpl", &got, ref)

				cd := r.Intn(4)
				if err := ws.Schedule(&got, inst, assign, sched.Rule{Prio: aggPrio, CommDelay: cd, Anglesets: groups}); err != nil {
					t.Fatalf("trial %d: aggregated comm: %v", trial, err)
				}
				if err := sched.CommScheduleInto(ws, &want, inst, assign, prio, cd); err != nil {
					t.Fatalf("trial %d: per-direction comm: %v", trial, err)
				}
				compareStarts(t, trial, "comm", &got, &want)

				refc, err := refimpl.ListScheduleComm(inst, assign, prio, cd)
				if err != nil {
					t.Fatalf("trial %d: refimpl comm: %v", trial, err)
				}
				compareStarts(t, trial, "comm-vs-refimpl", &got, refc)
			}
		})
	}
}

func compareStarts(t *testing.T, trial int, kind string, got, want *sched.Schedule) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("trial %d: %s makespan %d != %d", trial, kind, got.Makespan, want.Makespan)
	}
	for i := range want.Start {
		if got.Start[i] != want.Start[i] {
			t.Fatalf("trial %d: %s start[%d] = %d, want %d", trial, kind, i, got.Start[i], want.Start[i])
		}
	}
}

// TestAnglesetSingletonIdentity: with all-singleton groups the
// aggregate inputs are the per-direction inputs, and the aggregated
// kernel must reproduce the per-direction kernel exactly — the
// ISSUE's "bitwise-identical for groups of size 1" contract.
func TestAnglesetSingletonIdentity(t *testing.T) {
	inst := meshInstance(t, 4, 6, 4, 3)
	r := rng.New(99)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	groups := singletonAnglesets(inst.K())
	for trial := 0; trial < 10; trial++ {
		assign := sched.RandomAssignment(inst.N(), inst.M, r)
		prio := tiedPrio(inst.NTasks(), r)
		var got, want sched.Schedule
		if err := sched.ListScheduleAnglesetInto(ws, &got, inst, assign, groups, prio, nil); err != nil {
			t.Fatal(err)
		}
		if err := sched.ListScheduleInto(ws, &want, inst, assign, prio, nil); err != nil {
			t.Fatal(err)
		}
		compareStarts(t, trial, "singleton", &got, &want)
	}
}

func TestValidateAnglesets(t *testing.T) {
	cases := []struct {
		name   string
		groups [][]int32
		k      int
		ok     bool
	}{
		{"octants", [][]int32{{0, 2}, {1, 3}}, 4, true},
		{"singletons", singletonAnglesets(3), 3, true},
		{"empty partition", nil, 4, false},
		{"empty group", [][]int32{{0, 1}, {}}, 2, false},
		{"out of range", [][]int32{{0, 4}}, 2, false},
		{"negative", [][]int32{{-1, 0}}, 2, false},
		{"duplicate", [][]int32{{0, 1}, {1}}, 2, false},
		{"descending", [][]int32{{1, 0}}, 2, false},
		{"missing direction", [][]int32{{0, 1}}, 3, false},
	}
	for _, tc := range cases {
		err := sched.ValidateAnglesets(tc.groups, tc.k)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestAnglesetKernelRejects: the aggregated kernels must reject
// malformed partitions and mis-sized aggregate inputs rather than
// schedule with them.
func TestAnglesetKernelRejects(t *testing.T) {
	inst := meshInstance(t, 3, 4, 3, 1)
	r := rng.New(5)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	var dst sched.Schedule
	good := [][]int32{{0, 1}, {2, 3}}
	if err := sched.ListScheduleAnglesetInto(ws, &dst, inst, assign, good, nil, nil); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	bad := [][]int32{{0, 1}, {1, 2, 3}}
	if err := sched.ListScheduleAnglesetInto(ws, &dst, inst, assign, bad, nil, nil); err == nil {
		t.Fatal("overlapping partition accepted")
	}
	shortPrio := make(sched.Priorities, inst.N()) // 1 angleset's worth for 2
	if err := sched.ListScheduleAnglesetInto(ws, &dst, inst, assign, good, shortPrio, nil); err == nil {
		t.Fatal("short aggregate priorities accepted")
	}
	shortRel := []int32{1}
	if err := sched.ListScheduleAnglesetInto(ws, &dst, inst, assign, good, nil, shortRel); err == nil {
		t.Fatal("short aggregate releases accepted")
	}
	if err := ws.Schedule(&dst, inst, assign, sched.Rule{CommDelay: 1, Anglesets: bad}); err == nil {
		t.Fatal("comm kernel accepted overlapping partition")
	}
	if err := ws.Schedule(&dst, inst, assign, sched.Rule{CommDelay: -1, Anglesets: good}); err == nil {
		t.Fatal("comm kernel accepted negative delay")
	}
}

// TestAnglesetZeroAllocs asserts the warm-workspace zero-allocation
// contract of both aggregated kernels (the pattern of
// TestScheduleIntoZeroAllocs).
func TestAnglesetZeroAllocs(t *testing.T) {
	inst := meshInstance(t, 4, 8, 4, 21)
	r := rng.New(17)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	groups := randomAnglesets(inst.K(), 4, r)
	a := len(groups)
	aggPrio := randomAggPrio(inst.N(), a, 40, r)
	aggRel := randomAggRel(a, 5, r)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	var dst sched.Schedule

	cases := []struct {
		name string
		run  func() error
	}{
		{"list", func() error {
			return sched.ListScheduleAnglesetInto(ws, &dst, inst, assign, groups, aggPrio, aggRel)
		}},
		{"comm", func() error {
			return sched.CommScheduleAnglesetInto(ws, &dst, inst, assign, groups, aggPrio, 3)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(); err != nil { // warm up
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := tc.run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s: %v allocs/op on warm workspace, want 0", tc.name, allocs)
			}
		})
	}
}
