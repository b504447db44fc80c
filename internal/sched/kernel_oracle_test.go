package sched_test

// Bitwise pinning of the typed workspace kernels to the pre-workspace
// reference implementations, now promoted to internal/sched/refimpl so
// they double as the differential oracle of internal/verify. This file
// is an external test package because package sched's own test files
// cannot import refimpl (refimpl imports sched). The kernel benchmarks
// live here too, their "ref" variants as the baseline.

import (
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/sched/refimpl"
	"sweepsched/internal/verify"
)

// meshInstance builds a jittered Kuhn-box mesh instance (the same
// construction as package sched's in-package testInstance helper).
func meshInstance(t testing.TB, nx, k, m int, seed uint64) *sched.Instance {
	t.Helper()
	return instanceOn(t, mesh.KuhnBox(mesh.BoxSpec{NX: nx, NY: nx, NZ: nx, Jitter: 0.15, Seed: seed}), k, m)
}

// shuffledInstance is meshInstance with the box's tetrahedra renumbered
// at random (sched.ShuffledMesh), so that a task's slot in the task graph
// has nothing to do with its id: the differentials run every engine on
// one.
func shuffledInstance(t testing.TB, nx, k, m int, seed uint64) *sched.Instance {
	t.Helper()
	return instanceOn(t, sched.ShuffledMesh(mesh.KuhnBox(mesh.BoxSpec{NX: nx, NY: nx, NZ: nx, Jitter: 0.15, Seed: seed}), seed+1), k, m)
}

func instanceOn(t testing.TB, msh *mesh.Mesh, k, m int) *sched.Instance {
	t.Helper()
	dirs, err := quadrature.Octant(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// syntheticInstance builds a mesh-free instance of k independent random
// DAGs (edges only from lower to higher cell id, so acyclic by
// construction).
func syntheticInstance(t testing.TB, n, k, m int, seed uint64) *sched.Instance {
	t.Helper()
	r := rng.New(seed)
	dags := make([]*dag.DAG, k)
	for i := range dags {
		var edges [][2]int32
		for u := int32(0); u < int32(n); u++ {
			for e := r.Intn(3); e > 0; e-- {
				w := u + 1 + int32(r.Intn(n-int(u)))
				if w < int32(n) {
					edges = append(edges, [2]int32{u, w})
				}
			}
		}
		d, err := dag.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		dags[i] = d
	}
	inst, err := sched.FromDAGs(dags, m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func tiedPrio(nt int, r *rng.Source) sched.Priorities {
	prio := make(sched.Priorities, nt)
	for t := range prio {
		prio[t] = int64(r.Intn(nt/4 + 1))
	}
	return prio
}

func randomRelease(nt, maxRel int, r *rng.Source) []int32 {
	rel := make([]int32, nt)
	for t := range rel {
		rel[t] = int32(r.Intn(maxRel + 1))
	}
	return rel
}

// TestListScheduleIntoMatchesReference pins the typed workspace kernel to
// the promoted container/heap reference bit for bit across random
// instances, priorities and release streams — mesh DAGs, a mesh
// renumbered at random and random non-geometric DAGs, with one workspace
// reused across every case to also exercise cross-shape reuse.
func TestListScheduleIntoMatchesReference(t *testing.T) {
	ws := sched.NewWorkspace()
	r := rng.New(987)
	insts := []*sched.Instance{
		meshInstance(t, 3, 6, 4, 5),
		syntheticInstance(t, 120, 5, 7, 6),
		syntheticInstance(t, 40, 3, 2, 7),
		shuffledInstance(t, 4, 8, 6, 8),
	}
	for ii, inst := range insts {
		nt := inst.NTasks()
		for round := 0; round < 10; round++ {
			assign := sched.RandomAssignment(inst.N(), inst.M, r)
			var prio sched.Priorities
			if round > 0 {
				prio = tiedPrio(nt, r)
			}
			var rel []int32
			if round%2 == 1 {
				rel = randomRelease(nt, 2*inst.K(), r)
			}
			want, err := refimpl.ListScheduleWithRelease(inst, assign, prio, rel)
			if err != nil {
				t.Fatal(err)
			}
			dst := &sched.Schedule{}
			if err := sched.ListScheduleInto(ws, dst, inst, assign, prio, rel); err != nil {
				t.Fatal(err)
			}
			for tt := range want.Start {
				if dst.Start[tt] != want.Start[tt] {
					t.Fatalf("inst %d round %d: task %d starts at %d, reference %d",
						ii, round, tt, dst.Start[tt], want.Start[tt])
				}
			}
			if dst.Makespan != want.Makespan {
				t.Fatalf("inst %d round %d: makespan %d vs %d", ii, round, dst.Makespan, want.Makespan)
			}
		}
	}
}

// TestCommScheduleIntoMatchesReference does the same for the uniform
// communication-delay kernel across a delay sweep.
func TestCommScheduleIntoMatchesReference(t *testing.T) {
	ws := sched.NewWorkspace()
	r := rng.New(654)
	insts := []*sched.Instance{
		meshInstance(t, 3, 4, 6, 9),
		syntheticInstance(t, 90, 4, 5, 10),
		shuffledInstance(t, 4, 8, 6, 8),
	}
	for ii, inst := range insts {
		nt := inst.NTasks()
		for _, cd := range []int{0, 1, 3, 9, 40} {
			assign := sched.RandomAssignment(inst.N(), inst.M, r)
			prio := tiedPrio(nt, r)
			want, err := refimpl.ListScheduleComm(inst, assign, prio, cd)
			if err != nil {
				t.Fatal(err)
			}
			dst := &sched.Schedule{}
			if err := sched.CommScheduleInto(ws, dst, inst, assign, prio, cd); err != nil {
				t.Fatal(err)
			}
			for tt := range want.Start {
				if dst.Start[tt] != want.Start[tt] {
					t.Fatalf("inst %d c=%d: task %d starts at %d, reference %d",
						ii, cd, tt, dst.Start[tt], want.Start[tt])
				}
			}
		}
	}
}

// oracleInstances are the instances the differentials in this file run
// on, mesh DAGs (one renumbered at random) and random non-geometric ones,
// of differing shapes.
func oracleInstances(t testing.TB) []*sched.Instance {
	return []*sched.Instance{
		meshInstance(t, 3, 6, 4, 5),
		syntheticInstance(t, 120, 5, 7, 6),
		syntheticInstance(t, 40, 3, 2, 7),
		meshInstance(t, 3, 4, 6, 9),
		syntheticInstance(t, 90, 4, 5, 10),
		meshInstance(t, 3, 4, 5, 12),
		syntheticInstance(t, 70, 4, 3, 13),
		syntheticInstance(t, 80, 4, 5, 20),
		shuffledInstance(t, 4, 8, 6, 8),
	}
}

// TestGreedyScheduleMatchesReference pins the workspace Graham scheduler
// — the ready set's one-partition case — to the promoted reference on
// levels and makespan, bit for bit on every oracle instance, through one
// workspace that the shapes take turns on.
func TestGreedyScheduleMatchesReference(t *testing.T) {
	r := rng.New(321)
	ws := sched.NewWorkspace()
	for ii, inst := range oracleInstances(t) {
		for round := 0; round < 5; round++ {
			var prio sched.Priorities
			if round > 0 {
				prio = tiedPrio(inst.NTasks(), r)
			}
			wantLevel, wantMk, err := refimpl.GreedySchedule(inst, prio)
			if err != nil {
				t.Fatal(err)
			}
			gotLevel := make([]int32, inst.NTasks())
			gotMk, err := sched.GreedyScheduleInto(ws, gotLevel, inst, prio)
			if err != nil {
				t.Fatal(err)
			}
			if gotMk != wantMk {
				t.Fatalf("inst %d round %d: makespan %d vs %d", ii, round, gotMk, wantMk)
			}
			for tt := range wantLevel {
				if gotLevel[tt] != wantLevel[tt] {
					t.Fatalf("inst %d round %d: task %d level %d, reference %d",
						ii, round, tt, gotLevel[tt], wantLevel[tt])
				}
			}
		}
	}
}

// TestResidualMatchesReference pins the residual kernel to the promoted
// reference across precedence-consistent done sets, on random DAGs and
// on a mesh renumbered at random.
func TestResidualMatchesReference(t *testing.T) {
	for ii, inst := range []*sched.Instance{syntheticInstance(t, 80, 4, 5, 20), shuffledInstance(t, 4, 8, 6, 8)} {
		r := rng.New(21)
		assign := sched.RandomAssignment(inst.N(), inst.M, r)
		prio := tiedPrio(inst.NTasks(), r)
		ws := sched.NewWorkspace()
		full := &sched.Schedule{}
		if err := sched.ListScheduleInto(ws, full, inst, assign, prio, nil); err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int32{0, 1, int32(full.Makespan) / 2, int32(full.Makespan)} {
			done := make([]bool, inst.NTasks())
			for tt, st := range full.Start {
				if st < cut {
					done[tt] = true
				}
			}
			want, err := refimpl.ListScheduleResidual(inst, assign, prio, done)
			if err != nil {
				t.Fatal(err)
			}
			dst := &sched.Schedule{}
			if err := sched.ListScheduleResidualInto(ws, dst, inst, assign, prio, done); err != nil {
				t.Fatal(err)
			}
			for tt := range want.Start {
				if dst.Start[tt] != want.Start[tt] {
					t.Fatalf("inst %d cut %d: task %d starts at %d, reference %d", ii, cut, tt, dst.Start[tt], want.Start[tt])
				}
			}
			if dst.Makespan != want.Makespan {
				t.Fatalf("inst %d cut %d: makespan %d vs %d", ii, cut, dst.Makespan, want.Makespan)
			}
		}
	}
}

// TestStepCoreMetricsMatchOracles: the C1 and C2 the step core counts on
// its own edge walk are the ones sched.Measure computes from the finished
// schedule over the DAG arrays and the ones internal/verify recomputes
// from first principles — for every wrapper that reports metrics, on
// every instance the differentials above use. The residual wrapper
// schedules part of the graph and must report none.
func TestStepCoreMetricsMatchOracles(t *testing.T) {
	ws := sched.NewWorkspace()
	r := rng.New(4242)
	for ii, inst := range oracleInstances(t) {
		nt, n, k := inst.NTasks(), inst.N(), inst.K()
		assign := sched.RandomAssignment(n, inst.M, r)
		prio := tiedPrio(nt, r)
		// Anglesets: directions {0,1}, {2,3}, ... with per-angleset inputs.
		var groups [][]int32
		for i := 0; i < k; i += 2 {
			g := []int32{int32(i)}
			if i+1 < k {
				g = append(g, int32(i+1))
			}
			groups = append(groups, g)
		}
		aggPrio := tiedPrio(n*len(groups), r)
		aggRel := randomRelease(len(groups), 2*k, r)

		dst := &sched.Schedule{}
		runs := []struct {
			name string
			run  func() error
		}{
			{"list", func() error { return sched.ListScheduleInto(ws, dst, inst, assign, prio, nil) }},
			{"list+release", func() error {
				return sched.ListScheduleInto(ws, dst, inst, assign, prio, randomRelease(nt, 2*k, r))
			}},
			{"comm", func() error { return sched.CommScheduleInto(ws, dst, inst, assign, prio, 3) }},
			{"anglist", func() error {
				return sched.ListScheduleAnglesetInto(ws, dst, inst, assign, groups, aggPrio, aggRel)
			}},
			{"angcomm", func() error {
				return sched.CommScheduleAnglesetInto(ws, dst, inst, assign, groups, aggPrio, 2)
			}},
		}
		for _, rc := range runs {
			if err := rc.run(); err != nil {
				t.Fatalf("inst %d %s: %v", ii, rc.name, err)
			}
			got, ok := ws.Metrics()
			if !ok {
				t.Fatalf("inst %d %s: the step core reported no metrics", ii, rc.name)
			}
			if want := sched.Measure(dst, 1); got != want {
				t.Fatalf("inst %d %s: step core counted %+v, Measure %+v", ii, rc.name, got, want)
			}
			if c1, c2 := verify.C1Ref(inst, assign), verify.C2Ref(dst); got.C1 != c1 || got.C2 != c2 {
				t.Fatalf("inst %d %s: step core counted C1=%d C2=%d, verify's reference C1=%d C2=%d",
					ii, rc.name, got.C1, got.C2, c1, c2)
			}
		}

		done := make([]bool, nt)
		for tt, st := range dst.Start {
			done[tt] = st < int32(dst.Makespan)/2
		}
		if err := sched.ListScheduleResidualInto(ws, dst, inst, assign, prio, done); err != nil {
			t.Fatalf("inst %d residual: %v", ii, err)
		}
		if met, ok := ws.Metrics(); ok {
			t.Fatalf("inst %d: the residual run reported metrics %+v", ii, met)
		}
	}
}

// kernelBenchWorkload builds the random-delay trial workload both kernel
// benchmark variants share: level+delay priorities and per-direction
// release times, fresh assignment per trial — the §5.2 inner loop.
func kernelBenchWorkload(b *testing.B) (*sched.Instance, []sched.Assignment, sched.Priorities, []int32) {
	b.Helper()
	inst := meshInstance(b, 8, 24, 32, 1)
	r := rng.New(2)
	nt := inst.NTasks()
	n := int32(inst.N())
	prio := make(sched.Priorities, nt)
	rel := make([]int32, nt)
	for i, d := range inst.DAGs {
		base := int32(i) * n
		delay := int32(r.Intn(inst.K()))
		for v := int32(0); v < n; v++ {
			prio[base+v] = int64(d.Level[v] + delay)
			rel[base+v] = delay
		}
	}
	assigns := make([]sched.Assignment, 8)
	for i := range assigns {
		assigns[i] = sched.RandomAssignment(inst.N(), inst.M, r)
	}
	return inst, assigns, prio, rel
}

// BenchmarkScheduleKernel compares the old container/heap+map kernel
// ("ref", now internal/sched/refimpl) with the typed workspace kernel
// ("workspace") on the random-delay trial loop.
func BenchmarkScheduleKernel(b *testing.B) {
	inst, assigns, prio, rel := kernelBenchWorkload(b)
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refimpl.ListScheduleWithRelease(inst, assigns[i%len(assigns)], prio, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		ws := sched.NewWorkspace()
		dst := &sched.Schedule{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sched.ListScheduleInto(ws, dst, inst, assigns[i%len(assigns)], prio, rel); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScheduleKernelPaperShape is the workspace kernel at the paper's
// headline size — tetonly at scale 1, k=24, m=64, about 755k tasks and
// 1.47M edges, a fresh per-cell assignment every trial — reported per run
// and per task. BenchmarkScheduleKernel's 74k-task box lives in cache;
// here the per-task state is 12 MB and the kernel is bound by memory,
// which is what the node and task-graph layout is for. Three inputs:
// "priority" is Algorithm 2's, level+delay priorities and no floors (the
// counting pass ranks them); "release" is descendant_delays', descendant
// priorities (path counts capped at 2⁵⁰, too wide to pack beside a task
// id, which the radix sort carries in a key array of their own) and every
// direction held back to its delay, so the release loop runs with the
// calendar on; "shuffled" is "priority" on the same mesh with its
// tetrahedra renumbered at random, the arbitrary numbering a real mesher
// gives. A warm run of any of them must allocate nothing.
func BenchmarkScheduleKernelPaperShape(b *testing.B) {
	msh, err := mesh.Family("tetonly", 1.0, 1)
	if err != nil {
		b.Fatal(err)
	}
	// levelDelay is Algorithm 2's priorities, the release floors every
	// direction's delay.
	levelDelay := func(inst *sched.Instance, r *rng.Source) (sched.Priorities, []int32) {
		n, nt := inst.N(), inst.NTasks()
		prio, release := make(sched.Priorities, nt), make([]int32, nt)
		for i, d := range inst.DAGs {
			delay := int32(r.Intn(inst.K()))
			for v, lvl := range d.Level {
				prio[i*n+v] = int64(lvl + delay)
				release[i*n+v] = delay
			}
		}
		return prio, release
	}
	inst := instanceOn(b, msh, 24, 64)
	r := rng.New(2)
	prio, release := levelDelay(inst, r)
	descendant := heuristics.DescendantPriorities(inst, 1)
	assigns := make([]sched.Assignment, 4)
	for i := range assigns {
		assigns[i] = sched.RandomAssignment(inst.N(), inst.M, r)
	}
	run := func(b *testing.B, inst *sched.Instance, prio sched.Priorities, release []int32) {
		ws := sched.NewWorkspace()
		dst := &sched.Schedule{}
		trial := 0
		// The first run builds the task graph and grows the workspace.
		sched.BenchWarm(b, func() {
			if err := sched.ListScheduleInto(ws, dst, inst, assigns[trial%len(assigns)], prio, release); err != nil {
				b.Fatal(err)
			}
			trial++
		})
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(inst.NTasks()), "ns/task")
	}
	b.Run("priority", func(b *testing.B) { run(b, inst, prio, nil) })
	b.Run("release", func(b *testing.B) { run(b, inst, descendant, release) })
	b.Run("shuffled", func(b *testing.B) {
		shuffled := instanceOn(b, sched.ShuffledMesh(msh, 3), 24, 64)
		prio, _ := levelDelay(shuffled, rng.New(2))
		run(b, shuffled, prio, nil)
	})
}

// BenchmarkCommKernel is the same comparison for the communication-delay
// kernel.
func BenchmarkCommKernel(b *testing.B) {
	inst, assigns, prio, _ := kernelBenchWorkload(b)
	const cd = 4
	b.Run("ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refimpl.ListScheduleComm(inst, assigns[i%len(assigns)], prio, cd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("workspace", func(b *testing.B) {
		ws := sched.NewWorkspace()
		dst := &sched.Schedule{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sched.CommScheduleInto(ws, dst, inst, assigns[i%len(assigns)], prio, cd); err != nil {
				b.Fatal(err)
			}
		}
	})
}
