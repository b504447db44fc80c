package sched

// Tests for the typed scheduling kernel: the rank-bitmap ready set and the
// calendar queue are property-tested against container/heap and map
// references on random streams, and testing.AllocsPerRun enforces the zero
// steady-state allocation contract on a warm workspace (with and without
// an attached obs collector). The bitwise pinning of the Into entry
// points to the pre-workspace kernels lives in kernel_oracle_test.go
// (external test package) against internal/sched/refimpl, which this
// package cannot import directly.

import (
	"cmp"
	"container/heap"
	"flag"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
)

// refTaskHeap is the old container/heap min-heap of tasks ordered by
// (priority, id) — the in-package reference for the rankq property tests
// (the full pre-workspace kernels are in refimpl).
type refTaskHeap struct {
	ids  []TaskID
	prio Priorities
}

func (h *refTaskHeap) Len() int { return len(h.ids) }
func (h *refTaskHeap) Less(a, b int) bool {
	pa, pb := h.prio[h.ids[a]], h.prio[h.ids[b]]
	if pa != pb {
		return pa < pb
	}
	return h.ids[a] < h.ids[b]
}
func (h *refTaskHeap) Swap(a, b int)      { h.ids[a], h.ids[b] = h.ids[b], h.ids[a] }
func (h *refTaskHeap) Push(x interface{}) { h.ids = append(h.ids, x.(TaskID)) }
func (h *refTaskHeap) Pop() interface{} {
	old := h.ids
	n := len(old)
	x := old[n-1]
	h.ids = old[:n-1]
	return x
}

// randomPrio draws priorities with deliberate ties so TaskID tie-breaking
// is exercised on every stream.
func randomPrio(nt int, r *rng.Source) Priorities {
	prio := make(Priorities, nt)
	for t := range prio {
		prio[t] = int64(r.Intn(nt/4 + 1))
	}
	return prio
}

// TestRankqPopOrderIsTotalOrder checks the defining property the kernels'
// bitwise-equivalence rests on, on the greedy scheduler's single
// partition (m = 1): regardless of push order, a drain returns
// tasks sorted by (priority, TaskID).
func TestRankqPopOrderIsTotalOrder(t *testing.T) {
	r := rng.New(77)
	nt := 200
	prio := randomPrio(nt, r)
	perm := make([]TaskID, nt)
	for i := range perm {
		perm[i] = TaskID(i)
	}
	for i := nt - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var q rankq
	rankOnly(t, &q, prio, nt, 1, make(Assignment, 50))
	for _, tt := range perm {
		q.push(0, q.node[tt].rank)
	}
	want := make([]TaskID, nt)
	copy(want, perm)
	sort.Slice(want, func(a, b int) bool {
		if prio[want[a]] != prio[want[b]] {
			return prio[want[a]] < prio[want[b]]
		}
		return want[a] < want[b]
	})
	for i, w := range want {
		if got := TaskID(q.pop(0)); got != w {
			t.Fatalf("pop %d: got %d want %d", i, got, w)
		}
	}
	if q.procs[0].count != 0 {
		t.Fatalf("count %d after drain", q.procs[0].count)
	}
}

// TestCalendarMatchesMapReference replays a random (push, drain) release
// stream through the calendar ring and through the old map[int32][]TaskID
// structure, comparing drained task sequences per step.
func TestCalendarMatchesMapReference(t *testing.T) {
	r := rng.New(4242)
	for round := 0; round < 30; round++ {
		horizon := int32(1 + r.Intn(40))
		var cal calendar
		// Odd rounds cap the ring below the horizon: entries a lap apart
		// then share buckets and only the due check tells them apart.
		tasks := 1 << 20
		if round%2 == 1 {
			tasks = 1 + r.Intn(int(horizon))
		}
		cal.prepare(horizon, tasks)
		ref := map[int32][]int32{}
		refPending := 0
		next := int32(0)
		steps := int32(200)
		for now := int32(0); now < steps; now++ {
			var got []int32
			if cal.pending > 0 {
				got = append(got, cal.drain(now)...)
			}
			want := ref[now]
			refPending -= len(want)
			delete(ref, now)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d step %d: calendar %v, map %v", round, now, got, want)
			}
			if cal.pending != refPending {
				t.Fatalf("round %d step %d: pending %d vs %d", round, now, cal.pending, refPending)
			}
			for j := r.Intn(4); j > 0; j-- {
				due := now + 1 + int32(r.Intn(int(horizon)))
				cal.push(next, due)
				ref[due] = append(ref[due], next)
				refPending++
				next++
			}
		}
	}
}

// TestRankqMatchesHeapReference drives the rank-bitmap ready set and a
// per-processor container/heap reference with the same random interleaved
// (push, pop) streams and demands identical pop sequences, including
// (priority, TaskID) tie-breaks. Every seventh round inflates the
// priority spread past what packs next to a task id in 64 bits, which
// the radix sort must rank, and the others fall on either side of
// the counting pass's threshold; load's partition is also checked
// structurally against a sorted per-processor reference.
func TestRankqMatchesHeapReference(t *testing.T) {
	r := rng.New(7777)
	for round := 0; round < 40; round++ {
		n := 1 + r.Intn(60)
		k := 1 + r.Intn(4)
		m := 1 + r.Intn(8)
		nt := n * k
		prio := randomPrio(nt, r)
		if round%7 == 3 {
			for tt := range prio {
				if tt%2 == 0 {
					prio[tt] += math.MinInt64 / 2
				} else {
					prio[tt] += math.MaxInt64 / 2
				}
			}
		}
		assign := RandomAssignment(n, m, r)
		procOf := func(tt TaskID) int32 { return assign[int32(tt)%int32(n)] }

		var q rankq
		rankOnly(t, &q, prio, nt, m, assign)

		// Structural check: each processor's slot of order holds exactly
		// its tasks in (prio, id) order, with rank the position within it.
		for p := 0; p < m; p++ {
			var want []TaskID
			for tt := TaskID(0); tt < TaskID(nt); tt++ {
				if procOf(tt) == int32(p) {
					want = append(want, tt)
				}
			}
			sort.Slice(want, func(a, b int) bool {
				if prio[want[a]] != prio[want[b]] {
					return prio[want[a]] < prio[want[b]]
				}
				return want[a] < want[b]
			})
			got := q.order[q.procs[p].tasks:q.procs[p+1].tasks]
			if len(got) != len(want) {
				t.Fatalf("round %d proc %d: %d tasks in partition, want %d", round, p, len(got), len(want))
			}
			for i := range want {
				if TaskID(got[i]) != want[i] {
					t.Fatalf("round %d proc %d rank %d: task %d, want %d", round, p, i, got[i], want[i])
				}
				if q.node[want[i]].rank != int32(i) {
					t.Fatalf("round %d proc %d: task %d has rank %d, want %d", round, p, want[i], q.node[want[i]].rank, i)
				}
			}
		}

		ref := make([]refTaskHeap, m)
		for p := range ref {
			ref[p].prio = prio
		}
		next, ready := 0, 0
		for next < nt || ready > 0 {
			if next < nt && (ready == 0 || r.Intn(2) == 0) {
				tt := TaskID(next)
				p := procOf(tt)
				q.push(p, q.node[tt].rank)
				heap.Push(&ref[p], tt)
				next++
				ready++
				continue
			}
			p := int32(r.Intn(m))
			for ref[p].Len() == 0 {
				p = (p + 1) % int32(m)
			}
			if int(q.procs[p].count) != ref[p].Len() {
				t.Fatalf("round %d proc %d: count %d, reference %d", round, p, q.procs[p].count, ref[p].Len())
			}
			got, want := TaskID(q.pop(p)), heap.Pop(&ref[p]).(TaskID)
			if got != want {
				t.Fatalf("round %d proc %d: popped %d, reference %d", round, p, got, want)
			}
			ready--
		}
	}
}

// randomDAGInstance builds a mesh-free instance of k independent random
// DAGs (edges only from lower to higher cell id, so acyclic by
// construction) for the kernel equivalence tests.
func randomDAGInstance(t testing.TB, n, k, m int, seed uint64) *Instance {
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
	inst, err := FromDAGs(dags, m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// releaseStream draws random per-task release times in [0, maxRel].
func releaseStream(nt, maxRel int, r *rng.Source) []int32 {
	rel := make([]int32, nt)
	for t := range rel {
		rel[t] = int32(r.Intn(maxRel + 1))
	}
	return rel
}

// TestKernelErrorsPreserved checks the Into kernels refuse malformed
// arguments.
func TestKernelErrorsPreserved(t *testing.T) {
	inst := randomDAGInstance(t, 10, 2, 2, 30)
	ws := NewWorkspace()
	dst := &Schedule{}
	good := make(Assignment, inst.N())
	if err := ListScheduleInto(ws, dst, inst, Assignment{0}, nil, nil); err == nil {
		t.Fatal("short assignment accepted")
	}
	if err := ListScheduleInto(ws, dst, inst, good, Priorities{1}, nil); err == nil {
		t.Fatal("short priorities accepted")
	}
	if err := ListScheduleInto(ws, dst, inst, good, nil, []int32{1}); err == nil {
		t.Fatal("short release accepted")
	}
	if err := CommScheduleInto(ws, dst, inst, good, nil, -1); err == nil {
		t.Fatal("negative comm delay accepted")
	}
	if err := ListScheduleResidualInto(ws, dst, inst, good, nil, make([]bool, 1)); err == nil {
		t.Fatal("short done set accepted")
	}
}

// TestScheduleIntoZeroAllocs is the steady-state allocation regression
// test: on a warm workspace with a recycled destination, the list and
// comm kernels must not allocate at all, and the residual kernel must
// not either (the fault engine reschedules through one workspace). The
// "/observed" variants attach a live obs.Collector: after the first
// (warming) run creates the metric handles, instrumentation must add
// zero allocations to the kernels.
func TestScheduleIntoZeroAllocs(t *testing.T) {
	inst := testInstance(t, 4, 8, 16, 11)
	r := rng.New(3)
	assign := RandomAssignment(inst.N(), inst.M, r)
	prio := randomPrio(inst.NTasks(), r)
	rel := releaseStream(inst.NTasks(), inst.K(), r)
	ws := NewWorkspace()
	dst := &Schedule{}
	wsObs := NewWorkspace()
	wsObs.SetObserver(obs.New())
	dstObs := &Schedule{}

	cases := []struct {
		name string
		run  func() error
	}{
		{"ListScheduleInto", func() error { return ListScheduleInto(ws, dst, inst, assign, prio, rel) }},
		{"ListScheduleInto/nilPrioRelease", func() error { return ListScheduleInto(ws, dst, inst, assign, nil, nil) }},
		{"CommScheduleInto", func() error { return CommScheduleInto(ws, dst, inst, assign, prio, 4) }},
		{"ListScheduleResidualInto", func() error { return ListScheduleResidualInto(ws, dst, inst, assign, prio, nil) }},
		{"ListScheduleInto/observed", func() error { return ListScheduleInto(wsObs, dstObs, inst, assign, prio, rel) }},
		{"CommScheduleInto/observed", func() error { return CommScheduleInto(wsObs, dstObs, inst, assign, prio, 4) }},
		{"ListScheduleResidualInto/observed", func() error { return ListScheduleResidualInto(wsObs, dstObs, inst, assign, prio, nil) }},
		{"GreedyScheduleInto/observed", func() error {
			_, err := GreedyScheduleInto(wsObs, wsObs.Int32Buf(inst.NTasks()), inst, prio)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm up: size the workspace, destination and calendar ring.
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				err = tc.run()
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("%v allocs/op on a warm workspace, want 0", allocs)
			}
		})
	}
}

// TestEnginesTakeTurnsZeroAllocs: the three list engines share one ready
// set, so one workspace's bitmaps, partition offsets and nodes are laid
// out for one partition (greedy), then for m (the unit core, the weighted
// core), round after round. From the second round on none of them may
// allocate — a ready set sized for whichever partitioning came first
// would regrow on every turn. Each run is counted on its own, with the
// other engines' runs between it and its last (testing.AllocsPerRun
// would warm it up with a run of its own first).
func TestEnginesTakeTurnsZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	inst := testInstance(t, 4, 8, 13, 11)
	r := rng.New(17)
	nt := inst.NTasks()
	prio := randomPrio(nt, r)
	weights := randomWeights(inst.N(), r, 9)
	speeds, groups := make([]int32, inst.M), make([]int32, inst.M)
	for p := range speeds {
		speeds[p], groups[p] = int32(p%3)+1, int32(p%2)
	}
	model := &MachineModel{Speeds: speeds, Group: groups, IntraDelay: 1, CrossDelay: 3}
	assign := RandomAssignment(inst.N(), inst.M, r)
	ws := NewWorkspace()
	level := make([]int32, nt)
	unit, weighted := &Schedule{}, &WeightedSchedule{}
	engines := []struct {
		name string
		run  func() error
	}{
		{"greedy", func() error { _, err := GreedyScheduleInto(ws, level, inst, prio); return err }},
		{"unit core", func() error { return CommScheduleInto(ws, unit, inst, assign, prio, 2) }},
		{"weighted core", func() error { return ListScheduleWeightedInto(ws, weighted, inst, assign, prio, weights, model) }},
	}
	var before, after runtime.MemStats
	for round := 0; round < 4; round++ {
		for _, e := range engines {
			runtime.ReadMemStats(&before)
			err := e.run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, e.name, err)
			}
			if allocs := after.Mallocs - before.Mallocs; round > 0 && allocs != 0 {
				t.Errorf("round %d: the %s allocated %d times on a workspace the other engines had used since its last run", round, e.name, allocs)
			}
		}
	}
}

// ShuffledMesh is msh with its tetrahedra renumbered in a seeded random
// order through mesh.FromTets: the same geometry with the arbitrary
// numbering a real mesher gives, where the generators number cells
// spatially. Exported for the external test package.
func ShuffledMesh(msh *mesh.Mesh, seed uint64) *mesh.Mesh {
	cells := slices.Clone(msh.Cells)
	r := rng.New(seed)
	for i := len(cells) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		cells[i], cells[j] = cells[j], cells[i]
	}
	return mesh.FromTets(msh.Name, msh.Verts, cells)
}

// TestTaskGraphSlotOrder holds the task graph to its layout, on a box as
// generated and the same box renumbered at random: slot is a bijection
// onto the task ids' range, each direction's block of slots is its DAG's
// TopoOrder, every task's successors are its DAG successors' slots, each
// a later slot of the same block, and on the renumbered box the metrics
// the step core counts on its walk of the slots are Measure's.
func TestTaskGraphSlotOrder(t *testing.T) {
	box := mesh.KuhnBox(mesh.BoxSpec{NX: 4, NY: 4, NZ: 4, Jitter: 0.15, Seed: 3})
	dirs, err := quadrature.Octant(8)
	if err != nil {
		t.Fatal(err)
	}
	for name, msh := range map[string]*mesh.Mesh{"as generated": box, "shuffled": ShuffledMesh(box, 5)} {
		inst, err := NewInstance(msh, dirs, 5)
		if err != nil {
			t.Fatal(err)
		}
		g, err := inst.taskGraph()
		if err != nil {
			t.Fatal(err)
		}
		n, nt := inst.N(), inst.NTasks()
		taken := make([]bool, nt)
		for tt, s := range g.slot {
			if s < 0 || int(s) >= nt || taken[s] {
				t.Fatalf("%s: task %d has slot %d, out of range or taken", name, tt, s)
			}
			taken[s] = true
		}
		for i, d := range inst.DAGs {
			lo, hi := int32(i*n), int32((i+1)*n)
			if !slices.Equal(g.order[i], d.TopoOrder()) {
				t.Fatalf("%s: direction %d's order is not its TopoOrder", name, i)
			}
			for j, v := range d.TopoOrder() {
				if s := g.slot[int(lo)+int(v)]; s != lo+int32(j) {
					t.Fatalf("%s: direction %d cell %d (topological position %d) has slot %d, want %d", name, i, v, j, s, int(lo)+j)
				}
			}
			for v := range int32(n) {
				s := g.slot[lo+v]
				got := g.succ[g.off[s]:g.off[s+1]]
				var want []int32
				for _, w := range d.Out(v) {
					want = append(want, g.slot[lo+w])
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: slot %d (direction %d cell %d) has successors %v, want %v", name, s, i, v, got, want)
				}
				for _, sw := range got {
					if sw <= s || sw >= hi {
						t.Fatalf("%s: edge from slot %d to %d leaves [%d, %d) or points back", name, s, sw, s+1, hi)
					}
				}
			}
		}
		if g.off[nt] != int32(len(g.succ)) {
			t.Fatalf("%s: offsets end at %d of %d successors", name, g.off[nt], len(g.succ))
		}
		ws, dst := NewWorkspace(), &Schedule{}
		r := rng.New(9)
		if err := ListScheduleInto(ws, dst, inst, RandomAssignment(n, inst.M, r), levelPrio(inst, r), nil); err != nil {
			t.Fatal(err)
		}
		if got, ok := ws.Metrics(); !ok || got != Measure(dst, 1) {
			t.Fatalf("%s: step core counted %+v (ok %v), Measure %+v", name, got, ok, Measure(dst, 1))
		}
	}
}

// BenchWarm is the loop of the benchmarks that hold a kernel to its
// zero-allocation contract: one run to grow the workspace, then b.N timed
// runs that fail the benchmark if they allocate at all. Exported for the
// external test package's benchmarks.
func BenchWarm(b *testing.B, run func()) {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	// MemStats counts every goroutine's allocations, a profiler's included.
	profiled := flag.Lookup("test.cpuprofile").Value.String() != "" || flag.Lookup("test.memprofile").Value.String() != ""
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 && !profiled {
		b.Fatalf("%d allocations in %d runs on a warm workspace, want 0", allocs, b.N)
	}
}

// TestWorkspacePoolRoundTrip checks GetWorkspace returns shape-warm
// workspaces after Release and that pooled reuse still yields correct
// schedules.
func TestWorkspacePoolRoundTrip(t *testing.T) {
	inst := randomDAGInstance(t, 60, 3, 4, 40)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(8))
	want, err := into(ListScheduleInto, inst, assign, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		ws := GetWorkspace(inst)
		dst := &Schedule{}
		if err := ListScheduleInto(ws, dst, inst, assign, nil, nil); err != nil {
			t.Fatal(err)
		}
		for tt := range want.Start {
			if dst.Start[tt] != want.Start[tt] {
				t.Fatalf("round %d: task %d starts at %d, reference %d", round, tt, dst.Start[tt], want.Start[tt])
			}
		}
		ws.Release()
	}
}

// TestWorkspaceScratchBuffers checks the caller-facing scratch getters
// resize correctly and are distinct from the kernel's zero-priority
// backing.
func TestWorkspaceScratchBuffers(t *testing.T) {
	ws := NewWorkspace()
	p := ws.PrioBuf(10)
	if len(p) != 10 {
		t.Fatalf("PrioBuf length %d", len(p))
	}
	for i := range p {
		p[i] = 99
	}
	b := ws.Int32Buf(20)
	if len(b) != 20 {
		t.Fatalf("Int32Buf length %d", len(b))
	}
	// A nil-priority schedule after dirtying PrioBuf must still see all
	// zero priorities (zeroPrio is a separate buffer).
	inst := randomDAGInstance(t, 30, 2, 2, 50)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(1))
	want, err := into(ListScheduleInto, inst, assign, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := &Schedule{}
	if err := ListScheduleInto(ws, dst, inst, assign, nil, nil); err != nil {
		t.Fatal(err)
	}
	for tt := range want.Start {
		if dst.Start[tt] != want.Start[tt] {
			t.Fatalf("task %d starts at %d, reference %d", tt, dst.Start[tt], want.Start[tt])
		}
	}
}

// TestConcurrentFirstPlansShareOneTaskGraph: the first plans of a fresh
// instance may come from several goroutines at once (sweepschedd plans a
// cached family from every request that hits it). They must build the
// task graph once between them and produce the one schedule; run under
// -race this is also the check that nothing writes the graph after.
func TestConcurrentFirstPlansShareOneTaskGraph(t *testing.T) {
	inst := testInstance(t, 4, 8, 6, 31)
	r := rng.New(5)
	assign := RandomAssignment(inst.N(), inst.M, r)
	prio := randomPrio(inst.NTasks(), r)
	const planners = 8
	var (
		wg     sync.WaitGroup
		gate   = make(chan struct{})
		starts [planners][]int32
		graphs [planners]*int32
		errs   [planners]error
	)
	for g := range planners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := GetWorkspace(inst)
			defer ws.Release()
			dst := &Schedule{}
			<-gate
			errs[g] = ListScheduleInto(ws, dst, inst, assign, prio, nil)
			tg, _ := inst.taskGraph()
			starts[g], graphs[g] = dst.Start, &tg.succ[0]
		}()
	}
	close(gate)
	wg.Wait()
	for g := range planners {
		if errs[g] != nil {
			t.Fatalf("planner %d: %v", g, errs[g])
		}
		if graphs[g] != graphs[0] {
			t.Fatalf("planner %d read a task graph of its own", g)
		}
		if !slices.Equal(starts[g], starts[0]) {
			t.Fatalf("planner %d scheduled differently from planner 0", g)
		}
	}
}

// rankOnly runs the list engines' prelude on q for nt tasks with
// priorities prio, task t on processor assign[t mod len(assign)] of m, and
// files none of them: the tasks are all marked done over edge-free DAGs,
// so load ranks every task and pushes none. An edge-free DAG's TopoOrder
// is the identity, so every task's slot is its id. nt need not be a
// multiple of the cell count. It returns the path load took.
func rankOnly(t testing.TB, q *rankq, prio Priorities, nt, m int, assign Assignment) rankPath {
	t.Helper()
	n := len(assign)
	d, err := dag.FromEdges(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	dags := make([]*dag.DAG, (nt+n-1)/n)
	g := &taskGraph{off: make([]int32, nt+1), slot: make([]int32, nt), order: make([][]int32, len(dags))}
	for i := range dags {
		dags[i], g.order[i] = d, d.TopoOrder()
	}
	done := make([]bool, nt)
	for i := range done {
		g.slot[i], done[i] = int32(i), true
	}
	if left := q.load(prelude{prio: prio, nt: nt, m: m, n: int32(n), assign: assign, dags: dags, g: g, done: done}); left != 0 {
		t.Fatalf("%d of %d done tasks left to schedule", left, nt)
	}
	_, spread := prioRange(prio)
	return rankPathFor(spread, nt, m)
}

// checkRanks holds q's layout to a sort: each processor's slot of order
// holds exactly its tasks in (prio, id) order, every task's rank is its
// position there, and the slots cover all nt tasks.
func checkRanks(t testing.TB, q *rankq, prio Priorities, nt, m int, assign Assignment) {
	t.Helper()
	n := int32(len(assign))
	if got := int(q.procs[m].tasks); got != nt {
		t.Fatalf("partition covers %d of %d tasks", got, nt)
	}
	for p := 0; p < m; p++ {
		var want []TaskID
		for tt := TaskID(0); tt < TaskID(nt); tt++ {
			if assign[int32(tt)%n] == int32(p) {
				want = append(want, tt)
			}
		}
		slices.SortFunc(want, func(a, b TaskID) int {
			if c := cmp.Compare(prio[a], prio[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		got := q.order[q.procs[p].tasks:q.procs[p+1].tasks]
		if len(got) != len(want) {
			t.Fatalf("proc %d: %d tasks in partition, want %d", p, len(got), len(want))
		}
		for i := range want {
			if TaskID(got[i]) != want[i] {
				t.Fatalf("proc %d rank %d: task %d (prio %d), want %d (prio %d)", p, i, got[i], prio[got[i]], want[i], prio[want[i]])
			}
			if q.node[want[i]].rank != int32(i) {
				t.Fatalf("proc %d: task %d has rank %d, want %d", p, want[i], q.node[want[i]].rank, i)
			}
		}
	}
}

// TestSortAndPartitionOrder: load ranks the tasks in (prio, id) order per
// processor whatever the priorities' spread, on each side of both
// thresholds — the counting pass (all equal, spread 1, its exact bucket
// limit, negative offsets, a ragged nt) and the radix sort (one bucket
// past the limit, one 12-bit digit, a spread across it, 2²⁵, and the
// extremes of int64, a spread that packs beside no id) — each against
// slices.SortFunc, and each on the path its spread selects.
func TestSortAndPartitionOrder(t *testing.T) {
	r := rng.New(7331)
	spreadOf := func(nkeys int, spread uint64, base int64) Priorities {
		prio := make(Priorities, nkeys)
		for i := range prio {
			prio[i] = base + int64(r.Uint64()%(spread+1))
		}
		prio[0], prio[nkeys-1] = base, base+int64(spread) // the spread is attained
		return prio
	}
	cases := []struct {
		name     string
		n, nt, m int
		prio     func(nkeys int) Priorities
		path     rankPath
	}{
		{name: "all equal: no pass", n: 50, nt: 300, m: 4, prio: func(nk int) Priorities { return make(Priorities, nk) }, path: countPath},
		{name: "spread 1", n: 50, nt: 300, m: 4, prio: func(nk int) Priorities { return spreadOf(nk, 1, 0) }, path: countPath},
		{name: "spread 74: buckets fill the tasks", n: 50, nt: 300, m: 4, prio: func(nk int) Priorities { return spreadOf(nk, 74, 3) }, path: countPath},
		{name: "spread 75: one bucket row past the tasks", n: 50, nt: 300, m: 4, prio: func(nk int) Priorities { return spreadOf(nk, 75, 3) }, path: radixPath},
		{name: "spread 4095: one full digit", n: 64, nt: 8192, m: 5, prio: func(nk int) Priorities { return spreadOf(nk, 4095, 0) }, path: radixPath},
		{name: "spread 4096: into the second digit", n: 64, nt: 8192, m: 5, prio: func(nk int) Priorities { return spreadOf(nk, 4096, 0) }, path: radixPath},
		{name: "spread 2^25: three digits", n: 64, nt: 8192, m: 5, prio: func(nk int) Priorities { return spreadOf(nk, 1<<25, 17) }, path: radixPath},
		{name: "negative priorities", n: 50, nt: 300, m: 4, prio: func(nk int) Priorities { return spreadOf(nk, 70, -35) }, path: countPath},
		{name: "negative priorities, radix", n: 50, nt: 300, m: 4, prio: func(nk int) Priorities { return spreadOf(nk, 700, -350) }, path: radixPath},
		{name: "extremes of int64: comparison fallback", n: 50, nt: 300, m: 4, prio: func(nk int) Priorities {
			prio := spreadOf(nk, 1000, 0)
			for i := range prio {
				if i%2 == 0 {
					prio[i] += math.MinInt64 / 2
				} else {
					prio[i] += math.MaxInt64 / 2
				}
			}
			return prio
		}, path: radixPath},
		{name: "one task", n: 1, nt: 1, m: 1, prio: func(nk int) Priorities { return Priorities{-9} }, path: countPath},
		{name: "ragged nt", n: 7, nt: 7*3 + 4, m: 3, prio: func(nk int) Priorities { return spreadOf(nk, 5, 0) }, path: countPath},
		{name: "ragged nt, radix", n: 7, nt: 7*3 + 4, m: 3, prio: func(nk int) Priorities { return spreadOf(nk, 8, 0) }, path: radixPath},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prio := tc.prio(tc.nt)
			assign := RandomAssignment(tc.n, tc.m, r)
			var q rankq
			if path := rankOnly(t, &q, prio, tc.nt, tc.m, assign); path != tc.path {
				t.Fatalf("ranked on path %d, want %d", path, tc.path)
			}
			checkRanks(t, &q, prio, tc.nt, tc.m, assign)
		})
	}
}

// TestRankqRaggedTaskCount exercises load on task counts that are not an
// exact multiple of the cell count (a trailing partial direction), on
// the counting pass, the radix sort and the radix sort of the full int64
// range in turn.
// The per-processor counts must come from the actual task→cell mapping:
// the old cells-times-k shortcut truncated nt/n and mis-sized every
// partition offset after the first affected processor.
func TestRankqRaggedTaskCount(t *testing.T) {
	r := rng.New(9091)
	for round := 0; round < 30; round++ {
		n := 2 + r.Intn(40)
		m := 1 + r.Intn(6)
		// nt deliberately not a multiple of n (and sometimes < n).
		nt := 2 + r.Intn(3*n)
		if nt%n == 0 {
			nt++
		}
		var prio Priorities
		want := radixPath
		switch round % 3 {
		case 0:
			prio = make(Priorities, nt)
			for tt := range prio {
				prio[tt] = int64(r.Intn(max(1, nt/m)))
			}
			if nt >= m { // else a bucket per processor is already more than the tasks
				want = countPath
			}
		case 1:
			prio = randomPrio(nt, r)
			prio[0] = int64(nt) + prio[1] // past the counting pass's buckets
		case 2:
			prio = randomPrio(nt, r)
			prio[0] = math.MinInt64
			prio[nt-1] = math.MaxInt64
		}
		assign := RandomAssignment(n, m, r)
		procOf := func(tt TaskID) int32 { return assign[int32(tt)%int32(n)] }

		var q rankq
		if path := rankOnly(t, &q, prio, nt, m, assign); path != want {
			t.Fatalf("round %d (n=%d nt=%d m=%d): ranked on path %d, want %d", round, n, nt, m, path, want)
		}
		checkRanks(t, &q, prio, nt, m, assign)

		// The ready set must still pop in (prio, id) order per processor.
		ref := make([]refTaskHeap, m)
		for p := range ref {
			ref[p].prio = prio
		}
		for tt := TaskID(0); tt < TaskID(nt); tt++ {
			p := procOf(tt)
			q.push(p, q.node[tt].rank)
			heap.Push(&ref[p], tt)
		}
		for p := int32(0); p < int32(m); p++ {
			for ref[p].Len() > 0 {
				if got, want := TaskID(q.pop(p)), heap.Pop(&ref[p]).(TaskID); got != want {
					t.Fatalf("round %d proc %d: popped %d, reference %d", round, p, got, want)
				}
			}
			if q.procs[p].count != 0 {
				t.Fatalf("round %d proc %d: count %d after drain", round, p, q.procs[p].count)
			}
		}
	}
}

// TestRankqRadixFallbackBoundary ranks the spreads on either side of
// what once packed beside a task id in 64 bits: math.MaxUint64>>(idBits+1)
// and one more. Both take the radix path and must produce the identical
// (prio, id) partition order.
func TestRankqRadixFallbackBoundary(t *testing.T) {
	const n, k, m = 2, 2, 2
	nt := n * k // idBits = bits.Len64(3) = 2
	idBits := uint(2)
	atLimit := int64(uint64(math.MaxUint64) >> (idBits + 1)) // fits: spread<<idBits has headroom
	assign := Assignment{0, 1}
	for name, tc := range map[string]struct {
		spread int64
		path   rankPath
	}{"atThreshold": {atLimit, radixPath}, "pastThreshold": {atLimit + 1, radixPath}} {
		t.Run(name, func(t *testing.T) {
			prio := Priorities{0, tc.spread, tc.spread, 0}
			var q rankq
			if path := rankOnly(t, &q, prio, nt, m, assign); path != tc.path {
				t.Fatalf("ranked on path %d, want %d", path, tc.path)
			}
			checkRanks(t, &q, prio, nt, m, assign)
		})
	}
}

// TestCalendarPushAtHorizonLimit pushes tasks due exactly horizon steps
// ahead of the drain point — the furthest the prepare contract allows —
// and checks they surface at the right step with no bucket collision.
func TestCalendarPushAtHorizonLimit(t *testing.T) {
	for _, horizon := range []int32{1, 7, 8, 63} {
		var cal calendar
		cal.prepare(horizon, 1<<20)
		next := int32(0)
		seen := map[int32]int32{}
		steps := 4 * horizon
		for now := int32(0); now <= steps; now++ {
			for _, tt := range cal.drain(now) {
				if want, ok := seen[tt]; !ok || want != now {
					t.Fatalf("horizon %d: task %d drained at %d, due %d", horizon, tt, now, want)
				}
				delete(seen, tt)
			}
			if now < steps-horizon {
				// Push exactly at the limit: due = now + horizon, while the
				// bucket for `now` was just recycled.
				cal.push(next, now+horizon)
				seen[next] = now + horizon
				next++
			}
		}
		if len(seen) != 0 || cal.pending != 0 {
			t.Fatalf("horizon %d: %d tasks undrained, pending %d", horizon, len(seen), cal.pending)
		}
	}
}

// TestCalendarRingBoundedByTasks: the release calendar holds at most one
// entry per task, so its ring is sized by the task count however far ahead
// an accepted release or communication delay reaches — at a bucket per
// step of horizon the first run below asks for 24 GB and the second leaves
// a 2²¹-bucket ring in its workspace — and the step loop jumps over the
// steps in which nothing can run.
func TestCalendarRingBoundedByTasks(t *testing.T) {
	const budget = 1 << 20
	allocated := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	pair := chainInstance(t, 2, 1)
	var s *Schedule
	var err error
	got := allocated(func() {
		s, err = into(ListScheduleInto, pair, Assignment{0, 0}, nil, []int32{1 << 30, 0})
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] != 1<<30 || s.Start[1] != 1<<30+1 || s.Makespan != 1<<30+2 {
		t.Fatalf("start %v, makespan %d", s.Start, s.Makespan)
	}
	if got > budget {
		t.Fatalf("two tasks released at 2³⁰ allocated %d bytes (budget %d)", got, budget)
	}

	const commDelay = 1 << 20
	chain := chainInstance(t, 30, 2)
	assign := make(Assignment, 30)
	for v := range assign {
		assign[v] = int32(v % 2) // every edge crosses
	}
	ws := NewWorkspace()
	got = allocated(func() { err = CommScheduleInto(ws, s, chain, assign, nil, commDelay) })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ValidateComm(s, commDelay); err != nil {
		t.Fatal(err)
	}
	if want := 29*(commDelay+1) + 1; s.Makespan != want {
		t.Fatalf("makespan %d, want %d", s.Makespan, want)
	}
	if got > budget {
		t.Fatalf("a 30-task run under comm delay 2²⁰ left a workspace of %d bytes (budget %d)", got, budget)
	}
}
