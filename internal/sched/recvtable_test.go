package sched_test

import (
	"slices"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/faults"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/synth"
)

// checkRecvTable holds the table to what the executors trust it for:
// positions are the execution order given, then every other task in
// TaskID order, each with its task's processor; every cross edge exactly once on its producer's out side,
// in the DAG's Out order, naming the slot its consumer's in-side entry
// names; every local edge read at its producer's task id; slots dense, one
// per (producer, destination) pair.
func checkRecvTable(t *testing.T, r *sched.RecvTable, inst *sched.Instance, assign sched.Assignment, order []sched.TaskID) int {
	t.Helper()
	var pos []sched.TaskID
	for i := range int32(inst.NTasks()) {
		tsk, p, _ := r.At(i)
		if r.Pos(tsk) != i {
			t.Fatalf("position %d holds task %d, which Pos puts at %d", i, tsk, r.Pos(tsk))
		}
		if v, _ := inst.Split(tsk); p != assign[v] {
			t.Fatalf("position %d holds task %d of processor %d, not %d", i, tsk, assign[v], p)
		}
		pos = append(pos, tsk)
	}
	if !slices.Equal(pos[:len(order)], order) || !slices.IsSorted(pos[len(order):]) {
		t.Fatalf("positions are not the execution order given, then the other tasks ascending")
	}
	type pair struct {
		t  sched.TaskID
		to int32
	}
	n := int32(inst.N())
	slotOf := map[pair]int32{}
	owner := map[int32]sched.TaskID{}
	for i, d := range inst.DAGs {
		base := sched.TaskID(int32(i) * n)
		for u := int32(0); u < n; u++ {
			tsk := base + sched.TaskID(u)
			out := r.Out(r.Pos(tsk))
			j := 0
			for _, w := range d.Out(u) {
				if assign[w] == assign[u] {
					continue
				}
				if j == len(out) {
					t.Fatalf("task %d: cross edge to cell %d missing from the out side", tsk, w)
				}
				e := out[j]
				j++
				if e.To != assign[w] || e.Consumer != base+sched.TaskID(w) {
					t.Fatalf("task %d: out entry %d is %+v, edge goes to task %d on processor %d", tsk, j-1, e, base+sched.TaskID(w), assign[w])
				}
				c := pair{tsk, e.To}
				if s, seen := slotOf[c]; seen && s != e.Slot {
					t.Fatalf("(%d -> %d) arrives in slots %d and %d", c.t, c.to, s, e.Slot)
				} else if !seen {
					if _, taken := owner[e.Slot]; taken {
						t.Fatalf("slot %d serves (%d -> %d) and another destination", e.Slot, c.t, c.to)
					}
					owner[e.Slot], slotOf[c] = tsk, e.Slot
				}
			}
			if j != len(out) {
				t.Fatalf("task %d: %d out entries for %d cross edges", tsk, len(out), j)
			}
		}
	}
	for s := range int32(len(owner)) {
		if tsk, ok := owner[s]; !ok || r.Producer(s) != tsk {
			t.Fatalf("%d (producer, destination) pairs, but slot %d is not one of them or not its producer's", len(owner), s)
		}
	}
	for i, d := range inst.DAGs {
		base := sched.TaskID(int32(i) * n)
		for v := int32(0); v < n; v++ {
			_, _, in := r.At(r.Pos(base + sched.TaskID(v)))
			if len(in) != d.InDegree(v) {
				t.Fatalf("task %d: %d in entries for %d upwind edges", base+sched.TaskID(v), len(in), d.InDegree(v))
			}
			for j, u := range d.In(v) {
				ut := base + sched.TaskID(u)
				want := int32(ut)
				if assign[u] != assign[v] {
					want = ^slotOf[pair{ut, assign[v]}]
				}
				if in[j] != want {
					t.Fatalf("edge %d -> %d: in entry %d, want %d", ut, base+sched.TaskID(v), in[j], want)
				}
			}
		}
	}
	return len(owner)
}

// randomFamily draws a DAG family with no geometry behind it: random
// layers, random chains, or an arbitrary edge list (repeated edges and
// broken cycles included).
func randomFamily(t *testing.T, r *rng.Source, seed uint64) []*dag.DAG {
	t.Helper()
	n, k := 8+r.Intn(120), 1+r.Intn(4)
	var dags []*dag.DAG
	var err error
	switch seed % 3 {
	case 0:
		dags, err = synth.LayeredRandom(n, k, 1+r.Intn(8), seed)
	case 1:
		dags, err = synth.RandomChains(n, k, seed)
	default:
		dags = make([]*dag.DAG, k)
		for i := range dags {
			edges := make([][2]int32, 3*n)
			for j := range edges {
				u := int32(r.Intn(n))
				edges[j] = [2]int32{u, (u + 1 + int32(r.Intn(n-1))) % int32(n)}
			}
			if dags[i], err = dag.FromEdges(n, edges); err != nil {
				break
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return dags
}

// TestRecvTableRoutesEveryEdgeOnce is the property every in-process
// executor rests on, on 200 seeded instances — random DAG families and
// the four mesh families — and again once a recovery has moved a dead
// processor's cells.
func TestRecvTableRoutesEveryEdgeOnce(t *testing.T) {
	dirs, err := quadrature.Octant(4)
	if err != nil {
		t.Fatal(err)
	}
	var meshes [][]*dag.DAG
	for _, name := range mesh.FamilyNames() {
		msh, err := mesh.Family(name, 0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, dag.BuildAll(msh, dirs))
	}
	var tab sched.RecvTable // one table rebuilt throughout: Build must fully reset it
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		m := []int{1, 2, 7, 32}[seed%4]
		dags := meshes[seed/4%4]
		if seed%8 >= 4 {
			dags = randomFamily(t, r, seed)
		}
		inst, err := sched.FromDAGs(dags, m)
		if err != nil {
			t.Fatal(err)
		}
		assign := sched.RandomAssignment(inst.N(), m, r)
		tab.Build(inst, assign, nil)
		if slots := checkRecvTable(t, &tab, inst, assign, nil); m == 1 && slots != 0 {
			t.Fatalf("seed %d: one processor, yet %d slots", seed, slots)
		}
		if m == 1 {
			continue
		}
		s := &sched.Schedule{}
		if err := sched.ListScheduleInto(sched.NewWorkspace(), s, inst, assign, nil, nil); err != nil {
			t.Fatal(err)
		}
		// In a sweep's execution order, and in a residual epoch's: the
		// tasks not yet done, then the durable rest.
		var steps sched.StepTable
		if err := steps.Build(s, nil, nil); err != nil {
			t.Fatal(err)
		}
		tab.Build(inst, assign, &steps)
		checkRecvTable(t, &tab, inst, assign, steps.Order())
		done := make([]bool, inst.NTasks())
		for tsk := range done {
			done[tsk] = r.Intn(3) == 0
		}
		if err := steps.Build(s, nil, done); err != nil {
			t.Fatal(err)
		}
		tab.Build(inst, assign, &steps)
		checkRecvTable(t, &tab, inst, assign, steps.Order())
		rec, err := faults.NewRecovery(s)
		if err != nil {
			t.Fatal(err)
		}
		rec.Kill([]int32{int32(r.Intn(m))}, make([]bool, inst.NTasks()))
		tab.Build(inst, rec.Assign(), nil)
		checkRecvTable(t, &tab, inst, rec.Assign(), nil)
	}
}

// sweepShapeInstance is the benchmark's sweep-goroutine shape: tetonly at
// scale 0.05, k=24 directions, m=8 processors.
func sweepShapeInstance(tb testing.TB) *sched.Instance {
	tb.Helper()
	msh, err := mesh.Family("tetonly", 0.05, 1)
	if err != nil {
		tb.Fatal(err)
	}
	dirs, err := quadrature.Octant(24)
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// BenchmarkRecvTableBuild is what every solve pays once and every
// recovery once more: resolving the routes of a per-cell random
// assignment at the sweep-goroutine shape, laid out in its schedule's
// execution order, into a table already sized.
func BenchmarkRecvTableBuild(b *testing.B) {
	inst := sweepShapeInstance(b)
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(1))
	s := &sched.Schedule{}
	if err := sched.ListScheduleInto(sched.NewWorkspace(), s, inst, assign, nil, nil); err != nil {
		b.Fatal(err)
	}
	var steps sched.StepTable
	if err := steps.Build(s, nil, nil); err != nil {
		b.Fatal(err)
	}
	var r sched.RecvTable
	r.Build(inst, assign, &steps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Build(inst, assign, &steps)
	}
}
