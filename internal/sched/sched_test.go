package sched

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
)

func testInstance(t testing.TB, nx, k, m int, seed uint64) *Instance {
	t.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: nx, NY: nx, NZ: nx, Jitter: 0.15, Seed: seed})
	dirs, err := quadrature.Octant(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(msh, dirs, m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// into runs the step core under rule into a fresh schedule on a pooled
// workspace.
func into(inst *Instance, assign Assignment, rule Rule) (*Schedule, error) {
	ws := GetWorkspace(inst)
	defer ws.Release()
	dst := &Schedule{}
	if err := ws.Schedule(dst, inst, assign, rule); err != nil {
		return nil, err
	}
	return dst, nil
}

func TestNewInstanceErrors(t *testing.T) {
	msh := mesh.RegularHex(2, 2, 2)
	dirs, _ := quadrature.Octant(4)
	if _, err := NewInstance(msh, dirs, 0); err == nil {
		t.Fatal("m=0 did not error")
	}
	if _, err := NewInstance(msh, nil, 4); err == nil {
		t.Fatal("no directions did not error")
	}
}

func TestTaskSplitRoundTrip(t *testing.T) {
	inst := testInstance(t, 2, 8, 4, 1)
	n, k := int32(inst.N()), int32(inst.K())
	for i := int32(0); i < k; i++ {
		for v := int32(0); v < n; v += 7 {
			tid := inst.Task(v, i)
			gv, gi := inst.Split(tid)
			if gv != v || gi != i {
				t.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", v, i, tid, gv, gi)
			}
		}
	}
}

func TestRandomAssignmentRange(t *testing.T) {
	r := rng.New(1)
	a := RandomAssignment(1000, 7, r)
	if err := a.Validate(1000, 7); err != nil {
		t.Fatal(err)
	}
	// Roughly balanced.
	counts := make([]int, 7)
	for _, p := range a {
		counts[p]++
	}
	for p, c := range counts {
		if c < 80 || c > 220 {
			t.Fatalf("processor %d got %d of 1000 cells", p, c)
		}
	}
}

func TestBlockAssignmentConstantOnBlocks(t *testing.T) {
	part := []int32{0, 0, 1, 1, 2, 2}
	a := BlockAssignment(part, 3, 4, rng.New(2))
	if err := a.Validate(6, 4); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v += 2 {
		if a[v] != a[v+1] {
			t.Fatalf("cells %d,%d in one block on procs %d,%d", v, v+1, a[v], a[v+1])
		}
	}
}

func TestAssignmentValidate(t *testing.T) {
	if err := (Assignment{0, 1}).Validate(3, 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	if err := (Assignment{0, 5}).Validate(2, 2); err == nil {
		t.Fatal("out-of-range processor accepted")
	}
}

func TestListScheduleSingleProcessorSerial(t *testing.T) {
	inst := testInstance(t, 2, 4, 1, 3)
	assign := make(Assignment, inst.N())
	s, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan != inst.NTasks() {
		t.Fatalf("1-processor makespan %d != nk %d", s.Makespan, inst.NTasks())
	}
}

func TestListScheduleValidAndNoIdleHoles(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 4)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(5))
	s, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan < inst.NTasks()/inst.M {
		t.Fatalf("makespan %d below load bound %d", s.Makespan, inst.NTasks()/inst.M)
	}
	// List scheduling is greedy: a processor idles at step t only if no
	// assigned task was ready. Weak sanity check: total idle slots bounded
	// by m * makespan - nk.
	idle := inst.M*s.Makespan - inst.NTasks()
	if idle < 0 {
		t.Fatalf("negative idle %d", idle)
	}
}

func TestListSchedulePriorityOrderWithinProcessor(t *testing.T) {
	// Single direction chain of independent cells: 1x1xN hexes swept along
	// +x gives no edges for direction +z... use 4 independent cells: mesh of
	// isolated cells is impossible; instead use 1 direction where DAG has
	// multiple sources and one processor, and check priority order among
	// simultaneously-ready tasks.
	msh := mesh.RegularHex(4, 1, 1)
	inst, err := FromDAGs(dag.BuildAll(msh, []geom.Vec3{{Z: 1}}), 1) // all faces parallel: no edges
	if err != nil {
		t.Fatal(err)
	}
	prio := Priorities{3, 1, 2, 0}
	assign := make(Assignment, 4)
	s, err := into(inst, assign, Rule{Prio: prio})
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []int32{3, 1, 2, 0} // task 3 first (prio 0), then 1, 2, 0
	for pos, task := range wantOrder {
		if s.Start[task] != int32(pos) {
			t.Fatalf("task %d started at %d, want %d", task, s.Start[task], pos)
		}
	}
}

func TestListSchedulePriorityLengthError(t *testing.T) {
	inst := testInstance(t, 2, 4, 2, 6)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(1))
	if _, err := into(inst, assign, Rule{Prio: Priorities{1, 2, 3}}); err == nil {
		t.Fatal("bad priority length accepted")
	}
}

func TestGreedyScheduleBounds(t *testing.T) {
	inst := testInstance(t, 3, 8, 8, 7)
	level := make([]int32, inst.NTasks())
	makespan, err := GreedyScheduleInto(NewWorkspace(), level, inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Graham bound: T <= nk/m + critical path.
	crit := 0
	for _, d := range inst.DAGs {
		if d.NumLevels > crit {
			crit = d.NumLevels
		}
	}
	bound := inst.NTasks()/inst.M + crit + 1
	if makespan > bound {
		t.Fatalf("greedy makespan %d exceeds Graham bound %d", makespan, bound)
	}
	// Level function must be monotone along edges and within [1, makespan].
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			lu := level[base+u]
			if lu < 1 || int(lu) > makespan {
				t.Fatalf("level %d out of range", lu)
			}
			for _, w := range d.Out(u) {
				if level[base+w] <= lu {
					t.Fatalf("greedy level not monotone on edge")
				}
			}
		}
	}
	// At most m tasks per level.
	counts := map[int32]int{}
	for _, l := range level {
		counts[l]++
		if counts[l] > inst.M {
			t.Fatalf("level %d holds more than m=%d tasks", l, inst.M)
		}
	}
}

func TestGreedyScheduleWidthOne(t *testing.T) {
	// m=1 greedy schedule is a pure topological order: nk levels.
	inst := testInstance(t, 2, 4, 1, 8)
	makespan, err := GreedyScheduleInto(NewWorkspace(), make([]int32, inst.NTasks()), inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if makespan != inst.NTasks() {
		t.Fatalf("m=1 greedy makespan %d != %d", makespan, inst.NTasks())
	}
}

// layeredRule is the layered rule on layer: the layers and their floors.
func layeredRule(t *testing.T, ws *Workspace, inst *Instance, assign Assignment, layer Priorities) Rule {
	t.Helper()
	floor := make([]int32, inst.NTasks())
	if err := LayerFloorsInto(ws, floor, inst, assign, layer); err != nil {
		t.Fatal(err)
	}
	return Rule{Prio: layer, Release: floor, Layered: true}
}

// TestLayeredScheduleValid: the layered kernel's schedule of a layer
// function that climbs along every edge validates, is the step core's
// under the same rule, and counts Measure's metrics.
func TestLayeredScheduleValid(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 9)
	// Use per-direction levels offset by direction index * D to get a valid
	// global layer function (monotone along every DAG's edges).
	n := int32(inst.N())
	layer := make(Priorities, inst.NTasks())
	offset := int64(0)
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			layer[base+v] = offset + int64(d.Level[v])
		}
		offset += int64(d.NumLevels)
	}
	assign := RandomAssignment(inst.N(), inst.M, rng.New(10))
	ws := NewWorkspace()
	rule := layeredRule(t, ws, inst, assign, layer)
	s := &Schedule{}
	if err := ws.Schedule(s, inst, assign, rule); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if met, ok := ws.Metrics(); !ok || met != Measure(s, 1) {
		t.Fatalf("the layered kernel counted %+v (ok %v), Measure %+v", met, ok, Measure(s, 1))
	}
	core, stepCore := &Schedule{}, rule
	stepCore.Layered = false
	if err := ws.Schedule(core, inst, assign, stepCore); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(core.Start, s.Start) || core.Makespan != s.Makespan {
		t.Fatal("the step core's schedule under the layered rule differs from the layered kernel's")
	}
	rule.Release[0]++
	if err := ws.Schedule(s, inst, assign, rule); err == nil {
		t.Fatal("a floor that is not its layer's accepted")
	}
}

// TestLayeredScratchIsLinear: with far more processors than any layer
// is wide, the layered kernel's scratch is one counter per processor plus
// a few words per task, not a load per (layer, processor).
func TestLayeredScratchIsLinear(t *testing.T) {
	inst := testInstance(t, 3, 8, 1<<20, 9)
	nt := inst.NTasks()
	layer := make(Priorities, nt)
	for i, d := range inst.DAGs {
		for v, l := range d.Level {
			layer[i*inst.N()+v] = int64(l) + int64(i)
		}
	}
	assign := RandomAssignment(inst.N(), inst.M, rng.New(2))
	floor := make([]int32, nt)
	s := &Schedule{Start: make([]int32, nt)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ws := NewWorkspace()
	if err := LayerFloorsInto(ws, floor, inst, assign, layer); err != nil {
		t.Fatal(err)
	}
	if err := ws.Schedule(s, inst, assign, Rule{Prio: layer, Release: floor, Layered: true}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(4*inst.M+64*nt); got > budget {
		t.Fatalf("the layered kernel allocated %d B for %d tasks on %d processors, budget %d", got, nt, inst.M, budget)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLayeredScheduleRejectsNonMonotone(t *testing.T) {
	inst := testInstance(t, 2, 4, 2, 11)
	layer := make(Priorities, inst.NTasks())
	for i := range layer {
		layer[i] = 1 // constant layer cannot be monotone if any edge exists
	}
	assign := RandomAssignment(inst.N(), inst.M, rng.New(1))
	ws := NewWorkspace()
	if err := ws.Schedule(&Schedule{}, inst, assign, layeredRule(t, ws, inst, assign, layer)); err == nil {
		t.Fatal("constant layer function accepted")
	}
}

func TestLayeredScheduleRejectsBadLayer(t *testing.T) {
	inst := testInstance(t, 2, 4, 2, 12)
	layer := make(Priorities, inst.NTasks())
	assign := RandomAssignment(inst.N(), inst.M, rng.New(1))
	ws := NewWorkspace()
	floor := make([]int32, inst.NTasks())
	if err := LayerFloorsInto(ws, floor, inst, assign, layer); err == nil {
		t.Fatal("layer 0 accepted by the floors")
	}
	if err := ws.Schedule(&Schedule{}, inst, assign, Rule{Prio: layer, Release: floor, Layered: true}); err == nil {
		t.Fatal("layer 0 accepted")
	}
}

func TestC1CountsInterprocEdges(t *testing.T) {
	msh := mesh.RegularHex(4, 1, 1) // path of 4 cells
	inst, _ := FromDAGs(dag.BuildAll(msh, []geom.Vec3{{X: 1}}), 2)
	// Edges 0->1->2->3. Split {0,1} vs {2,3}: one crossing edge.
	if got := C1(inst, Assignment{0, 0, 1, 1}, 0); got != 1 {
		t.Fatalf("C1 = %d, want 1", got)
	}
	if got := C1(inst, Assignment{0, 1, 0, 1}, 0); got != 3 {
		t.Fatalf("C1 = %d, want 3", got)
	}
	if got := C1(inst, Assignment{0, 0, 0, 0}, 0); got != 0 {
		t.Fatalf("C1 = %d, want 0", got)
	}
}

func TestC2ChainAlternating(t *testing.T) {
	msh := mesh.RegularHex(4, 1, 1)
	inst, _ := FromDAGs(dag.BuildAll(msh, []geom.Vec3{{X: 1}}), 2)
	assign := Assignment{0, 1, 0, 1}
	s, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	// Serial chain: steps 0..3, each step sends exactly one message except
	// the last: C2 = 3.
	if got := C2(s); got != 3 {
		t.Fatalf("C2 = %d, want 3", got)
	}
	// All on one processor: no messages.
	s2, _ := into(inst, Assignment{0, 0, 0, 0}, Rule{})
	if got := C2(s2); got != 0 {
		t.Fatalf("C2 = %d, want 0", got)
	}
}

func TestC2MaxPerStepNotSum(t *testing.T) {
	// Two independent chains on two processors, both sending at the same
	// step: C2 counts the max (1), not the sum (2).
	msh := mesh.RegularHex(2, 2, 1) // cells 0,1 (y=0) and 2,3 (y=1)
	inst, _ := FromDAGs(dag.BuildAll(msh, []geom.Vec3{{X: 1}}), 4)
	// 0->1 crossing 0 to 2; 2->3 crossing 1 to 3; both sends happen at step 0.
	assign := Assignment{0, 2, 1, 3}
	s, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	if got := C2(s); got != 1 {
		t.Fatalf("C2 = %d, want 1 (max per step)", got)
	}
}

func TestMeasure(t *testing.T) {
	inst := testInstance(t, 2, 4, 4, 13)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(3))
	s, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	m := Measure(s, 0)
	if m.Makespan != s.Makespan {
		t.Fatal("Measure makespan mismatch")
	}
	if m.C1 < m.C2 {
		// C2 sums per-step maxima of a quantity whose per-step sum is <= C1,
		// but cross-check a weaker invariant: C2 <= C1 always.
		t.Fatalf("C2 %d > C1 %d", m.C2, m.C1)
	}
}

func TestScheduleValidateCatchesViolations(t *testing.T) {
	msh := mesh.RegularHex(3, 1, 1)
	inst, _ := FromDAGs(dag.BuildAll(msh, []geom.Vec3{{X: 1}}), 2)
	assign := Assignment{0, 0, 1}

	// Valid schedule first.
	ok := &Schedule{Inst: inst, Assign: assign, Start: []int32{0, 1, 2}}
	ok.computeMakespan()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}

	// Precedence violation.
	bad := &Schedule{Inst: inst, Assign: assign, Start: []int32{1, 1, 2}}
	bad.computeMakespan()
	if err := bad.Validate(); err == nil {
		t.Fatal("precedence violation accepted")
	}

	// Processor double-booking: tasks 0 and 1 both on proc 0 at step 0.
	bad2 := &Schedule{Inst: inst, Assign: Assignment{0, 0, 0}, Start: []int32{0, 0, 1}}
	bad2.computeMakespan()
	if err := bad2.Validate(); err == nil {
		t.Fatal("double booking accepted")
	}

	// Unscheduled task.
	bad3 := &Schedule{Inst: inst, Assign: assign, Start: []int32{0, 1, -1}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("unscheduled task accepted")
	}
}

func TestQuickListScheduleAlwaysValid(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw%16) + 1
		msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.2, Seed: seed})
		dirs, _ := quadrature.Octant(4)
		inst, err := NewInstance(msh, dirs, m)
		if err != nil {
			return false
		}
		assign := RandomAssignment(inst.N(), m, rng.New(seed^0xabc))
		s, err := into(inst, assign, Rule{})
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkListSchedule(b *testing.B) {
	inst := testInstance(b, 6, 24, 32, 1)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := into(inst, assign, Rule{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedySchedule is the L′ preprocessing on a warm workspace and a
// recycled level slice, as core.GreedyLevelPrioritiesInto runs it.
func BenchmarkGreedySchedule(b *testing.B) {
	inst := testInstance(b, 6, 24, 32, 1)
	ws := NewWorkspace()
	level := make([]int32, inst.NTasks())
	BenchWarm(b, func() {
		if _, err := GreedyScheduleInto(ws, level, inst, nil); err != nil {
			b.Fatal(err)
		}
	})
}
