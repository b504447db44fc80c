package heuristics

import (
	"testing"
	"testing/quick"

	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

func testInstance(t testing.TB, nx, k, m int, seed uint64) *sched.Instance {
	t.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: nx, NY: nx, NZ: nx, Jitter: 0.15, Seed: seed})
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

func TestLevelPrioritiesMatchDAGLevels(t *testing.T) {
	inst := testInstance(t, 2, 4, 2, 1)
	prio := LevelPriorities(inst, 0)
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			if prio[base+v] != int64(d.Level[v]) {
				t.Fatalf("dir %d cell %d: prio %d != level %d", i, v, prio[base+v], d.Level[v])
			}
		}
	}
}

func TestDescendantPrioritiesOrdering(t *testing.T) {
	// Chain 0->1->2->3: descendants 3,2,1,0; priorities (negated) must be
	// strictly increasing along the chain.
	msh := mesh.RegularHex(4, 1, 1)
	d := dag.Build(msh, geom.Vec3{X: 1})
	inst, _ := sched.FromDAGs([]*dag.DAG{d}, 2)
	prio := DescendantPriorities(inst, 0)
	for v := 0; v < 3; v++ {
		if prio[v] >= prio[v+1] {
			t.Fatalf("descendant priorities not decreasing along chain: %v", prio[:4])
		}
	}
	if prio[3] != 0 {
		t.Fatalf("sink priority %d, want 0", prio[3])
	}
	if prio[0] != -3 {
		t.Fatalf("source priority %d, want -3", prio[0])
	}
}

func TestDFDSPrioritiesStructure(t *testing.T) {
	// Chain 0->1->2->3 split across processors {0,0,1,1}.
	msh := mesh.RegularHex(4, 1, 1)
	d := dag.Build(msh, geom.Vec3{X: 1})
	inst, _ := sched.FromDAGs([]*dag.DAG{d}, 2)
	assign := sched.Assignment{0, 0, 1, 1}
	prio := DFDSPriorities(inst, assign, 0)
	// b-levels: 4,3,2,1. Cell 1 has off-processor child 2 (b=2), so raw(1) =
	// 2 + Δ with Δ = NumLevels+1 = 5 → 7. Cell 0's child 1 is on-processor
	// but has off-processor descendants: raw(0) = raw(1)-1 = 6. Cells 2,3
	// have no off-processor descendants: raw = 0.
	want := []int64{-6, -7, 0, 0}
	for v, w := range want {
		if prio[v] != w {
			t.Fatalf("DFDS prio[%d] = %d, want %d (all %v)", v, prio[v], w, prio)
		}
	}
}

func TestDFDSNoOffProcessor(t *testing.T) {
	// Everything on one processor: all priorities zero.
	msh := mesh.RegularHex(4, 1, 1)
	d := dag.Build(msh, geom.Vec3{X: 1})
	inst, _ := sched.FromDAGs([]*dag.DAG{d}, 1)
	prio := DFDSPriorities(inst, sched.Assignment{0, 0, 0, 0}, 0)
	for v, p := range prio {
		if p != 0 {
			t.Fatalf("prio[%d] = %d, want 0", v, p)
		}
	}
}

func TestRunAllSchedulersValid(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 2)
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(3))
	for _, name := range AllNames() {
		s, err := Run(name, inst, assign, rng.New(5), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: invalid schedule: %v", name, err)
		}
		if s.Makespan < inst.NTasks()/inst.M {
			t.Fatalf("%s: makespan %d below load bound", name, s.Makespan)
		}
	}
}

func TestRunUnknownScheduler(t *testing.T) {
	inst := testInstance(t, 2, 4, 2, 3)
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(1))
	if _, err := Run(Name("bogus"), inst, assign, rng.New(1), 0); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestAllSchedulersSameC1(t *testing.T) {
	// §5.2: all heuristics share the block assignment, so C1 is identical.
	inst := testInstance(t, 3, 8, 4, 4)
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(7))
	var c1 int64 = -1
	for _, name := range AllNames() {
		s, err := Run(name, inst, assign, rng.New(9), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := sched.C1(inst, s.Assign, 0)
		if c1 == -1 {
			c1 = got
		} else if got != c1 {
			t.Fatalf("%s: C1 %d differs from %d", name, got, c1)
		}
	}
}

func TestDelayedVariantsStillComplete(t *testing.T) {
	inst := testInstance(t, 2, 8, 2, 5)
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(11))
	for _, name := range []Name{LevelDelays, DescendantDelays, DFDSDelays} {
		s, err := Run(name, inst, assign, rng.New(13), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDescendantApproxPathUsedOnLargeMeshes(t *testing.T) {
	// Force the approximate path by a mesh above the threshold? Too slow for
	// a unit test; instead check the exact path flag boundary logic via a
	// small instance and direct comparison of orderings between exact and
	// approximate priorities.
	inst := testInstance(t, 3, 4, 2, 6)
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		exact := d.DescendantsExact()
		approx := d.DescendantsApprox()
		// Check rank agreement on a sample of pairs: approximate ordering
		// should rarely inverts exact ordering with large gaps.
		inversions, pairs := 0, 0
		for a := int32(0); a < n; a += 3 {
			for b := a + 1; b < n; b += 7 {
				if exact[a] == exact[b] {
					continue
				}
				pairs++
				if (exact[a] < exact[b]) != (approx[a] < approx[b]) {
					inversions++
				}
			}
		}
		if pairs > 0 && inversions > pairs/4 {
			t.Fatalf("dir %d: approx descendant ordering inverts %d/%d pairs", i, inversions, pairs)
		}
	}
}

func TestQuickHeuristicsValid(t *testing.T) {
	names := AllNames()
	f := func(seed uint64, mRaw, nameRaw uint8) bool {
		m := int(mRaw%6) + 1
		msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.1, Seed: seed})
		dirs, _ := quadrature.Octant(4)
		inst, err := sched.NewInstance(msh, dirs, m)
		if err != nil {
			return false
		}
		assign := sched.RandomAssignment(inst.N(), m, rng.New(seed))
		s, err := Run(names[int(nameRaw)%len(names)], inst, assign, rng.New(seed^0x9e), 0)
		return err == nil && s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// benchPriorities times one priority filler on the plan-ladder shape
// (well_logging at scale 0.1, k=24: 103,224 tasks). first is the cost of a
// family's first plan — the DAGs are rebuilt into recycled storage before
// every iteration, off the clock, which drops their facts — and warm that
// of every later one. Run with -benchmem.
func benchPriorities(b *testing.B, fill func(prio sched.Priorities, inst *sched.Instance, assign sched.Assignment)) {
	msh, err := mesh.Family("well_logging", 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	dirs, err := quadrature.Octant(24)
	if err != nil {
		b.Fatal(err)
	}
	fam := dag.NewFamily(msh)
	inst, err := sched.FromDAGs(fam.BuildAll(dirs, 0), 8)
	if err != nil {
		b.Fatal(err)
	}
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(1))
	prio := make(sched.Priorities, inst.NTasks())
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fam.BuildAll(dirs, 0)
			b.StartTimer()
			fill(prio, inst, assign)
		}
	})
	b.Run("warm", func(b *testing.B) {
		fill(prio, inst, assign)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fill(prio, inst, assign)
		}
	})
}

func BenchmarkDescendantPriorities(b *testing.B) {
	benchPriorities(b, func(prio sched.Priorities, inst *sched.Instance, _ sched.Assignment) {
		DescendantPrioritiesInto(prio, inst, 0)
	})
}

func BenchmarkDFDSPriorities(b *testing.B) {
	benchPriorities(b, func(prio sched.Priorities, inst *sched.Instance, assign sched.Assignment) {
		DFDSPrioritiesInto(prio, inst, assign, 0)
	})
}

func BenchmarkRunDFDS(b *testing.B) {
	inst := testInstance(b, 5, 24, 16, 1)
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(DFDS, inst, assign, rng.New(uint64(i)), 0); err != nil {
			b.Fatal(err)
		}
	}
}
