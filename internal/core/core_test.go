package core_test

import (
	"slices"
	"testing"
	"testing/quick"

	"sweepsched/internal/core"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/lb"
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

// The paper's algorithms as it states them, each on a uniformly random
// cell assignment drawn first from r: Algorithms 1 and 2 and the priority
// form of Algorithm 3 run through the scheduler table, layered Algorithm
// 3 as improved_delays' rule run layer by layer (heuristics.RunLayered).
var (
	alg1  = onRandom(heuristics.RandomDelays)
	alg2  = onRandom(heuristics.RandomDelaysPriority)
	alg3p = onRandom(heuristics.ImprovedDelays)
)

func onRandom(name heuristics.Name) func(*sched.Instance, *rng.Source) (*sched.Schedule, error) {
	return func(inst *sched.Instance, r *rng.Source) (*sched.Schedule, error) {
		return heuristics.Run(name, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	}
}

func alg3(inst *sched.Instance, r *rng.Source) (*sched.Schedule, error) {
	return heuristics.RunLayered(heuristics.ImprovedDelays, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
}

func TestDelaysRange(t *testing.T) {
	r := rng.New(1)
	for _, k := range []int{1, 2, 5, 24} {
		x := core.Delays(k, r)
		if len(x) != k {
			t.Fatalf("Delays(%d) length %d", k, len(x))
		}
		for i, d := range x {
			if d < 0 || int(d) >= k {
				t.Fatalf("delay[%d] = %d out of {0..%d}", i, d, k-1)
			}
		}
	}
}

func TestDelaysSpread(t *testing.T) {
	r := rng.New(2)
	x := core.Delays(1000, r)
	seen := map[int32]bool{}
	for _, d := range x {
		seen[d] = true
	}
	if len(seen) < 500 {
		t.Fatalf("only %d distinct delays among 1000 draws", len(seen))
	}
}

func TestRandomDelayValidSchedule(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 1)
	s, err := alg1(inst, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDelayPrioritiesValidAndNoWorse(t *testing.T) {
	inst := testInstance(t, 3, 8, 8, 2)
	// Same seed: identical delays and assignment, so Algorithm 2 (compacted
	// list schedule) must not be longer than Algorithm 1 (layered).
	s1, err := alg1(inst, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := alg2(inst, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
	if s2.Makespan > s1.Makespan {
		t.Fatalf("priorities makespan %d > layered %d", s2.Makespan, s1.Makespan)
	}
}

func TestImprovedRandomDelayValid(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 3)
	s, err := alg3(inst, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImprovedRandomDelayPrioritiesValid(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 4)
	s, err := alg3p(inst, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithAssignmentRespectsAssignment(t *testing.T) {
	inst := testInstance(t, 2, 4, 4, 5)
	assign := make(sched.Assignment, inst.N())
	for v := range assign {
		assign[v] = int32(v % 4)
	}
	for name, run := range map[string]func() (*sched.Schedule, error){
		"alg1": func() (*sched.Schedule, error) {
			return heuristics.Run(heuristics.RandomDelays, inst, assign, rng.New(1), 1)
		},
		"alg2": func() (*sched.Schedule, error) {
			return heuristics.Run(heuristics.RandomDelaysPriority, inst, assign, rng.New(1), 1)
		},
		"alg3": func() (*sched.Schedule, error) {
			return heuristics.RunLayered(heuristics.ImprovedDelays, inst, assign, rng.New(1), 1)
		},
		"alg3p": func() (*sched.Schedule, error) {
			return heuristics.Run(heuristics.ImprovedDelays, inst, assign, rng.New(1), 1)
		},
	} {
		s, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range assign {
			if s.Assign[v] != assign[v] {
				t.Fatalf("%s: assignment changed at cell %d", name, v)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// random_delays is random_delays_priority's rule run layer by layer.
	alg1, err1 := heuristics.Run(heuristics.RandomDelays, inst, assign, rng.New(2), 1)
	alg2l, err2 := heuristics.RunLayered(heuristics.RandomDelaysPriority, inst, assign, rng.New(2), 1)
	if err1 != nil || err2 != nil || !slices.Equal(alg1.Start, alg2l.Start) {
		t.Fatalf("random_delays and random_delays_priority run layered differ (%v, %v)", err1, err2)
	}
}

func TestEmpiricalRatioReasonable(t *testing.T) {
	// §5.1 observation 1: the ratio to the lower bound is a small constant
	// (paper: usually < 3). Give headroom for the tiny test mesh.
	inst := testInstance(t, 4, 8, 8, 6)
	s, err := alg2(inst, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	ratio := lb.StrongRatio(s.Makespan, inst)
	if ratio > 4 {
		t.Fatalf("Algorithm 2 ratio %v > 4 on a small box", ratio)
	}
}

func TestSingleDirectionDegeneratesToListScheduling(t *testing.T) {
	// With k=1 the delay is always 0 and Algorithm 2 is plain level-priority
	// list scheduling.
	inst := testInstance(t, 3, 1, 4, 7)
	s, err := alg2(inst, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 8)
	a, _ := alg2(inst, rng.New(42))
	b, _ := alg2(inst, rng.New(42))
	if a.Makespan != b.Makespan {
		t.Fatalf("same seed gave makespans %d and %d", a.Makespan, b.Makespan)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			t.Fatalf("same seed diverged at task %d", i)
		}
	}
}

func TestQuickPrioritiesNeverLoseToLayered(t *testing.T) {
	// §4.2's compaction argument, property-tested: with identical delays and
	// assignment, Algorithm 2's makespan never exceeds Algorithm 1's.
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw%8) + 1
		msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 3, Jitter: 0.15, Seed: seed})
		dirs, _ := quadrature.Octant(4)
		inst, err := sched.NewInstance(msh, dirs, m)
		if err != nil {
			return false
		}
		s1, err := alg1(inst, rng.New(seed^0x1))
		if err != nil {
			return false
		}
		s2, err := alg2(inst, rng.New(seed^0x1))
		if err != nil {
			return false
		}
		return s2.Makespan <= s1.Makespan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllAlgorithmsValid(t *testing.T) {
	f := func(seed uint64, mRaw uint8) bool {
		m := int(mRaw%8) + 1
		msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.15, Seed: seed})
		dirs, _ := quadrature.Octant(4)
		inst, err := sched.NewInstance(msh, dirs, m)
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0x51)
		for _, run := range []func(*sched.Instance, *rng.Source) (*sched.Schedule, error){
			alg1, alg2, alg3, alg3p,
		} {
			s, err := run(inst, r)
			if err != nil || s.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestRhoAndLog2Sq(t *testing.T) {
	if core.Rho(1) != 1 {
		t.Fatalf("Rho(1) = %v", core.Rho(1))
	}
	if core.Rho(1024) <= 0 {
		t.Fatal("Rho(1024) <= 0")
	}
	if core.Rho(1<<20) <= core.Rho(1024) {
		t.Fatal("Rho not increasing")
	}
	if core.Log2Sq(1024) != 100 {
		t.Fatalf("Log2Sq(1024) = %v, want 100", core.Log2Sq(1024))
	}
	if core.Log2Sq(1) != 1 {
		t.Fatalf("Log2Sq(1) = %v, want 1", core.Log2Sq(1))
	}
}

func BenchmarkRandomDelayPriorities(b *testing.B) {
	inst := testInstance(b, 5, 24, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg2(inst, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImprovedRandomDelay(b *testing.B) {
	inst := testInstance(b, 5, 24, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg3(inst, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
