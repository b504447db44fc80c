package core_test

import (
	"math"
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
// 3 directly.
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
	return core.ImprovedRandomDelayWithAssignment(inst, sched.RandomAssignment(inst.N(), inst.M, r), r)
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
			return core.ImprovedRandomDelayWithAssignment(inst, assign, rng.New(1))
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

// --- theory.go ---

func TestChernoffUpperBasics(t *testing.T) {
	if g := core.ChernoffUpper(10, 1); g <= 0 || g >= 1 {
		t.Fatalf("G(10,1) = %v not in (0,1)", g)
	}
	// Monotone decreasing in delta.
	if core.ChernoffUpper(10, 2) >= core.ChernoffUpper(10, 1) {
		t.Fatal("G not decreasing in delta")
	}
	if core.ChernoffUpper(0, 1) != 1 || core.ChernoffUpper(10, 0) != 1 {
		t.Fatal("degenerate inputs should return 1")
	}
}

func TestChernoffBoundEmpirically(t *testing.T) {
	// Binomial(200, 0.1): mu = 20. Check Pr[X >= 2mu] <= G(mu, 1).
	r := rng.New(77)
	const trials = 20000
	exceed := 0
	for i := 0; i < trials; i++ {
		x := 0
		for j := 0; j < 200; j++ {
			if r.Float64() < 0.1 {
				x++
			}
		}
		if float64(x) >= 40 {
			exceed++
		}
	}
	bound := core.ChernoffUpper(20, 1)
	if emp := float64(exceed) / trials; emp > bound {
		t.Fatalf("empirical tail %v exceeds Chernoff bound %v", emp, bound)
	}
}

func TestFDominatesMean(t *testing.T) {
	for _, mu := range []float64{0.1, 1, 5, 50} {
		for _, p := range []float64{0.1, 0.01, 1e-6} {
			if core.F(mu, p) < mu {
				t.Fatalf("F(%v,%v) = %v below mean", mu, p, core.F(mu, p))
			}
		}
	}
}

func TestHContinuousNondecreasingNearConcave(t *testing.T) {
	// The paper states H is concave for fixed p; strictly, the closed form
	// of equation (3) is mildly convex on the window (ln(1/p)/e², ln(1/p)/e)
	// just below the branch point, so we verify: continuity at the branch
	// point, global monotonicity, and exact concavity outside that window.
	const p = 1e-4
	lp := math.Log(1 / p)
	// Continuity at mu* = lp/e.
	muStar := lp / math.E
	if d := math.Abs(core.H(muStar-1e-9, p) - core.H(muStar+1e-9, p)); d > 1e-6 {
		t.Fatalf("H discontinuous at branch point: jump %v", d)
	}
	prev := 0.0
	prevSlope := math.Inf(1)
	for mu := 0.05; mu < 50; mu += 0.05 {
		h := core.H(mu, p)
		if h < prev {
			t.Fatalf("H decreasing at mu=%v: %v < %v", mu, h, prev)
		}
		slope := (h - prev) / 0.05
		inWindow := mu > lp/(math.E*math.E) && mu < lp/math.E+0.1
		if prev > 0 && !inWindow && slope > prevSlope+1e-6 {
			t.Fatalf("H not concave at mu=%v: slope %v > %v", mu, slope, prevSlope)
		}
		prev, prevSlope = h, slope
	}
}

func TestExpectedMaxLoadBoundHolds(t *testing.T) {
	// Throw t balls into m bins repeatedly; the mean observed maximum must
	// stay below the Corollary 2(b) bound.
	r := rng.New(123)
	for _, tc := range []struct{ t, m int }{{100, 10}, {1000, 10}, {50, 50}} {
		const trials = 300
		sum := 0.0
		counts := make([]int, tc.m)
		for trial := 0; trial < trials; trial++ {
			for i := range counts {
				counts[i] = 0
			}
			max := 0
			for b := 0; b < tc.t; b++ {
				i := r.Intn(tc.m)
				counts[i]++
				if counts[i] > max {
					max = counts[i]
				}
			}
			sum += float64(max)
		}
		mean := sum / trials
		bound := core.ExpectedMaxLoadBound(tc.t, tc.m)
		if mean > bound {
			t.Fatalf("t=%d m=%d: observed mean max %v exceeds bound %v", tc.t, tc.m, mean, bound)
		}
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
