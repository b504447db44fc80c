package transport

import (
	"context"
	"math"
	"strings"
	"testing"

	"sweepsched/internal/core"
	"sweepsched/internal/dag"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

func testSchedule(t testing.TB, nx, k, m int, seed uint64) *sched.Schedule {
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
	s, err := core.RandomDelayPriorities(inst, rng.New(seed^0x42))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var testCfg = Config{SigmaT: 1.0, SigmaS: 0.5, Source: 1.0, Tol: 1e-11}

func TestConfigValidation(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 1)
	for _, cfg := range []Config{
		{SigmaT: 0, SigmaS: 0, Source: 1},
		{SigmaT: 1, SigmaS: -0.1, Source: 1},
		{SigmaT: 1, SigmaS: 1.0, Source: 1}, // SigmaS == SigmaT diverges
	} {
		if _, err := Solve(s, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestSolveConverges(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 2)
	res, err := Solve(s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: residual %v after %d iters", res.Residual, res.Iterations)
	}
	for v, f := range res.Phi {
		if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			t.Fatalf("cell %d flux %v", v, f)
		}
	}
}

func TestIsolatedCellFixedPoint(t *testing.T) {
	// A single cell with no neighbors has the closed-form fixed point
	// φ* = q / (1 + σt − σs).
	d, err := dag.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d, d}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{Inst: inst, Assign: sched.Assignment{0}, Start: []int32{0, 1}, Makespan: 2}
	res, err := Solve(s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := testCfg.Source / (1 + testCfg.SigmaT - testCfg.SigmaS)
	if math.Abs(res.Phi[0]-want) > 1e-9 {
		t.Fatalf("φ = %v, want %v", res.Phi[0], want)
	}
}

func TestScatteringIncreasesFlux(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 3)
	noScatter := testCfg
	noScatter.SigmaS = 0
	a, err := Solve(s, noScatter)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Phi {
		if b.Phi[v] <= a.Phi[v] {
			t.Fatalf("cell %d: scattering did not increase flux (%v vs %v)", v, b.Phi[v], a.Phi[v])
		}
	}
	if noScatter.MaxIters == 0 && a.Iterations >= b.Iterations {
		t.Fatal("pure absorption should converge faster")
	}
}

func TestSolveParallelMatchesSerialBitwise(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8} {
		s := testSchedule(t, 3, 8, m, 4)
		serial, err := Solve(s, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := SolveParallel(s, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Iterations != par.Iterations || serial.Converged != par.Converged {
			t.Fatalf("m=%d: iteration mismatch %d vs %d", m, serial.Iterations, par.Iterations)
		}
		for v := range serial.Phi {
			if serial.Phi[v] != par.Phi[v] {
				t.Fatalf("m=%d cell %d: serial %v != parallel %v (must be bitwise identical)",
					m, v, serial.Phi[v], par.Phi[v])
			}
		}
	}
}

func TestSolveParallelAcrossSchedulersAgree(t *testing.T) {
	// Different schedules (different assignments/orders) must converge to
	// the same flux (within tolerance): the physics does not depend on the
	// schedule.
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.1, Seed: 5})
	dirs, _ := quadrature.Octant(4)
	inst, err := sched.NewInstance(msh, dirs, 4)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := core.RandomDelayPriorities(inst, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.RandomDelayPriorities(inst, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Solve(s1, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(s2, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Phi {
		if math.Abs(r1.Phi[v]-r2.Phi[v]) > 1e-8 {
			t.Fatalf("cell %d: fluxes differ across schedules: %v vs %v", v, r1.Phi[v], r2.Phi[v])
		}
	}
}

func TestSolveRejectsCorruptSchedule(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 6)
	// Swap an edge's start times to violate precedence.
	inst := s.Inst
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		base := sched.TaskID(int32(i) * n)
		foundSwap := false
		for u := int32(0); u < n && !foundSwap; u++ {
			for _, w := range d.Out(u) {
				ut, wt := base+sched.TaskID(u), base+sched.TaskID(w)
				s.Start[ut], s.Start[wt] = s.Start[wt], s.Start[ut]
				foundSwap = true
				break
			}
		}
		if foundSwap {
			break
		}
	}
	if _, err := Solve(s, testCfg); err == nil {
		t.Fatal("corrupt schedule accepted")
	}
}

func TestWeightedQuadratureFlux(t *testing.T) {
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.1, Seed: 8})
	dirs, weights, err := quadrature.SNWeights(2) // 8 directions + weights
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.RandomDelayPriorities(inst, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg
	cfg.Weights = weights
	weighted, err := Solve(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !weighted.Converged {
		t.Fatal("weighted solve did not converge")
	}
	// Serial and parallel must still agree bitwise with weights.
	par, err := SolveParallel(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range weighted.Phi {
		if weighted.Phi[v] != par.Phi[v] {
			t.Fatalf("cell %d differs with weighted quadrature", v)
		}
	}
	// S2 weights are uniform (one level), so equal-weight solve matches.
	equal, err := Solve(s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range equal.Phi {
		if math.Abs(equal.Phi[v]-weighted.Phi[v]) > 1e-9 {
			t.Fatalf("S2 weighted flux should match equal weights at cell %d", v)
		}
	}
}

func TestBadWeightsRejected(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 9)
	cfg := testCfg
	cfg.Weights = []float64{0.5, -0.1, 0.3, 0.3}
	if _, err := Solve(s, cfg); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestMaxItersCap(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 7)
	cfg := testCfg
	cfg.MaxIters = 2
	cfg.Tol = 1e-300
	res, err := Solve(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 2 {
		t.Fatalf("cap not honored: %+v", res)
	}
}

// TestSolveRejectsStaleMakespanAndUnscheduled hands every entry point a
// schedule that does not cover its tasks — a makespan one too small, a
// task with no start — and wants the step table's error, never a panic.
func TestSolveRejectsStaleMakespanAndUnscheduled(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*sched.Schedule)
		want    string
	}{
		{"stale makespan", func(s *sched.Schedule) { s.Makespan-- }, "makespan is"},
		{"unscheduled task", func(s *sched.Schedule) { s.Start[3] = -1 }, "unscheduled"},
	} {
		good := testSchedule(t, 3, 4, 3, 5)
		s := *good
		s.Start = append([]int32(nil), good.Start...)
		tc.corrupt(&s)
		for _, ep := range []struct {
			name  string
			solve func() error
		}{
			{"Solve", func() error { _, err := Solve(&s, testCfg); return err }},
			{"SolveParallel", func() error { _, err := SolveParallel(&s, testCfg); return err }},
			{"SolveFaultTolerant", func() error {
				_, _, err := SolveFaultTolerant(context.Background(), &s, testCfg, nil)
				return err
			}},
		} {
			err := ep.solve()
			if err == nil {
				t.Fatalf("%s: %s accepted the schedule", tc.name, ep.name)
			}
			// With SWEEPSCHED_VERIFY forced the audit refuses it first.
			if !verify.ForcedByEnv() && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: %s: error %q does not say %q", tc.name, ep.name, err, tc.want)
			}
		}
	}
}

func BenchmarkSolveSerial(b *testing.B) {
	s := testSchedule(b, 4, 8, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(s, testCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// reportStepTime adds the executor benchmarks' shared headline: wall time
// per barrier step, the unit the step driver's overhead is paid in.
func reportStepTime(b *testing.B, stepsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(stepsPerOp), "ns/step")
}

// sweepShape is the benchmark's sweep-goroutine workload as the executors
// see it: tetonly at scale 0.05, k=24, m=8, a random-delays-with-priorities
// schedule over a per-cell random assignment, solved to Tol 1e-4.
func sweepShape(b *testing.B) (*sched.Schedule, Config) {
	b.Helper()
	msh, err := mesh.Family("tetonly", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	dirs, err := quadrature.Octant(24)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 8)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.RandomDelayPriorities(inst, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return s, Config{SigmaT: 1, SigmaS: 0.5, Source: 1, Tol: 1e-4}
}

// benchExecutor runs solve on the small 4x4x4 box (k=8, m=4) and at the
// measured shape, reporting what a step and a logical message cost.
func benchExecutor(b *testing.B, solve func(*sched.Schedule, Config) (steps int, messages int64, err error)) {
	b.Run("box", func(b *testing.B) { benchExecutorOn(b, testSchedule(b, 4, 8, 4, 1), testCfg, solve) })
	b.Run("sweep", func(b *testing.B) {
		s, cfg := sweepShape(b)
		benchExecutorOn(b, s, cfg, solve)
	})
}

func benchExecutorOn(b *testing.B, s *sched.Schedule, cfg Config, solve func(*sched.Schedule, Config) (int, int64, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	var steps int
	var messages int64
	for i := 0; i < b.N; i++ {
		var err error
		if steps, messages, err = solve(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportStepTime(b, steps)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(messages), "ns/message")
}

func BenchmarkSolveParallel(b *testing.B) {
	benchExecutor(b, func(s *sched.Schedule, cfg Config) (int, int64, error) {
		res, err := SolveParallel(s, cfg)
		if err != nil {
			return 0, 0, err
		}
		return res.Iterations * s.Makespan, res.Comm.Messages, nil
	})
}

// BenchmarkSolveFaultTolerant is the fault engine's fault-free path: the
// same solve as BenchmarkSolveParallel through faults.Engine, one epoch
// per source iteration.
func BenchmarkSolveFaultTolerant(b *testing.B) {
	benchExecutor(b, func(s *sched.Schedule, cfg Config) (int, int64, error) {
		res, rep, err := SolveFaultTolerant(context.Background(), s, cfg, nil)
		if err != nil {
			return 0, 0, err
		}
		return rep.StepsExecuted, res.Comm.Messages, nil
	})
}
