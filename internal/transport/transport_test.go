package transport

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/faults"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/machine"
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
	r := rng.New(seed ^ 0x42)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
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
		// Non-finite inputs pass every ordered comparison they are put to.
		{SigmaT: math.NaN(), Source: 1},
		{SigmaT: math.Inf(1), Source: 1},
		{SigmaT: 1, SigmaS: math.NaN(), Source: 1},
		{SigmaT: 1, Source: math.NaN()},
		{SigmaT: 1, Source: math.Inf(1)},
		{SigmaT: 1, Source: 1, Tol: math.NaN()},
		{SigmaT: 1, Source: 1, Tol: math.Inf(1)},
		{SigmaT: 1, Source: 1, Weights: []float64{1, math.NaN(), 1, 1}},
		{SigmaT: 1, Source: 1, Weights: []float64{1, math.Inf(1), 1, 1}},
		{SigmaT: 1, SourceField: nonFinite(s.Inst.N(), math.NaN())},
		{SigmaT: 1, SourceField: nonFinite(s.Inst.N(), math.Inf(1))},
	} {
		if _, err := SolveCtx(context.Background(), s, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// nonFinite is a source field of ones with x in its middle cell.
func nonFinite(n int, x float64) []float64 {
	f := make([]float64, n)
	for v := range f {
		f[v] = 1
	}
	f[n/2] = x
	return f
}

func TestSolveConverges(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 2)
	res, err := SolveCtx(context.Background(), s, testCfg)
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
	res, err := SolveCtx(context.Background(), s, testCfg)
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
	a, err := SolveCtx(context.Background(), s, noScatter)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveCtx(context.Background(), s, testCfg)
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
		serial, err := SolveCtx(context.Background(), s, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := solveParallel(context.Background(), s, testCfg)
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
	r := rng.New(1)
	s1, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	r = rng.New(99)
	s2, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := SolveCtx(context.Background(), s1, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveCtx(context.Background(), s2, testCfg)
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
	if _, err := SolveCtx(context.Background(), s, testCfg); err == nil {
		t.Fatal("corrupt schedule accepted")
	}
}

// starSchedule list-schedules a 1-direction star DAG (cell 0 feeds cells
// 1..3) on 2 processors under the given assignment.
func starSchedule(t *testing.T, assign sched.Assignment) *sched.Schedule {
	t.Helper()
	d, err := dag.FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{}
	if err := sched.ListScheduleInto(sched.NewWorkspace(), s, inst, assign, nil, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// c2Everywhere returns the three independent C2 accountings of s: the
// sched package's recount, the auditor's serial recomputation, and the
// rounds a DependencyOnly run sends its messages in.
func c2Everywhere(t *testing.T, s *sched.Schedule) [3]int64 {
	t.Helper()
	dep, err := solveParallel(context.Background(), s, DependencyOnly)
	if err != nil {
		t.Fatal(err)
	}
	return [3]int64{sched.C2(s), verify.C2Ref(s), dep.Comm.Rounds}
}

// TestC2EdgeConventionStar pins the repository's C2 convention: a step's
// communication cost is the maximum over processors of CROSS-PROCESSOR
// EDGES leaving that processor's tasks — parallel edges to the same
// destination processor are NOT deduplicated into one message. On a star
// the hub sends along 3 edges to one processor, so its step costs 3 (a
// message-counting convention would report 1). Swapping which side of the
// cut the hub lives on leaves the cut edges, and so C2, unchanged. The
// production counter, the auditor and a DependencyOnly run must agree.
func TestC2EdgeConventionStar(t *testing.T) {
	for name, assign := range map[string]sched.Assignment{
		"hubOnProc0": {0, 1, 1, 1},
		"hubOnProc1": {1, 0, 0, 0},
	} {
		if got := c2Everywhere(t, starSchedule(t, assign)); got != [3]int64{3, 3, 3} {
			t.Errorf("%s: C2, C2Ref, run rounds = %v, want 3 each (edge-counting convention)", name, got)
		}
	}
}

// TestC2ConventionAgreesEverywhere cross-checks the three independent C2
// accountings on randomized mesh schedules.
func TestC2ConventionAgreesEverywhere(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		got := c2Everywhere(t, testSchedule(t, 2, 4, 3+int(seed), seed))
		if got[0] == 0 || got[1] != got[0] || got[2] != got[0] {
			t.Fatalf("seed %d: C2, C2Ref, run rounds = %v, want all equal and nonzero", seed, got)
		}
	}
}

// TestC2ZeroOnSingleProcessor: with every cell on one processor no edge
// crosses the cut, so every accounting must be zero.
func TestC2ZeroOnSingleProcessor(t *testing.T) {
	if got := c2Everywhere(t, starSchedule(t, sched.Assignment{0, 0, 0, 0})); got != [3]int64{} {
		t.Fatalf("C2, C2Ref, run rounds = %v on a single processor, want 0 each", got)
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
	r := rng.New(4)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg
	cfg.Weights = weights
	weighted, err := SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !weighted.Converged {
		t.Fatal("weighted solve did not converge")
	}
	// Serial and parallel must still agree bitwise with weights.
	par, err := solveParallel(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range weighted.Phi {
		if weighted.Phi[v] != par.Phi[v] {
			t.Fatalf("cell %d differs with weighted quadrature", v)
		}
	}
	// S2 weights are uniform (one level), so equal-weight solve matches.
	equal, err := SolveCtx(context.Background(), s, testCfg)
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
	if _, err := SolveCtx(context.Background(), s, cfg); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestMaxItersCap(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 7)
	cfg := testCfg
	cfg.MaxIters = 2
	cfg.Tol = 1e-300
	res, err := SolveCtx(context.Background(), s, cfg)
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
			{"Solve", func() error { _, err := SolveCtx(context.Background(), &s, testCfg); return err }},
			{"SolveParallel", func() error { _, err := solveParallel(context.Background(), &s, testCfg); return err }},
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
		if _, err := SolveCtx(context.Background(), s, testCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// reportStepTime adds the executor benchmarks' shared headline: wall time
// per barrier step, the unit the machine's per-step overhead is paid in.
func reportStepTime(b *testing.B, stepsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(stepsPerOp), "ns/step")
}

// sweepShape is the benchmark's sweep-goroutine workload as the executors
// see it: tetonly at scale 0.05, k=24, m=8, a random-delays-with-priorities
// schedule over a per-cell random assignment, solved to Tol 1e-4. Its
// sweep-faulty workload is the same mesh and machine with k=8, solved to
// Tol 1e-6 (faultyPlan is its fault plan).
func sweepShape(b *testing.B, k int, tol float64) (*sched.Schedule, Config) {
	b.Helper()
	msh, err := mesh.Family("tetonly", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	return sweepShapeOn(b, msh, k, tol)
}

// sweepShapeOn is sweepShape on a given mesh.
func sweepShapeOn(b *testing.B, msh *mesh.Mesh, k int, tol float64) (*sched.Schedule, Config) {
	b.Helper()
	dirs, err := quadrature.Octant(k)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 8)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		b.Fatal(err)
	}
	return s, Config{SigmaT: 1, SigmaS: 0.5, Source: 1, Tol: tol}
}

// faultyPlan is the sweep-faulty workload's fault plan for the schedule.
func faultyPlan(s *sched.Schedule) *faults.Plan {
	return faults.NewPlan(s, faults.Spec{Crashes: 1, Drops: 2, Delays: 1, Duplicates: 1, CheckpointEvery: 8}, 1)
}

// executorRun is what one solve executed: barrier steps, tasks (replays
// included) and logical messages.
type executorRun struct {
	steps, tasks int
	messages     int64
}

// benchExecutor runs solve on the small 4x4x4 box (k=8, m=4) and at the
// measured shape, reporting what a step, a task and a logical message
// cost.
func benchExecutor(b *testing.B, solve func(*sched.Schedule, Config) (executorRun, error)) {
	b.Run("box", func(b *testing.B) { benchExecutorOn(b, testSchedule(b, 4, 8, 4, 1), testCfg, solve) })
	b.Run("sweep", func(b *testing.B) {
		s, cfg := sweepShape(b, 24, 1e-4)
		benchExecutorOn(b, s, cfg, solve)
	})
}

func benchExecutorOn(b *testing.B, s *sched.Schedule, cfg Config, solve func(*sched.Schedule, Config) (executorRun, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	var run executorRun
	for i := 0; i < b.N; i++ {
		var err error
		if run, err = solve(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	reportStepTime(b, run.steps)
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perOp/float64(run.tasks), "ns/task")
	b.ReportMetric(perOp/float64(run.messages), "ns/message")
}

// BenchmarkSolveParallel is the fault-free parallel solve
// (SolveTransportParallel's: the fault engine with no plan) on the box and
// the sweep shape, a warm clean sweep alone at the sweep shape ("flat":
// one Machine.Sweep, its direction blocks side by side from two CPUs on),
// and the solve on the sweep shape's mesh with its tetrahedra renumbered
// at random ("shuffled"): the same solve on the numbering a real mesher
// gives, where the executor's per-task state is no longer laid out along
// the sweep.
func BenchmarkSolveParallel(b *testing.B) {
	solve := func(s *sched.Schedule, cfg Config) (executorRun, error) {
		res, err := solveParallel(context.Background(), s, cfg)
		if err != nil {
			return executorRun{}, err
		}
		return executorRun{res.Iterations * s.Makespan, res.Iterations * s.Inst.NTasks(), res.Comm.Messages}, nil
	}
	benchExecutor(b, solve)
	b.Run("flat", func(b *testing.B) {
		s, cfg := sweepShape(b, 24, 1e-4)
		eng, err := faults.NewEngine(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		var bal machine.Balance
		CellBalance(&bal, cfg, make([]float64, s.Inst.N()))
		psi := make([]float64, s.Inst.NTasks())
		sweep := func() {
			if err := eng.Sweep(context.Background(), bal, psi); err != nil {
				b.Fatal(err)
			}
		}
		sweep() // steps the schedule and records its traffic
		sweep() // flat from here on
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			sweep()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Inst.NTasks()), "ns/task")
	})
	b.Run("shuffled", func(b *testing.B) {
		msh, err := mesh.Family("tetonly", 0.05, 1)
		if err != nil {
			b.Fatal(err)
		}
		s, cfg := sweepShapeOn(b, shuffledMesh(msh, 3), 24, 1e-4)
		benchExecutorOn(b, s, cfg, solve)
	})
}

// shuffledMesh is msh with its tetrahedra renumbered in a seeded random
// order through mesh.FromTets: the same geometry with the arbitrary
// numbering a real mesher gives, where the generators number cells
// spatially.
func shuffledMesh(msh *mesh.Mesh, seed uint64) *mesh.Mesh {
	cells := slices.Clone(msh.Cells)
	r := rng.New(seed)
	for i := len(cells) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		cells[i], cells[j] = cells[j], cells[i]
	}
	return mesh.FromTets(msh.Name, msh.Verts, cells)
}

// BenchmarkSolveFaultTolerant is the fault engine at the sweep-faulty
// shape under its plan: a crash, two drops, a delay and a duplicate, each
// regrouping the steps and laying the routes out again. (With no plan it
// is BenchmarkSolveParallel.)
func BenchmarkSolveFaultTolerant(b *testing.B) {
	b.Run("faulty", func(b *testing.B) {
		s, cfg := sweepShape(b, 8, 1e-6)
		benchExecutorOn(b, s, cfg, func(s *sched.Schedule, cfg Config) (executorRun, error) {
			res, rep, err := SolveFaultTolerant(context.Background(), s, cfg, faultyPlan(s))
			if err != nil {
				return executorRun{}, err
			}
			return executorRun{rep.StepsExecuted, res.Iterations*s.Inst.NTasks() + rep.TasksReplayed, res.Comm.Messages}, nil
		})
	})
}
