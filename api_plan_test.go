package sweepsched

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"sweepsched/internal/heuristics"
	"sweepsched/internal/mesh"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// TestPlanPathStagesAndCancellation: the three scheduling entry points
// run one plan path, so each records the same api.* stage series (two
// runs with Verify, both audited) and each returns ctx.Err() on a
// context cancelled before the first stage.
func TestPlanPathStagesAndCancellation(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := LogNormalWeights(p.N(), 4, 0.75, 2)
	cases := []struct {
		name  string
		model planModel
		run   func(ScheduleOptions) error
	}{
		{"ScheduleCtx", planModel{}, func(o ScheduleOptions) error {
			_, err := p.ScheduleCtx(context.Background(), LevelDelays, o)
			return err
		}},
		{"ScheduleComm", planModel{comm: true, commDelay: 2}, func(o ScheduleOptions) error {
			_, err := p.ScheduleComm(LevelDelays, o, 2)
			return err
		}},
		{"ScheduleWeightedMachine", planModel{weights: weights}, func(o ScheduleOptions) error {
			_, err := p.ScheduleWeightedMachine(LevelDelays, o, weights, nil)
			return err
		}},
	}
	want := []string{
		"api.assign.time", "api.metrics.time", "api.schedule.time", "api.verified", "api.verify.time",
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		col := NewStatsCollector()
		opts := ScheduleOptions{Seed: 3, BlockSize: 8, Verify: true, Collector: col}
		for i := 0; i < 2; i++ {
			if err := tc.run(opts); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		var got []string
		snap := col.Snapshot()
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, "api.") {
				got = append(got, c.Name)
			}
		}
		for _, tm := range snap.Timers {
			if strings.HasPrefix(tm.Name, "api.") {
				got = append(got, tm.Name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s recorded api series %v, want %v", tc.name, got, want)
		}
		if v := col.Counter("api.verified").Value(); v != 2 {
			t.Errorf("%s: api.verified = %d after two runs with Verify, want 2", tc.name, v)
		}
		if _, err := p.plan(cancelled, LevelDelays, opts, tc.model); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context: %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestScheduleCommDelayRange: a communication delay whose worst-case
// makespan overflows the int32 step counter used to be truncated (1<<32
// scheduled as delay 0) or to wrap the step arithmetic (MaxInt32), and
// ValidateComm passed the result. Both are refused with a
// StepRangeError; the largest delay that fits is scheduled and honoured.
func TestScheduleCommDelayRange(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.02, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := ScheduleOptions{Seed: 1}
	largest := math.MaxInt32/p.Tasks() - 1
	for _, cd := range []int{1 << 32, math.MaxInt32, largest + 1} {
		var rangeErr *sched.StepRangeError
		if _, err := p.ScheduleComm(Level, opts, cd); !errors.As(err, &rangeErr) {
			t.Errorf("commDelay %d: got %v, want a StepRangeError", cd, err)
		}
	}
	// On one processor no edge crosses, so the run is nt steps long and
	// cheap; the kernel still sizes its calendar for the delay.
	p1, err := NewProblemFromFamily("tetonly", 0.02, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p1.ScheduleComm(Level, opts, largest)
	if err != nil {
		t.Fatalf("largest accepted commDelay %d: %v", largest, err)
	}
	if res.Metrics.Makespan != p1.Tasks() {
		t.Fatalf("single-processor makespan %d, want %d", res.Metrics.Makespan, p1.Tasks())
	}
}

// kuhnProblem is the shape the kernel and validator benchmarks use:
// KuhnBox 8³, k=24, m=32 (73,728 tasks).
func kuhnProblem(t testing.TB) *Problem {
	t.Helper()
	p, err := NewProblemFromMesh(mesh.KuhnBox(mesh.BoxSpec{NX: 8, NY: 8, NZ: 8, Jitter: 0.15, Seed: 1}), 24, 32)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// warmPlans are the plans a trial loop repeats on one family: each reads
// DAG facts, kernel scratch and sort scratch that the plan before it left
// behind.
type warmPlan struct {
	name string
	plan func(p *Problem, seed uint64) (*Result, error)
}

var warmPlans = []warmPlan{
	{"descendant_delays", func(p *Problem, seed uint64) (*Result, error) {
		return p.Schedule(DescendantDelays, ScheduleOptions{Seed: seed})
	}},
	{"dfds_comm", func(p *Problem, seed uint64) (*Result, error) {
		return p.ScheduleComm(DFDSDelays, ScheduleOptions{Seed: seed}, 4)
	}},
	{"rdp", func(p *Problem, seed uint64) (*Result, error) {
		return p.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: seed})
	}},
	{"improved_delays", func(p *Problem, seed uint64) (*Result, error) {
		return p.Schedule(ImprovedDelays, ScheduleOptions{Seed: seed})
	}},
	{"random_delays", func(p *Problem, seed uint64) (*Result, error) {
		return p.Schedule(RandomDelays, ScheduleOptions{Seed: seed})
	}},
}

// TestWarmPlanAllocatesItsResult: after one priming plan, a plan
// allocates what its Result returns — the start steps and the assignment
// — and no other per-task array: not the descendant bitsets or b-levels
// (facts of the DAGs since the priming plan), not Validate's and C2's
// sort scratch (pooled).
func TestWarmPlanAllocatesItsResult(t *testing.T) {
	if raceEnabled || verify.ForcedByEnv() {
		t.Skip("the race detector empties sync.Pools at random and a forced audit allocates its own arrays")
	}
	// A collection between the priming plan and the measured one would
	// empty the pools the bound relies on, and a pool keeps what one P put
	// back where another P cannot take it (as testing.AllocsPerRun, which
	// counts on one P for the same reason).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := kuhnProblem(t)
	for _, tc := range warmPlans {
		if _, err := tc.plan(p, 1); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := tc.plan(p, 2)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		budget := uint64(4*len(res.Schedule.Start) + 4*len(res.Schedule.Assign) + 64<<10)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%s: a warm plan allocated %d bytes, budget %d (its result plus 64 KiB)", tc.name, got, budget)
		}
	}
}

// TestConcurrentFirstPlans: eight goroutines make the first plans of one
// fresh Problem at once, as the daemon's requests do on a family it has
// just cached. What the first plan leaves on the family — DAG facts, the
// task graph, Algorithm 3's greedy levels — is built once under them, and
// every plan is the serial one.
func TestConcurrentFirstPlans(t *testing.T) {
	for _, alg := range []Scheduler{DescendantDelays, ImprovedDelays} {
		want, err := kuhnProblem(t).Schedule(alg, ScheduleOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		p, col := kuhnProblem(t), NewStatsCollector()
		const planners = 8
		var (
			wg      sync.WaitGroup
			gate    = make(chan struct{})
			results [planners]*Result
			errs    [planners]error
		)
		for g := range planners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				results[g], errs[g] = p.Schedule(alg, ScheduleOptions{Seed: 11, Verify: true, Collector: col})
			}()
		}
		close(gate)
		wg.Wait()
		for g, res := range results {
			if errs[g] != nil {
				t.Fatalf("%s planner %d: %v", alg, g, errs[g])
			}
			if res.Metrics != want.Metrics || !slices.Equal(res.Schedule.Start, want.Schedule.Start) {
				t.Fatalf("%s planner %d: metrics %+v, serial plan %+v (or the start steps differ)", alg, g, res.Metrics, want.Metrics)
			}
		}
		wantRuns := int64(0)
		if alg == ImprovedDelays {
			wantRuns = 1
		}
		if runs := col.Snapshot().CounterValue("sched.greedy.runs"); runs != wantRuns {
			t.Fatalf("%s: %d concurrent first plans ran the greedy schedule %d times, want %d", alg, planners, runs, wantRuns)
		}
	}
}

// TestGreedyLevelsBuiltOnce: Algorithm 3's levels L' are a fact of the
// instance. Two improved_delays plans on one Problem run the greedy
// schedule once between them. A layered Algorithm 3 run on the same
// instance reads the same levels and adds its delays to a copy, so they
// stay a fresh build's, no plan after it rebuilds them, and a plan with
// the first seed is the first plan again.
func TestGreedyLevelsBuiltOnce(t *testing.T) {
	p, col := kuhnProblem(t), NewStatsCollector()
	runs := func() int64 { return col.Snapshot().CounterValue("sched.greedy.runs") }
	opts := ScheduleOptions{Seed: 3, Collector: col}
	first, err := p.Schedule(ImprovedDelays, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Schedule(ImprovedDelays, ScheduleOptions{Seed: 4, Collector: col}); err != nil {
		t.Fatal(err)
	}
	if n := runs(); n != 1 {
		t.Fatalf("two improved_delays plans ran the greedy schedule %d times, want 1", n)
	}
	level, err := p.inst.GreedyLevels(sched.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]int32, p.inst.NTasks())
	if _, err := sched.GreedyScheduleInto(sched.NewWorkspace(), fresh, p.inst, nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(level, fresh) {
		t.Fatal("the instance's greedy levels are not a fresh greedy schedule's")
	}
	r := rng.New(5)
	assign := sched.RandomAssignment(p.N(), p.inst.M, r)
	if _, err := heuristics.RunLayered(heuristics.ImprovedDelays, p.inst, assign, r, 1); err != nil {
		t.Fatal(err)
	}
	if after, _ := p.inst.GreedyLevels(sched.NewWorkspace()); &after[0] != &level[0] || !slices.Equal(level, fresh) {
		t.Fatal("the layered Algorithm 3 run rebuilt the shared levels or wrote its delays into them")
	}
	again, err := p.Schedule(ImprovedDelays, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs(); n != 1 {
		t.Fatalf("three improved_delays plans and a layered run ran the greedy schedule %d times, want 1", n)
	}
	if again.Metrics != first.Metrics || !slices.Equal(again.Schedule.Start, first.Schedule.Start) {
		t.Fatalf("after a layered run: metrics %+v, the first plan's %+v (or the start steps differ)", again.Metrics, first.Metrics)
	}
}

// blockPlan is a warm plan that partitions the mesh into blocks first. The
// cell graph it partitions is the Problem's since the priming plan; the
// partitioner still allocates its labels, its vertex orders and any coarse
// levels per plan, so it sits outside warmPlans and the result-sized
// budget.
var blockPlan = warmPlan{"descendant_delays_block8", func(p *Problem, seed uint64) (*Result, error) {
	return p.Schedule(DescendantDelays, ScheduleOptions{Seed: seed, BlockSize: 8})
}}

// TestBlockPlansShareTheCellGraph: block plans partition one cell graph
// built on the Problem by the first of them, and a weight-aware plan
// partitions a copy carrying its weights: the shared graph keeps its unit
// weights, so the unweighted plan after it is the one a fresh Problem
// makes.
func TestBlockPlansShareTheCellGraph(t *testing.T) {
	want, err := blockPlan.plan(kuhnProblem(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	p := kuhnProblem(t)
	weights := LogNormalWeights(p.N(), 4, 0.75, 9)
	if _, err := p.ScheduleWeightedMachine(DescendantDelays, ScheduleOptions{Seed: 5, BlockSize: 8}, weights, nil); err != nil {
		t.Fatal(err)
	}
	g := p.cellGraph
	if g == nil {
		t.Fatal("the weighted block plan left no cell graph on the Problem")
	}
	got, err := blockPlan.plan(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.cellGraph != g {
		t.Fatal("the second block plan built a cell graph of its own")
	}
	if got.Metrics != want.Metrics || !slices.Equal(got.Schedule.Start, want.Schedule.Start) {
		t.Fatalf("after a weighted block plan: metrics %+v, a fresh Problem's %+v (or the start steps differ)", got.Metrics, want.Metrics)
	}
}

// BenchmarkPlanWarm times those plans end to end — assignment, priorities,
// kernel, Validate, metrics — on the primed Problem. Run with -benchmem:
// bytes/op is what a whole warm plan allocates, the Result's 307,200 bytes
// at this size plus the small change (and the partitioner's coarsening on
// the block row).
func BenchmarkPlanWarm(b *testing.B) {
	p := kuhnProblem(b)
	for _, tc := range slices.Concat(warmPlans, []warmPlan{blockPlan}) {
		b.Run(tc.name, func(b *testing.B) {
			if _, err := tc.plan(p, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tc.plan(p, uint64(i+2)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanAudited is BenchmarkPlanWarm's descendant_delays plan with
// every run audited, serially (Workers 1) and at the default Workers,
// where the instance is past the tail's crossover: the audit runs on a
// goroutine beside a Validate split by direction and by processor.
// bytes/op is the Result plus the audit's own task-long arrays.
func BenchmarkPlanAudited(b *testing.B) {
	p := kuhnProblem(b)
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"default", 0}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := ScheduleOptions{Seed: 1, Verify: true, Workers: tc.workers}
			if _, err := p.Schedule(DescendantDelays, opts); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Seed = uint64(i + 2)
				if _, err := p.Schedule(DescendantDelays, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPlanAuditChecksReleaseFloors: a kernel that starts a delayed task
// before its release floor must fail the plan's own audit, on the
// per-direction path (level_delays, a floor per task), the aggregated
// one (descendant_delays over 8 anglesets, a floor per angleset) and the
// layered one (random_delays, a layer floor per task). The fault moves one delayed source task to a step before its floor that no
// task of its processor uses, and not off the last step, so precedence,
// exclusivity and the makespan still hold and only the release model
// breaks; the metrics are recounted to match.
func TestPlanAuditChecksReleaseFloors(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.02, 16, 64, 1) // ~10 cells a processor: idle early steps
	if err != nil {
		t.Fatal(err)
	}
	defer func() { kernelFault = nil }()
	n := p.N()
	for _, tc := range []struct {
		alg       Scheduler
		anglesets int
	}{{LevelDelays, 0}, {DescendantDelays, 8}, {RandomDelays, 0}} {
		opts := ScheduleOptions{Seed: 3, Verify: true, Anglesets: tc.anglesets}
		groups, err := p.anglesets(opts)
		if err != nil {
			t.Fatal(err)
		}
		kernelFault = nil
		if _, err := p.Schedule(tc.alg, opts); err != nil {
			t.Fatalf("%s: the unfaulted plan fails: %v", tc.alg, err)
		}
		moved := sched.TaskID(-1)
		kernelFault = func(s *sched.Schedule, met *sched.Metrics, rule sched.Rule) {
			floor := rule.Release
			if groups != nil {
				floor = make([]int32, p.Tasks())
				if err := sched.ExpandAnglesetRelease(floor, rule.Release, groups, n); err != nil {
					t.Fatal(err)
				}
			}
			busy := map[[2]int32]bool{}
			for tt, st := range s.Start {
				busy[[2]int32{s.Assign[tt%n], st}] = true
			}
			for tt, st := range s.Start {
				q, d := s.Assign[tt%n], s.Inst.DAGs[tt/n]
				if floor[tt] == 0 || d.InDegree(int32(tt%n)) != 0 || st+1 >= int32(s.Makespan) {
					continue
				}
				for step := int32(0); step < floor[tt]; step++ {
					if !busy[[2]int32{q, step}] {
						s.Start[tt], moved = step, sched.TaskID(tt)
						*met = sched.Measure(s, 1)
						return
					}
				}
			}
		}
		_, err = p.Schedule(tc.alg, opts)
		if moved < 0 {
			t.Fatalf("%s: no delayed source task has a free step before its floor", tc.alg)
		}
		if err == nil || !strings.Contains(err.Error(), "failed the schedule audit") || !strings.Contains(err.Error(), "release") {
			t.Fatalf("%s: task %d moved before its release floor; plan error = %v, want the audit's release violation", tc.alg, moved, err)
		}
	}
}

// TestBlockPartitionKeptForTheNextPlan: two plans with one block size and
// seed partition once — the second assigns from the very partition the
// first drew — and draw the same assignment, whatever their schedulers.
// Another seed partitions afresh, and so does a weighted plan with the
// kept block size and seed, which leaves the kept partition as it was.
// Every assignment is the one a fresh Problem draws, and plans made at
// once on one Problem, under -race too, draw theirs.
func TestBlockPartitionKeptForTheNextPlan(t *testing.T) {
	fresh := func() *Problem {
		p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	assignOf := func(p *Problem, alg Scheduler, seed uint64) []int32 {
		res, err := p.Schedule(alg, ScheduleOptions{Seed: seed, BlockSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule.Assign
	}
	p := fresh()
	first := assignOf(p, RandomDelaysPriority, 3)
	kept := &p.blocks.part[0]
	if again := assignOf(p, Level, 3); &p.blocks.part[0] != kept || !slices.Equal(again, first) {
		t.Fatal("a second plan with the same block size and seed partitioned again, or drew another assignment")
	}
	weights := make(CellWeights, p.N())
	for v := range weights {
		weights[v] = int32(1 + 40*(v%2))
	}
	weighted := func(p *Problem) []int32 {
		res, err := p.ScheduleWeightedMachine(Level, ScheduleOptions{Seed: 3, BlockSize: 16}, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule.Assign
	}
	if got := weighted(p); &p.blocks.part[0] != kept || !slices.Equal(got, weighted(fresh())) || slices.Equal(got, first) {
		t.Fatal("a weighted plan reused the unit-weight partition, or replaced it")
	}
	if got := assignOf(p, Level, 4); &p.blocks.part[0] == kept || !slices.Equal(got, assignOf(fresh(), Level, 4)) {
		t.Fatal("a plan with another seed reused the partition, or drew another assignment than a fresh Problem")
	}

	want := map[uint64][]int32{3: first, 4: assignOf(fresh(), Level, 4)}
	var wg sync.WaitGroup
	got := make([][]int32, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Schedule(Level, ScheduleOptions{Seed: uint64(3 + i%2), BlockSize: 16})
			if err == nil {
				got[i] = res.Schedule.Assign
			}
		}()
	}
	wg.Wait()
	for i, a := range got {
		if !slices.Equal(a, want[uint64(3+i%2)]) {
			t.Fatalf("concurrent plan %d (seed %d) drew another assignment", i, 3+i%2)
		}
	}
}
