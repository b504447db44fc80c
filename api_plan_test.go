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

	"sweepsched/internal/mesh"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// TestPlanPathStagesAndCancellation: the three scheduling entry points
// run one plan path, so each records the same api.* stage series (two
// runs at VerifyEvery 2: one audited, one skipped) and each returns
// ctx.Err() on a context cancelled before the first stage.
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
		"api.assign.time", "api.metrics.time", "api.schedule.time", "api.verified", "api.verify.time", "api.verify_skipped",
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		// A fresh problem per case restarts the VerifyEvery sequence.
		p, err = NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		col := NewStatsCollector()
		opts := ScheduleOptions{Seed: 3, BlockSize: 8, Verify: true, VerifyEvery: 2, Collector: col}
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
// task graph — is built under them, and every plan is the serial one.
func TestConcurrentFirstPlans(t *testing.T) {
	want, err := kuhnProblem(t).Schedule(DescendantDelays, ScheduleOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p := kuhnProblem(t)
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
			results[g], errs[g] = p.Schedule(DescendantDelays, ScheduleOptions{Seed: 11, Verify: true})
		}()
	}
	close(gate)
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil {
			t.Fatalf("planner %d: %v", g, errs[g])
		}
		if res.Metrics != want.Metrics || !slices.Equal(res.Schedule.Start, want.Schedule.Start) {
			t.Fatalf("planner %d: metrics %+v, serial plan %+v (or the start steps differ)", g, res.Metrics, want.Metrics)
		}
	}
}

// blockPlan is a warm plan that partitions the mesh into blocks first. The
// cell graph it partitions is the Problem's since the priming plan; the
// partitioner's own coarsening is still allocated per plan, so it sits
// outside warmPlans and the result-sized budget.
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
	if _, err := p.ScheduleWeighted(DescendantDelays, ScheduleOptions{Seed: 5, BlockSize: 8}, weights); err != nil {
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
