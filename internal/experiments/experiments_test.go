package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"sweepsched"
	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/obs"
	"sweepsched/internal/partition"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/sched/refimpl"
)

// tinyConfig keeps every experiment fast enough for unit tests.
func tinyConfig(out *strings.Builder) Config {
	return Config{
		Scale:  0.01,
		Seed:   1,
		Procs:  []int{2, 8},
		Trials: 1,
		Out:    out,
	}
}

func TestNamesStableAndComplete(t *testing.T) {
	names := Names()
	if len(names) != len(figures) {
		t.Fatalf("Names() returned %d of %d", len(names), len(figures))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			if err := Run(name, tinyConfig(&out)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			text := out.String()
			if !strings.Contains(text, "#") {
				t.Fatalf("%s: missing header comment:\n%s", name, text)
			}
			if len(strings.Split(strings.TrimSpace(text), "\n")) < 4 {
				t.Fatalf("%s: suspiciously short output:\n%s", name, text)
			}
		})
	}
}

// TestPlannedRunsShareTheDraw holds the figures to common random numbers:
// within one (row, trial), two planned runs with the same block size plan
// on the same assignment, so a column compares schedulers, not draws.
func TestPlannedRunsShareTheDraw(t *testing.T) {
	compared := 0
	for _, f := range figures {
		type (
			slot struct {
				p   *point
				run int
			}
			key struct {
				p            *point
				trial, block int
			}
		)
		var mu sync.Mutex
		made := map[slot]int{} // the trials made so far
		seen := map[key]sched.Assignment{}
		g := f
		g.runs = slices.Clone(f.runs)
		for ri := range g.runs {
			rn := &g.runs[ri]
			if rn.alg == "" {
				continue
			}
			use, opts := rn.use, rn.opts
			rn.use = func(p *point, res *sweepsched.Result) (*sample, error) {
				block := 1
				if opts != nil {
					block = max(1, opts(p).BlockSize)
				}
				mu.Lock()
				k := key{p, made[slot{p, ri}], block}
				made[slot{p, ri}]++
				if a, ok := seen[k]; !ok {
					seen[k] = res.Schedule.Assign
				} else if compared++; !slices.Equal(a, res.Schedule.Assign) {
					t.Errorf("%s m=%d x=%d trial %d: %s plans on another assignment than an earlier run with blocks of %d",
						f.id, p.m, p.x, k.trial, rn.alg, block)
				}
				mu.Unlock()
				if use != nil {
					return use(p, res)
				}
				return &sample{s: res.Schedule, met: &res.Metrics}, nil
			}
		}
		var out strings.Builder
		cfg := tinyConfig(&out)
		cfg.Trials = 2
		var ce *ClaimError
		if err := g.eval(cfg.withDefaults()); err != nil && !errors.As(err, &ce) {
			t.Fatalf("%s: %v", f.id, err)
		}
	}
	if compared == 0 {
		t.Fatal("no figure has two planned runs with one block size to compare")
	}
}

func TestWorkloadInstanceSharesDAGs(t *testing.T) {
	var out strings.Builder
	w, err := NewWorkload(tinyConfig(&out), "long", 4)
	if err != nil {
		t.Fatal(err)
	}
	i1, err := w.Instance(2)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := w.Instance(16)
	if err != nil {
		t.Fatal(err)
	}
	for d := range i1.DAGs {
		if i1.DAGs[d] != i2.DAGs[d] {
			t.Fatal("instances rebuilt DAGs")
		}
	}
	if i1.M != 2 || i2.M != 16 {
		t.Fatal("instance processor counts wrong")
	}
}

// TestWorkloadInstancesPlanLikeReference: every Instance derives its own
// task graph from the DAGs on its first plan, so two instances over one
// workload's shared DAGs (a processor sweep) each schedule like the
// reference kernel — and so does a fresh Instance over the same storage
// after the family was rebuilt for other directions, which is the only
// supported way to plan a rebuilt family (an Instance's DAGs are immutable
// once planned).
func TestWorkloadInstancesPlanLikeReference(t *testing.T) {
	var out strings.Builder
	w, err := NewWorkload(tinyConfig(&out), "tetonly", 6)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	check := func(name string, inst *sched.Instance) {
		t.Helper()
		assign := sched.RandomAssignment(inst.N(), inst.M, r)
		prio := make(sched.Priorities, inst.NTasks())
		for i := range prio {
			prio[i] = int64(r.Intn(40))
		}
		want, err := refimpl.ListScheduleWithRelease(inst, assign, prio, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := &sched.Schedule{}
		if err := sched.ListScheduleInto(sched.NewWorkspace(), got, inst, assign, prio, nil); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Start, want.Start) {
			t.Fatalf("%s: schedule differs from the reference kernel's", name)
		}
	}
	for _, m := range []int{3, 16} {
		inst, err := w.Instance(m)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("shared DAGs, m=%d", m), inst)
	}

	turned := make([]geom.Vec3, len(w.Dirs))
	for i, d := range w.Dirs {
		turned[i] = geom.Vec3{X: d.Z, Y: -d.X, Z: d.Y}
	}
	rebuilt := dag.BuildAllInto(w.DAGs, dag.NewSkeleton(w.Mesh), turned, 0) // recycles w.DAGs in place
	inst, err := sched.FromDAGs(rebuilt, 3)
	if err != nil {
		t.Fatal(err)
	}
	check("rebuilt family", inst)
}

func TestBlockAssignmentReducesC1(t *testing.T) {
	// The central §5.1 finding: block assignment cuts interprocessor edges
	// substantially versus per-cell assignment.
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Scale = 0.03
	w, err := NewWorkload(cfg, "tetonly", 8)
	if err != nil {
		t.Fatal(err)
	}
	const m = 8
	inst, err := w.Instance(m)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	cellAssign := sched.RandomAssignment(w.Mesh.NCells(), m, r)
	part, nBlocks, err := partition.Blocks(partition.FromMesh(w.Mesh), 64, 0x9e3779b9)
	if err != nil {
		t.Fatal(err)
	}
	blockAssign := sched.BlockAssignment(part, nBlocks, m, r)
	c1Cell := sched.C1(inst, cellAssign, 0)
	c1Block := sched.C1(inst, blockAssign, 0)
	if c1Block*2 >= c1Cell {
		t.Fatalf("block C1 %d not well below cell C1 %d", c1Block, c1Cell)
	}
}

func TestPrioritiesBeatLayeredOnAverage(t *testing.T) {
	// §5.1 observation 3: Algorithm 2 improves on Algorithm 1, especially
	// for larger m.
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Scale = 0.02
	w, err := NewWorkload(cfg, "long", 8)
	if err != nil {
		t.Fatal(err)
	}
	const m = 16
	inst, err := w.Instance(m)
	if err != nil {
		t.Fatal(err)
	}
	var ms1, ms2 float64
	for trial := 0; trial < 5; trial++ {
		r1, r2 := rng.New(uint64(100+trial)), rng.New(uint64(100+trial))
		s1, err := heuristics.Run(heuristics.RandomDelays, inst, sched.RandomAssignment(inst.N(), m, r1), r1, 1)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), m, r2), r2, 1)
		if err != nil {
			t.Fatal(err)
		}
		ms1 += float64(s1.Makespan)
		ms2 += float64(s2.Makespan)
	}
	if ms2 > ms1 {
		t.Fatalf("priorities (%v) worse than layered (%v) on average", ms2/5, ms1/5)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale <= 0 || c.Trials <= 0 || c.Procs == nil || c.Out == nil {
		t.Fatalf("defaults incomplete: %+v", c)
	}
}

// TestVerifyAuditsEverySchedule: with Verify on, every trial's schedule
// is audited, both where the API audits a figure's plans (fig2a,
// counted as api.*) and where the evaluator audits its bespoke runs
// (ablate_delay, counted as experiments.*).
func TestVerifyAuditsEverySchedule(t *testing.T) {
	for _, c := range []struct{ id, counters string }{{"fig2a", "api"}, {"ablate_delay", "experiments"}} {
		var out strings.Builder
		cfg := tinyConfig(&out)
		cfg.Trials = 2
		cfg.Verify = true
		cfg.Collector = obs.New()
		if err := Run(c.id, cfg); err != nil {
			t.Fatal(err)
		}
		verified, trials := cfg.Collector.Counter(c.counters+".verified").Value(), cfg.Collector.Counter("experiments.trials").Value()
		if verified == 0 || verified != trials {
			t.Fatalf("%s: Verify audited %d of %d schedules", c.id, verified, trials)
		}
	}
}

// TestFig3Anglesets: the Figure 3 harness runs aggregated (priorities
// once per octant angleset), every audited trial passes the
// angleset-aware audit, and the output stays deterministic.
func TestFig3Anglesets(t *testing.T) {
	run := func() string {
		var out strings.Builder
		cfg := tinyConfig(&out)
		cfg.Anglesets = 8
		cfg.Verify = true
		if err := Run("fig3b", cfg); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("aggregated fig3b not deterministic:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if len(strings.Split(strings.TrimSpace(a), "\n")) < 4 {
		t.Fatalf("suspiciously short output:\n%s", a)
	}
}
