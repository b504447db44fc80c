package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sweepsched/internal/core"
	"sweepsched/internal/geom"
	"sweepsched/internal/obs"
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
	if len(names) != len(Registry) {
		t.Fatalf("Names() returned %d of %d", len(names), len(Registry))
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

// TestWorkloadCachesBlocks pins the (blockSize, seed) cache key: the
// same pair is cached (identical backing slice, no recomputation) while
// a different seed yields an independent random partition. The cache
// used to key on size alone, silently handing every seed the first
// seed's partition.
func TestWorkloadCachesBlocks(t *testing.T) {
	var out strings.Builder
	w, err := NewWorkload(tinyConfig(&out), "tetonly", 8)
	if err != nil {
		t.Fatal(err)
	}
	p1, n1, err := w.BlockPartition(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1again, n1again, err := w.BlockPartition(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n1again || &p1[0] != &p1again[0] {
		t.Fatal("same (size, seed) not served from the cache")
	}
	p2, _, err := w.BlockPartition(16, 999)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] == &p2[0] {
		t.Fatal("different seed served the cached partition of another seed")
	}
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 999 produced identical partitions; the seed is being ignored")
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
	if &i1.DAGs[0] == &i2.DAGs[0] {
		// slices share backing arrays; ensure DAG pointers identical
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
		got, err := sched.ListSchedule(inst, assign, prio)
		if err != nil {
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
	rebuilt := w.Family.BuildAll(turned, 0)
	if rebuilt[0] != w.DAGs[0] {
		t.Fatal("the family did not recycle its DAG storage; the case below tests nothing")
	}
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
	cellAssign, err := w.Assignment(1, m, r)
	if err != nil {
		t.Fatal(err)
	}
	blockAssign, err := w.Assignment(64, m, r)
	if err != nil {
		t.Fatal(err)
	}
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
		r := rng.New(uint64(100 + trial))
		s1, err := core.RandomDelay(inst, r)
		if err != nil {
			t.Fatal(err)
		}
		r = rng.New(uint64(100 + trial))
		s2, err := core.RandomDelayPriorities(inst, r)
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

func TestExperimentsDeterministic(t *testing.T) {
	// Identical configs must produce byte-identical tables. This guards
	// against map-iteration nondeterminism (a real bug once: the partition
	// CSR was built in map order, making block assignments differ across
	// runs) and against unseeded randomness sneaking into any driver.
	for _, name := range []string{"fig2a", "fig3a", "blocks", "nongeom", "ablate_assign", "weighted", "accept"} {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() string {
				var out strings.Builder
				cfg := tinyConfig(&out)
				cfg.Workers = 4 // parallel rows must not affect output
				if err := Run(name, cfg); err != nil {
					t.Fatal(err)
				}
				return out.String()
			}
			a, b := run(), run()
			if a != b {
				t.Fatalf("%s output differs between identical runs:\n--- first\n%s\n--- second\n%s", name, a, b)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale <= 0 || c.Trials <= 0 || c.Procs == nil || c.Out == nil {
		t.Fatalf("defaults incomplete: %+v", c)
	}
}

// TestVerifyEverySamplesAudits checks the audit sampling: VerifyEvery=2
// over an even number of trials audits exactly half of them (trial 0
// always included), and the default audits every trial with no skips.
func TestVerifyEverySamplesAudits(t *testing.T) {
	var out strings.Builder
	cfg := tinyConfig(&out)
	cfg.Trials = 4
	cfg.Verify = true
	cfg.VerifyEvery = 2
	cfg.Collector = obs.New()
	if err := Run("fig2a", cfg); err != nil {
		t.Fatal(err)
	}
	verified := cfg.Collector.Counter("experiments.verified").Value()
	skipped := cfg.Collector.Counter("experiments.verify_skipped").Value()
	if verified == 0 || skipped == 0 {
		t.Fatalf("sampled audit: verified=%d skipped=%d, want both > 0", verified, skipped)
	}
	if verified != skipped {
		t.Fatalf("every=2 over %d trials: verified=%d skipped=%d, want equal", cfg.Trials, verified, skipped)
	}

	cfg = tinyConfig(&out)
	cfg.Trials = 2
	cfg.Verify = true
	cfg.Collector = obs.New()
	if err := Run("fig2a", cfg); err != nil {
		t.Fatal(err)
	}
	if skipped := cfg.Collector.Counter("experiments.verify_skipped").Value(); skipped != 0 {
		t.Fatalf("default sampling skipped %d audits", skipped)
	}
	if cfg.Collector.Counter("experiments.verified").Value() == 0 {
		t.Fatal("default sampling audited nothing")
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
