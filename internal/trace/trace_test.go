package trace

import (
	"strings"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

func testSchedule(t testing.TB, m int) *sched.Schedule {
	t.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.15, Seed: 1})
	dirs, err := quadrature.Octant(8)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestComputeConservation(t *testing.T) {
	s := testSchedule(t, 4)
	p := Compute(s)
	if p.Makespan != s.Makespan || p.Processors != 4 {
		t.Fatalf("profile header wrong: %+v", p)
	}
	total := 0
	for _, b := range p.Busy {
		total += b
	}
	if total != p.Tasks {
		t.Fatalf("busy steps %d != tasks %d", total, p.Tasks)
	}
	if p.IdleSteps != 4*p.Makespan-p.Tasks {
		t.Fatalf("idle accounting wrong: %d", p.IdleSteps)
	}
	if p.MeanUtilization <= 0 || p.MeanUtilization > 1 {
		t.Fatalf("utilization %v out of (0,1]", p.MeanUtilization)
	}
	if p.PeakParallelism < 1 || p.PeakParallelism > 4 {
		t.Fatalf("peak parallelism %d", p.PeakParallelism)
	}
}

func TestUtilizationHistogramCoversProcs(t *testing.T) {
	s := testSchedule(t, 8)
	hist := UtilizationHistogram(s)
	total := 0
	for _, c := range hist {
		total += c
	}
	if total != 8 {
		t.Fatalf("histogram covers %d of 8 processors", total)
	}
}

func TestRenderGantt(t *testing.T) {
	s := testSchedule(t, 4)
	var b strings.Builder
	if err := RenderGantt(&b, s, 8, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 procs
		t.Fatalf("gantt lines = %d:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "p") {
			t.Fatalf("bad gantt row %q", l)
		}
	}
}

func TestRenderGanttTruncatesProcs(t *testing.T) {
	s := testSchedule(t, 8)
	var b strings.Builder
	if err := RenderGantt(&b, s, 2, 20); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "more processors not shown") {
		t.Fatal("missing truncation note")
	}
}

func TestRenderGanttEmpty(t *testing.T) {
	// Schedule with zero makespan (degenerate, constructed directly).
	msh := mesh.RegularHex(2, 1, 1)
	inst, _ := sched.FromDAGs(dag.BuildAll(msh, []geom.Vec3{{X: 1}}), 1)
	s := &sched.Schedule{Inst: inst, Assign: sched.Assignment{0, 0}, Start: []int32{0, 1}}
	var b strings.Builder
	// Makespan left at 0 deliberately: must not panic.
	if err := RenderGantt(&b, s, 4, 10); err != nil {
		t.Fatal(err)
	}
}

func TestCompareIdleAlg1VsAlg2(t *testing.T) {
	// §4.2: compaction removes idle time, so Algorithm 2's idle count must
	// not exceed Algorithm 1's (same seed, same assignment and delays).
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.15, Seed: 3})
	dirs, _ := quadrature.Octant(8)
	inst, err := sched.NewInstance(msh, dirs, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	s1, err := heuristics.Run(heuristics.RandomDelays, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	r = rng.New(9)
	s2, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	idle1, idle2 := Compute(s1).IdleSteps, Compute(s2).IdleSteps
	if idle2 > idle1 {
		t.Fatalf("compacted schedule has more idle (%d) than layered (%d)", idle2, idle1)
	}
}
