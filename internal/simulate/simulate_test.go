package simulate

import (
	"testing"

	"sweepsched/internal/core"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

func testSchedule(t testing.TB, m int, seed uint64) *sched.Schedule {
	t.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.15, Seed: seed})
	dirs, err := quadrature.Octant(8)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.RandomDelayPriorities(inst, rng.New(seed^0x77))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunValidSchedule(t *testing.T) {
	s := testSchedule(t, 4, 1)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != s.Makespan {
		t.Fatalf("simulated %d steps, schedule makespan %d", res.Steps, s.Makespan)
	}
}

func TestRunCrossChecksC1AndC2(t *testing.T) {
	s := testSchedule(t, 4, 2)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if want := sched.C1(s.Inst, s.Assign, 0); res.TotalMessages != want {
		t.Fatalf("simulator counted %d messages, C1 = %d", res.TotalMessages, want)
	}
	if want := sched.C2(s, 0); res.CommRounds != want {
		t.Fatalf("simulator comm rounds %d, C2 = %d", res.CommRounds, want)
	}
}

func TestRunSingleProcessorNoMessages(t *testing.T) {
	s := testSchedule(t, 1, 3)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMessages != 0 || res.CommRounds != 0 {
		t.Fatalf("single processor sent %d messages", res.TotalMessages)
	}
}

func TestRunDetectsInfeasibleSchedule(t *testing.T) {
	s := testSchedule(t, 4, 4)
	// Corrupt the schedule: swap the start times of an edge's endpoints in
	// some direction, producing a precedence violation.
	inst := s.Inst
	n := int32(inst.N())
	found := false
outer:
	for i, d := range inst.DAGs {
		base := sched.TaskID(int32(i) * n)
		for u := int32(0); u < n && !found; u++ {
			for _, w := range d.Out(u) {
				ut, wt := base+sched.TaskID(u), base+sched.TaskID(w)
				s.Start[ut], s.Start[wt] = s.Start[wt], s.Start[ut]
				found = true
				break outer
			}
		}
	}
	if !found {
		t.Fatal("no edge found to corrupt")
	}
	if _, err := Run(s); err == nil {
		t.Fatal("simulator accepted an infeasible schedule")
	}
}

func TestRunAllHeuristics(t *testing.T) {
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.1, Seed: 5})
	dirs, _ := quadrature.Octant(4)
	inst, err := sched.NewInstance(msh, dirs, 3)
	if err != nil {
		t.Fatal(err)
	}
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(6))
	for _, name := range heuristics.AllNames() {
		s, err := heuristics.Run(name, inst, assign, rng.New(7), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: simulation failed: %v", name, err)
		}
		if res.Steps != s.Makespan {
			t.Fatalf("%s: steps %d != makespan %d", name, res.Steps, s.Makespan)
		}
	}
}

func TestRunManyProcessors(t *testing.T) {
	// More processors than cells exercises empty workers.
	msh := mesh.RegularHex(2, 2, 2)
	dirs, _ := quadrature.Octant(4)
	inst, err := sched.NewInstance(msh, dirs, 32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.RandomDelayPriorities(inst, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRun(b *testing.B) {
	s := testSchedule(b, 8, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Makespan), "ns/step")
}
