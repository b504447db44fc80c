package faults

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"sweepsched/internal/core"
	"sweepsched/internal/leakcheck"
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

func zeroCompute(sched.TaskID, float64) float64 { return 0 }

func TestNewPlanDeterministic(t *testing.T) {
	s := testSchedule(t, 4, 1)
	spec := Spec{Crashes: 2, Drops: 3, Delays: 2, Duplicates: 1}
	a := NewPlan(s, spec, 42)
	b := NewPlan(s, spec, 42)
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	c := NewPlan(s, spec, 43)
	if a.String() == c.String() {
		t.Fatalf("different seeds produced identical plans: %s", a)
	}
	if len(a.Events) != 2+3+2+1 {
		t.Fatalf("plan has %d events, want 8: %s", len(a.Events), a)
	}
}

func TestNewPlanCapsCrashesAtProcessorCount(t *testing.T) {
	s := testSchedule(t, 3, 2)
	plan := NewPlan(s, Spec{Crashes: 50}, 7)
	procs := map[int32]bool{}
	for _, e := range plan.Events {
		if e.Kind != Crash {
			t.Fatalf("unexpected non-crash event %s", e)
		}
		if procs[e.Proc] {
			t.Fatalf("processor %d crashed twice in plan %s", e.Proc, plan)
		}
		procs[e.Proc] = true
	}
	if len(procs) != 3 {
		t.Fatalf("crash count %d, want capped at m=3", len(procs))
	}
	if !plan.CrashOnly() {
		t.Fatal("crash-only plan not reported as such")
	}
}

func TestInjectorMessageEventsFireOnce(t *testing.T) {
	mk := func(k Kind, hold int32) *Injector {
		return NewInjector(&Plan{Events: []Event{{Kind: k, Task: 5, To: 1, HoldSteps: hold}}})
	}
	// One step's queue of one message, through Rewrite.
	send := func(inj *Injector, task sched.TaskID, psi float64, step int32) []Delivery {
		return inj.Rewrite([]Delivery{{Task: task, To: 1, Psi: psi}}, step)
	}

	inj := mk(Drop, 0)
	if got := send(inj, 5, 1.5, 0); len(got) != 0 {
		t.Fatalf("dropped message delivered: %v", got)
	}
	if !inj.Explains(5, 1) {
		t.Fatal("injector does not explain the drop it applied")
	}
	if got := send(inj, 5, 1.5, 3); len(got) != 1 {
		t.Fatalf("second send of dropped message got %d deliveries, want 1", len(got))
	}
	if got := send(inj, 6, 1.5, 0); len(got) != 1 || got[0].Psi != 1.5 {
		t.Fatalf("unaffected message mangled: %v", got)
	}

	inj = mk(Delay, 2)
	if got := send(inj, 5, 2.5, 4); len(got) != 0 {
		t.Fatalf("delayed message delivered immediately: %v", got)
	}
	if got := inj.Matured(5); len(got) != 0 {
		t.Fatalf("delivery matured early: %v", got)
	}
	got := inj.Matured(6)
	if len(got) != 1 || got[0].Task != 5 || got[0].To != 1 || got[0].Psi != 2.5 {
		t.Fatalf("matured delivery wrong: %v", got)
	}
	if got := inj.Matured(7); len(got) != 0 {
		t.Fatalf("delivery matured twice: %v", got)
	}

	inj = mk(Duplicate, 0)
	if got := send(inj, 5, 3.5, 0); len(got) != 2 {
		t.Fatalf("duplicate yielded %d deliveries, want 2", len(got))
	}
	if inj.Applied(Duplicate) != 1 {
		t.Fatalf("applied count %d, want 1", inj.Applied(Duplicate))
	}
}

func TestEngineFaultFreeMatchesAnalyticMetrics(t *testing.T) {
	s := testSchedule(t, 4, 3)
	eng, err := NewEngine(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	psi := make([]float64, s.Inst.NTasks())
	if err := eng.Sweep(context.Background(), zeroCompute, psi); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.Epochs != 1 || rep.Recoveries != 0 || rep.TasksReplayed != 0 {
		t.Fatalf("fault-free run recovered: %s", rep)
	}
	if rep.StepsExecuted != s.Makespan {
		t.Fatalf("executed %d steps, makespan %d", rep.StepsExecuted, s.Makespan)
	}
	if want := sched.C1(s.Inst, s.Assign, 0); rep.MessagesSent != want {
		t.Fatalf("sent %d messages, C1 = %d", rep.MessagesSent, want)
	}
	if want := sched.C2(s, 0); rep.CommRounds != want {
		t.Fatalf("comm rounds %d, C2 = %d", rep.CommRounds, want)
	}
}

func TestEngineRecoversFromMixedFaults(t *testing.T) {
	s := testSchedule(t, 4, 4)
	plan := NewPlan(s, Spec{Crashes: 2, Drops: 2, Delays: 2, Duplicates: 1}, 9)
	leakcheck.Check(t, func() {
		eng, err := NewEngine(s, plan)
		if err != nil {
			t.Fatal(err)
		}
		psi := make([]float64, s.Inst.NTasks())
		if err := eng.Sweep(context.Background(), zeroCompute, psi); err != nil {
			t.Fatal(err)
		}
		rep := eng.Report()
		if rep.Crashes != 2 {
			t.Fatalf("applied %d crashes, want 2: %s", rep.Crashes, rep)
		}
		if rep.Recoveries == 0 {
			t.Fatalf("no recoveries under crashes: %s", rep)
		}
		if len(rep.DeadProcs) != 2 {
			t.Fatalf("dead procs %v, want 2", rep.DeadProcs)
		}
	})
}

// TestEngineFaultFreeSweepAllocatesNothing pins the engine's reuse across
// source iterations: the full-schedule step table, the receive slots, the
// done masks and the outbox are built once per Engine, so a warm
// fault-free Sweep — what every transport iteration after the first is —
// allocates nothing.
func TestEngineFaultFreeSweepAllocatesNothing(t *testing.T) {
	s := testSchedule(t, 4, 9)
	for _, noBatch := range []bool{false, true} {
		eng, err := NewEngine(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetNoBatch(noBatch)
		psi := make([]float64, s.Inst.NTasks())
		sweep := func() {
			if err := eng.Sweep(context.Background(), zeroCompute, psi); err != nil {
				t.Fatal(err)
			}
		}
		sweep()
		sweep() // warm: tables built, send list and envelopes grown
		if n := testing.AllocsPerRun(10, sweep); n != 0 {
			t.Fatalf("noBatch=%v: warm fault-free sweep allocates %v, want 0", noBatch, n)
		}
		if rep := eng.Report(); rep.Epochs != 13 || rep.Recoveries != 0 {
			t.Fatalf("noBatch=%v: %s, want 13 epochs and no recovery", noBatch, rep)
		}
	}
}

// TestReportReproducible asserts the byte-for-byte report guarantee across
// repeated runs and across GOMAXPROCS settings.
func TestReportReproducible(t *testing.T) {
	s := testSchedule(t, 6, 5)
	plan := NewPlan(s, Spec{Crashes: 3, Drops: 4, Delays: 3, Duplicates: 2}, 17)
	run := func() string {
		eng, err := NewEngine(s, plan)
		if err != nil {
			t.Fatal(err)
		}
		psi := make([]float64, s.Inst.NTasks())
		if err := eng.Sweep(context.Background(), zeroCompute, psi); err != nil {
			t.Fatal(err)
		}
		return eng.Report().String()
	}
	want := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d report differs:\n%s\n%s", i, got, want)
		}
	}
	old := runtime.GOMAXPROCS(1)
	got := run()
	runtime.GOMAXPROCS(old)
	if got != want {
		t.Fatalf("GOMAXPROCS=1 report differs:\n%s\n%s", got, want)
	}
}

func TestEngineAllProcessorsCrashedIsUnrecoverable(t *testing.T) {
	s := testSchedule(t, 3, 6)
	var events []Event
	for p := int32(0); p < 3; p++ {
		events = append(events, Event{Kind: Crash, Proc: p, Step: 0})
	}
	plan := &Plan{Seed: 1, Events: events}
	leakcheck.Check(t, func() {
		eng, err := NewEngine(s, plan)
		if err != nil {
			t.Fatal(err)
		}
		psi := make([]float64, s.Inst.NTasks())
		err = eng.Sweep(context.Background(), zeroCompute, psi)
		var ue *UnrecoverableError
		if !errors.As(err, &ue) {
			t.Fatalf("got %v, want *UnrecoverableError", err)
		}
		if ue.Remaining != s.Inst.NTasks() {
			t.Fatalf("remaining %d, want all %d", ue.Remaining, s.Inst.NTasks())
		}
	})
}

func TestEngineCancellation(t *testing.T) {
	s := testSchedule(t, 4, 7)
	slow := func(sched.TaskID, float64) float64 {
		time.Sleep(2 * time.Millisecond)
		return 0
	}
	leakcheck.Check(t, func() {
		eng, err := NewEngine(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		psi := make([]float64, s.Inst.NTasks())
		if err := eng.Sweep(ctx, slow, psi); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
}
