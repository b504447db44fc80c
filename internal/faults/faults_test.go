package faults

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"sweepsched/internal/leakcheck"
	"sweepsched/internal/machine"
	"sweepsched/internal/mesh"
	"sweepsched/internal/sched"
)

func testSchedule(t testing.TB, m int, seed uint64) *sched.Schedule {
	t.Helper()
	return rdpSchedule(t, mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.15, Seed: seed}), 8, m, seed^0x77)
}

// zeroBalance is a cell balance that tracks dependencies only.
func zeroBalance(s *sched.Schedule) machine.Balance {
	return machine.Balance{Q: make([]float64, s.Inst.N()), Denom: 1}
}

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

// TestInjectorEventThatNeverFires: a message event on a (task, to) pair no
// step sends — as when a recovery has moved the cell it was drawn for —
// never fires: every step's sends pass through unchanged and its kind's
// Applied count stays 0, while an event of the same task to another
// destination still fires, once.
func TestInjectorEventThatNeverFires(t *testing.T) {
	inj := NewInjector(&Plan{Events: []Event{
		{Kind: Drop, Task: 5, To: 3},      // (5, 3) is never sent
		{Kind: Duplicate, Task: 5, To: 1}, // fires on the first step
	}})
	sends := []Delivery{{Task: 4, To: 3, Psi: 1}, {Task: 5, To: 1, Psi: 2}, {Task: 5, To: 2, Psi: 3}, {Task: 9, To: 3, Psi: 4}}
	for step := int32(0); step < 8; step++ {
		want := sends
		if step == 0 {
			want = slices.Insert(slices.Clone(sends), 1, sends[1])
		}
		if got := inj.Rewrite(slices.Clone(sends), step); !slices.Equal(got, want) {
			t.Fatalf("step %d: sends %v, want %v", step, got, want)
		}
	}
	if d, dup := inj.Applied(Drop), inj.Applied(Duplicate); d != 0 || dup != 1 {
		t.Fatalf("applied %d drops and %d duplicates, want 0 and 1", d, dup)
	}
	if inj.Explains(5, 3) {
		t.Fatal("a drop that never fired explains a missing flux")
	}
}

func TestEngineFaultFreeMatchesAnalyticMetrics(t *testing.T) {
	s := testSchedule(t, 4, 3)
	eng, err := NewEngine(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	psi := make([]float64, s.Inst.NTasks())
	if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
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
	if want := sched.C2(s); rep.CommRounds != want {
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
		if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
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
		psi, zero := make([]float64, s.Inst.NTasks()), zeroBalance(s)
		sweep := func() {
			if err := eng.Sweep(context.Background(), zero, psi); err != nil {
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

// TestEngineSplitSweepAllocatesNothing extends that contract to an engine
// past the machine's sweep crossover (16,464 tasks) at GOMAXPROCS 2,
// whose clean sweeps run their direction blocks side by side: a warm one
// allocates nothing, the context sees the other block's goroutine, and
// none of those goroutines outlives its sweep.
func TestEngineSplitSweepAllocatesNothing(t *testing.T) {
	s := rdpSchedule(t, mesh.KuhnBox(mesh.BoxSpec{NX: 7, NY: 7, NZ: 7, Jitter: 0.15, Seed: 1}), 8, 8, 0x77)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	leakcheck.Check(t, func() {
		eng, err := NewEngine(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		psi, zero := make([]float64, s.Inst.NTasks()), zeroBalance(s)
		ctx := &sideBySide{Context: context.Background(), base: runtime.NumGoroutine()}
		sweep := func() {
			if err := eng.Sweep(ctx, zero, psi); err != nil {
				t.Fatal(err)
			}
		}
		sweep() // steps, and records the traffic
		sweep() // flat: lays the direction blocks out
		if n := testing.AllocsPerRun(10, sweep); n != 0 {
			t.Fatalf("warm split sweep allocates %v, want 0", n)
		}
		if ctx.most == 0 {
			t.Fatal("no sweep ran its direction blocks side by side")
		}
	})
}

// sideBySide is a context that keeps the most goroutines it saw, beyond
// base, while sweeps on several goroutines ask it.
type sideBySide struct {
	context.Context
	mu         sync.Mutex
	base, most int
}

func (c *sideBySide) Err() error {
	c.mu.Lock()
	c.most = max(c.most, runtime.NumGoroutine()-c.base)
	c.mu.Unlock()
	return c.Context.Err()
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
		if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
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
		err = eng.Sweep(context.Background(), zeroBalance(s), psi)
		var ue *UnrecoverableError
		if !errors.As(err, &ue) {
			t.Fatalf("got %v, want *UnrecoverableError", err)
		}
		if ue.Remaining != s.Inst.NTasks() {
			t.Fatalf("remaining %d, want all %d", ue.Remaining, s.Inst.NTasks())
		}
	})
}

// cancelAt is a context that cancels itself the n-th time it is asked
// whether it is done: at a barrier, from inside a running sweep.
type cancelAt struct {
	context.Context
	cancel context.CancelFunc
	asked  int
	n      int
}

func (c *cancelAt) Err() error {
	if c.asked++; c.asked >= c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestEngineCancellation cancels a sweep halfway through: a fault-free
// engine's first (stepped), its second and its third (clean epochs, each
// one flat Machine.Sweep). Each returns ctx.Err() having asked no further.
func TestEngineCancellation(t *testing.T) {
	s := testSchedule(t, 4, 7)
	for warm, name := range []string{"stepped", "clean", "clean and flat"} {
		leakcheck.Check(t, func() {
			eng, err := NewEngine(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			psi := make([]float64, s.Inst.NTasks())
			for range warm {
				if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			mid := &cancelAt{Context: ctx, cancel: cancel, n: s.Makespan / 2}
			if err := eng.Sweep(mid, zeroBalance(s), psi); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: got %v, want context.Canceled", name, err)
			}
			if mid.asked != mid.n {
				t.Fatalf("%s: asked %d times, want the sweep to stop at the %d-th", name, mid.asked, mid.n)
			}
		})
	}
}
