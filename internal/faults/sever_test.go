package faults

import (
	"context"
	"testing"
)

// TestNewPlanSevers: sever events draw from their own substream (plans
// without severs are unchanged by the feature), hit distinct processors,
// and land within the fault-free makespan.
func TestNewPlanSevers(t *testing.T) {
	s := testSchedule(t, 4, 3)
	base := NewPlan(s, Spec{Crashes: 1, Drops: 2}, 99)
	with := NewPlan(s, Spec{Crashes: 1, Drops: 2, Severs: 2}, 99)
	if len(with.Events) != len(base.Events)+2 {
		t.Fatalf("severs added %d events, want 2: %s", len(with.Events)-len(base.Events), with)
	}
	for i, e := range base.Events {
		if with.Events[i] != e {
			t.Fatalf("sever substream disturbed event %d: %s vs %s", i, with.Events[i], e)
		}
	}
	procs := map[int32]bool{}
	for _, e := range with.Events[len(base.Events):] {
		if e.Kind != Sever {
			t.Fatalf("appended event is %s, want sever", e)
		}
		if procs[e.Proc] {
			t.Fatalf("processor %d severed twice: %s", e.Proc, with)
		}
		procs[e.Proc] = true
		if e.Step < 0 || int(e.Step) >= s.Makespan {
			t.Fatalf("sever step %d outside makespan %d", e.Step, s.Makespan)
		}
	}
	if with.CrashOnly() {
		t.Fatal("plan with severs reported crash-only")
	}
	if (Spec{Severs: 1}).Empty() {
		t.Fatal("spec with severs reported empty")
	}
	capped := NewPlan(s, Spec{Severs: 50}, 99)
	if got := len(capped.Events); got != 4 {
		t.Fatalf("sever count %d, want capped at m=4", got)
	}
}

// TestInjectorSeverSteps: severs index like crashes (earliest wins) and
// never leak into the message-event map.
func TestInjectorSeverSteps(t *testing.T) {
	inj := NewInjector(&Plan{Events: []Event{
		{Kind: Sever, Proc: 2, Step: 9},
		{Kind: Sever, Proc: 2, Step: 4},
		{Kind: Sever, Proc: 0, Step: 1},
	}})
	if got := inj.SeverStep(2); got != 4 {
		t.Fatalf("SeverStep(2) = %d, want earliest 4", got)
	}
	if got := inj.SeverStep(0); got != 1 {
		t.Fatalf("SeverStep(0) = %d, want 1", got)
	}
	if got := inj.SeverStep(1); got != -1 {
		t.Fatalf("SeverStep(1) = %d, want -1", got)
	}
	if len(inj.msg) != 0 {
		t.Fatalf("sever events polluted the message map: %v", inj.msg)
	}
	if inj.Applied(Sever) != 0 {
		t.Fatal("severs applied before any fired")
	}
	inj.NoteSever()
	if inj.Applied(Sever) != 1 {
		t.Fatal("NoteSever did not count")
	}
}

// TestEngineIgnoresSevers: the in-process engine has no connections to
// cut — a plan that severs every processor must execute exactly like a
// fault-free run.
func TestEngineIgnoresSevers(t *testing.T) {
	s := testSchedule(t, 4, 5)
	plan := NewPlan(s, Spec{Severs: 4}, 21)
	eng, err := NewEngine(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	psi := make([]float64, s.Inst.NTasks())
	if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
		t.Fatal(err)
	}
	r := eng.Report()
	if r.Epochs != 1 || r.Recoveries != 0 || r.StepsExecuted != s.Makespan {
		t.Fatalf("severed plan disturbed the in-process engine: %s", r)
	}
}
