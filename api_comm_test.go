package sweepsched

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sweepsched/internal/trace"
	"sweepsched/internal/transport"
)

func TestScheduleCommBasic(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := p.ScheduleComm(RandomDelaysPriority, ScheduleOptions{Seed: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := p.ScheduleComm(RandomDelaysPriority, ScheduleOptions{Seed: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.Metrics.Makespan < zero.Metrics.Makespan {
		t.Fatalf("c=4 makespan %d below c=0 makespan %d",
			delayed.Metrics.Makespan, zero.Metrics.Makespan)
	}
}

func TestScheduleCommRejectsLayered(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ScheduleComm(RandomDelays, ScheduleOptions{}, 1); err == nil {
		t.Fatal("layered algorithm accepted comm delays")
	}
}

func TestScheduleCommAllListSchedulers(t *testing.T) {
	p, err := NewProblemFromFamily("long", 0.01, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Schedulers() {
		if alg == RandomDelays {
			continue
		}
		res, err := p.ScheduleComm(alg, ScheduleOptions{Seed: 3, BlockSize: 8}, 2)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Metrics.Makespan <= 0 {
			t.Fatalf("%s: empty schedule", alg)
		}
	}
}

func TestScheduleCommUnknownScheduler(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ScheduleComm(Scheduler("bogus"), ScheduleOptions{}, 1); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestResultGanttAndUtilization(t *testing.T) {
	_, res := tinyProblem(t, RandomDelaysPriority)
	var b strings.Builder
	if err := trace.RenderGantt(&b, res.Schedule, 4, 30); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "gantt:") {
		t.Fatalf("gantt output missing header:\n%s", b.String())
	}
	u := res.Utilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization %v", u)
	}
	// Utilization must be the reciprocal of the ratio.
	if diff := u*res.Ratio - 1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("utilization %v not reciprocal of ratio %v", u, res.Ratio)
	}
}

// TestExecutionOrderTopological: processing the tasks in scheduled start
// order is a valid execution of every sweep: each task starts after all of
// its upwind predecessors.
func TestExecutionOrderTopological(t *testing.T) {
	p, res := tinyProblem(t, Level)
	n, start := p.N(), res.Schedule.Start
	for dir, d := range p.inst.DAGs {
		for cell := 0; cell < n; cell++ {
			for _, u := range d.In(int32(cell)) {
				if start[dir*n+int(u)] >= start[dir*n+cell] {
					t.Fatalf("start order violates upwind edge %d->%d in dir %d", u, cell, dir)
				}
			}
		}
	}
}

func TestUpwindDownwindMirror(t *testing.T) {
	p, _ := tinyProblem(t, Level)
	for dir, d := range p.inst.DAGs {
		for cell := int32(0); cell < int32(p.N()); cell++ {
			for _, w := range d.Out(cell) {
				found := false
				for _, u := range d.In(w) {
					if u == cell {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("downwind edge %d->%d not mirrored upwind (dir %d)", cell, w, dir)
				}
			}
		}
	}
}

// TestStretchedScheduleExecutesInBoundedMemory: a comm-delay schedule's
// makespan can be a thousand times its task count — here 2,520 tasks on
// 64 processors with a delay of 65,536 steps per cross edge — and no
// executor may size a table by processors × steps (that table alone was
// 688 MB here). The simulation, the serial solve and the batched parallel
// solve each allocate under 16 MB, and the parallel flux is the serial
// one bit for bit: the machine passes over the idle steps without missing
// an envelope.
func TestStretchedScheduleExecutesInBoundedMemory(t *testing.T) {
	const budget = 16 << 20
	p, err := NewProblemFromFamily("tetonly", 0.02, 4, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ScheduleComm(RandomDelaysPriority, ScheduleOptions{Seed: 1}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	tasks := len(res.Schedule.Start)
	if res.Metrics.Makespan < 500*tasks {
		t.Fatalf("makespan %d is not stretched past 500× the %d tasks", res.Metrics.Makespan, tasks)
	}
	cfg := TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1, MaxIters: 2}
	var serial, parallel *TransportResult
	for _, run := range []struct {
		name string
		f    func() error
	}{
		{"Simulate", func() error { _, err := p.Simulate(res); return err }},
		{"SolveTransport", func() (err error) { serial, err = p.SolveTransport(res, cfg); return err }},
		{"SolveTransportParallel", func() (err error) { parallel, err = p.SolveTransportParallel(res, cfg); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run.f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
			t.Fatalf("%s allocated %d bytes for %d tasks over %d steps (budget %d)", run.name, got, tasks, res.Metrics.Makespan, budget)
		}
	}
	if !slices.Equal(parallel.Phi, serial.Phi) {
		t.Fatal("the batched parallel solve's flux differs from the serial solve's")
	}
}

// TestStretchedScheduleSimulatesFaultyInBoundedTime: the fault engine
// passes over the empty steps of the same stretched schedule (2,687,027
// barrier steps for 1,260 tasks), as Simulate does, and still counts
// them: the RecoveryReports are those of the engine that ran every step,
// which took about 100 times Simulate's time on the fault-free plan. The
// faulted run recovers under the schedule's delay, so it stays stretched
// and both planned crashes fire; its penalty is negative because at each
// cut a done predecessor owes no wait (internal/faults' package doc).
func TestStretchedScheduleSimulatesFaultyInBoundedTime(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.02, 4, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ScheduleComm(RandomDelaysPriority, ScheduleOptions{Seed: 1}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := p.Simulate(res); err != nil {
		t.Fatal(err)
	}
	budget := 20*time.Since(start) + time.Second
	for _, c := range []struct {
		spec FaultSpec
		want string
	}{
		{FaultSpec{}, "recovery: seed=0x1 faults{crash=0 drop=0 delay=0 dup=0} epochs=1 recoveries=0 replayed=0 steps=2687027 faultfree=2687027 penalty=0 msgs=4342 rounds=765 dead=[] residual_bound=0"},
		{FaultSpec{Crashes: 2, Drops: 3, Delays: 3, Duplicates: 2}, "recovery: seed=0x1 faults{crash=2 drop=3 delay=3 dup=2} epochs=5 recoveries=4 replayed=0 steps=2537153 faultfree=2687027 penalty=-149874 msgs=4346 rounds=603 dead=[35 62] residual_bound=9"},
	} {
		start := time.Now()
		_, rep, err := p.SimulateFaulty(context.Background(), res, NewFaultPlan(res, c.spec, 1))
		if took := time.Since(start); took > budget {
			t.Errorf("%+v: SimulateFaulty took %v, over %v (20 Simulates and a second)", c.spec, took, budget)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.String(); got != c.want {
			t.Errorf("%+v: report\n%s\nwant\n%s", c.spec, got, c.want)
		}
	}
}

// TestStretchedScheduleRecoversUnderItsDelay: recovery reschedules under
// the delay the schedule was built for. On the delay-65,536 schedule
// above, run under the auditor, the planned crashes fire — a reschedule
// under c = 0 finishes the sweep before either is due — and every
// reschedule passes verify.Schedule under its rule (verify.RuleOpts),
// which holds each cross-processor edge between two not-done tasks to the
// delay it ran under.
func TestStretchedScheduleRecoversUnderItsDelay(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.02, 4, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ScheduleComm(RandomDelaysPriority, ScheduleOptions{Seed: 1}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	spec := FaultSpec{Crashes: 2, Drops: 3, Delays: 3, Duplicates: 2}
	cfg := transport.DependencyOnly
	cfg.Verify = true
	_, rep, err := transport.SolveFaultTolerant(context.Background(), res.Schedule, cfg, NewFaultPlan(res, spec, 1))
	if err != nil {
		t.Fatalf("a reschedule or the accounting failed the audit: %v", err)
	}
	if rep.Crashes != spec.Crashes || len(rep.DeadProcs) != spec.Crashes || rep.Recoveries == 0 {
		t.Fatalf("%s: want both planned crashes applied and recovered from", rep)
	}
	// Under the delay the residual stays stretched: far more steps than
	// the 1,260 tasks a c = 0 reschedule packs into a few hundred.
	if rep.StepsExecuted < res.Metrics.Makespan/2 {
		t.Fatalf("%s: the recovered run took %d steps, under half the fault-free %d", rep, rep.StepsExecuted, res.Metrics.Makespan)
	}
}

// TestSolveAuditHoldsTheRecordedDelay: an audited solve holds the schedule
// to the delay it records. A delay-4 schedule claiming delay 8 has edges
// without that gap, and the solve refuses it before sweeping.
func TestSolveAuditHoldsTheRecordedDelay(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ScheduleComm(Level, ScheduleOptions{Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1, MaxIters: 2, Verify: true}
	if _, err := p.SolveTransport(res, cfg); err != nil {
		t.Fatalf("the schedule under its own delay: %v", err)
	}
	res.Schedule.CommDelay = 8
	if _, err := p.SolveTransport(res, cfg); err == nil || !strings.Contains(err.Error(), "failed the audit") {
		t.Fatalf("a schedule claiming a delay it does not keep: solve says %v", err)
	}
}
