package simulate

import (
	"context"
	"errors"
	"testing"
	"time"

	"sweepsched/internal/faults"
	"sweepsched/internal/leakcheck"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// corruption mutates a valid schedule into an infeasible one.
type corruption struct {
	name  string
	apply func(t *testing.T, s *sched.Schedule)
}

func firstCrossEdge(t *testing.T, s *sched.Schedule) (ut, wt sched.TaskID) {
	t.Helper()
	inst := s.Inst
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		base := sched.TaskID(int32(i) * n)
		for u := int32(0); u < n; u++ {
			for _, w := range d.Out(u) {
				if s.Assign[u] != s.Assign[w] {
					return base + sched.TaskID(u), base + sched.TaskID(w)
				}
			}
		}
	}
	t.Fatal("no cross-processor edge in schedule")
	return 0, 0
}

// localOnlyProducer finds a task whose out-edges all stay on its own
// processor (and that has one), and the latest start among its consumers:
// a precedence no message enforces.
func localOnlyProducer(t *testing.T, s *sched.Schedule) (ut sched.TaskID, lastConsumer int32) {
	t.Helper()
	inst := s.Inst
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		base := sched.TaskID(int32(i) * n)
	cells:
		for u := int32(0); u < n; u++ {
			last := int32(-1)
			for _, w := range d.Out(u) {
				if s.Assign[u] != s.Assign[w] {
					continue cells
				}
				last = max(last, s.Start[base+sched.TaskID(w)])
			}
			if last >= 0 {
				return base + sched.TaskID(u), last
			}
		}
	}
	t.Fatal("no producer with only same-processor consumers in schedule")
	return 0, 0
}

func corruptions() []corruption {
	return []corruption{
		{"swapped edge starts", func(t *testing.T, s *sched.Schedule) {
			ut, wt := firstCrossEdge(t, s)
			s.Start[ut], s.Start[wt] = s.Start[wt], s.Start[ut]
		}},
		{"consumer shifted onto producer step", func(t *testing.T, s *sched.Schedule) {
			ut, wt := firstCrossEdge(t, s)
			s.Start[wt] = s.Start[ut] // cross-proc flux cannot arrive in time
		}},
		{"producer shifted past makespan order", func(t *testing.T, s *sched.Schedule) {
			ut, wt := firstCrossEdge(t, s)
			s.Start[ut] = s.Start[wt] + 1
			if int(s.Start[ut]) >= s.Makespan {
				s.Makespan = int(s.Start[ut]) + 1
			}
		}},
		{"local producer moved past its last consumer", func(t *testing.T, s *sched.Schedule) {
			ut, last := localOnlyProducer(t, s)
			s.Start[ut] = last + 1 // breaks no cross-processor edge: only the done check sees it
			s.Makespan = max(s.Makespan, int(s.Start[ut])+1)
		}},
	}
}

// TestInfeasibleSchedulesRejectedEverywhere feeds corrupted schedules to
// every executor — the simulator, the fault engine under the empty plan,
// and the transport solves, serial, on the machine (both interconnects)
// and fault-tolerant — and asserts an error, never a result, with no panic
// and no leaked goroutines.
func TestInfeasibleSchedulesRejectedEverywhere(t *testing.T) {
	for _, c := range corruptions() {
		t.Run(c.name, func(t *testing.T) {
			s := testSchedule(t, 4, 4)
			c.apply(t, s)
			leakcheck.Check(t, func() {
				if _, err := RunCtx(context.Background(), s); err == nil {
					t.Error("Run accepted an infeasible schedule")
				}
			})
			leakcheck.Check(t, func() {
				// The fault engine must blame the schedule, not a fault.
				_, _, err := RunFaulty(context.Background(), s, nil)
				if err == nil {
					t.Error("RunFaulty accepted an infeasible schedule")
				}
			})
			cfg := transport.Config{SigmaT: 1, SigmaS: 0.5, Source: 1, MaxIters: 3}
			unbatched := cfg
			unbatched.NoBatch = true
			for _, ex := range []struct {
				name  string
				solve func() (*transport.Result, error)
			}{
				{"Solve", func() (*transport.Result, error) { return transport.SolveCtx(context.Background(), s, cfg) }},
				{"SolveParallel", func() (*transport.Result, error) { return transport.SolveParallelCtx(context.Background(), s, cfg) }},
				{"SolveParallel NoBatch", func() (*transport.Result, error) {
					return transport.SolveParallelCtx(context.Background(), s, unbatched)
				}},
				{"SolveFaultTolerant", func() (*transport.Result, error) {
					res, _, err := transport.SolveFaultTolerant(context.Background(), s, cfg, nil)
					return res, err
				}},
			} {
				leakcheck.Check(t, func() {
					if res, err := ex.solve(); err == nil || res != nil {
						t.Errorf("transport.%s accepted an infeasible schedule (a flux: %v)", ex.name, res != nil)
					}
				})
			}
		})
	}
}

func TestRunCtxCancellation(t *testing.T) {
	s := testSchedule(t, 4, 5)
	leakcheck.Check(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := RunCtx(ctx, s); !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})
	leakcheck.Check(t, func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		for {
			if _, err := RunCtx(ctx, s); err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("got %v, want context.DeadlineExceeded", err)
				}
				return
			}
		}
	})
}

// TestRunFaultyEmptyPlanMatchesRun checks the fault engine's fault-free
// accounting agrees exactly with the plain simulator.
func TestRunFaultyEmptyPlanMatchesRun(t *testing.T) {
	s := testSchedule(t, 4, 6)
	want, err := RunCtx(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := RunFaulty(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("fault-free RunFaulty %+v != Run %+v", got, want)
	}
	if rep.Epochs != 1 || rep.Recoveries != 0 || rep.Penalty() != 0 {
		t.Fatalf("fault-free report shows recovery: %s", rep)
	}
}

func TestRunFaultyCrashPlanRecovers(t *testing.T) {
	s := testSchedule(t, 4, 7)
	plan := faults.NewPlan(s, faults.Spec{Crashes: 2}, 5)
	leakcheck.Check(t, func() {
		got, rep, err := RunFaulty(context.Background(), s, plan)
		if err != nil {
			t.Fatalf("%v (report %s)", err, rep)
		}
		if rep.Crashes != 2 || len(rep.DeadProcs) != 2 {
			t.Fatalf("report %s, want 2 applied crashes", rep)
		}
		if got.Steps != rep.StepsExecuted {
			t.Fatalf("result steps %d != report steps %d", got.Steps, rep.StepsExecuted)
		}
	})
}
