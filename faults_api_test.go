package sweepsched

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"sweepsched/internal/faults"
	"sweepsched/internal/leakcheck"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

func faultTestProblem(t *testing.T) (*Problem, *Result) {
	t.Helper()
	p, err := NewProblemFromFamily("tetonly", 0.02, 8, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestScheduleCtxCancelled(t *testing.T) {
	p, _ := faultTestProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ScheduleCtx(ctx, RandomDelaysPriority, ScheduleOptions{Seed: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSolveTransportCtxVariantsCancelled: a cancelled context stops every
// cancellable solve of a Result's schedule, the way the daemon runs one:
// transport.SolveCtx (SolveTransport's path), transport.SolveFaultTolerant
// with no plan (SolveTransportParallel's) and the same with DependencyOnly
// (Simulate's).
func TestSolveTransportCtxVariantsCancelled(t *testing.T) {
	_, res := faultTestProblem(t)
	cfg := TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := transport.SolveCtx(ctx, res.Schedule, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveCtx: got %v", err)
	}
	if _, _, err := transport.SolveFaultTolerant(ctx, res.Schedule, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveFaultTolerant: got %v", err)
	}
	if _, _, err := transport.SolveFaultTolerant(ctx, res.Schedule, transport.DependencyOnly, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveFaultTolerant(DependencyOnly): got %v", err)
	}
}

func TestFaultPlanRoundTripThroughAPI(t *testing.T) {
	p, res := faultTestProblem(t)
	plan := NewFaultPlan(res, FaultSpec{Crashes: 2, Drops: 2}, 11)
	if len(plan.Events) == 0 {
		t.Fatal("empty plan")
	}

	sr, rep, err := p.SimulateFaulty(context.Background(), res, plan)
	if err != nil {
		t.Fatalf("%v (report %s)", err, rep)
	}
	if sr.Steps != rep.StepsExecuted {
		t.Fatalf("steps %d != report %d", sr.Steps, rep.StepsExecuted)
	}
	if rep.Crashes != 2 {
		t.Fatalf("report %s, want 2 crashes applied", rep)
	}

	cfg := TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1}
	want, err := p.SolveTransport(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := p.SolveTransportFaultTolerant(context.Background(), res, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Phi {
		if got.Phi[v] != want.Phi[v] {
			t.Fatalf("recovered flux differs at cell %d: %g != %g", v, got.Phi[v], want.Phi[v])
		}
	}
}

// TestFaultPlanOutOfRangeRefused: a hand-built plan whose one event names
// a processor or a task the schedule does not have is refused by every
// fault-injected executor, before anything is sized by the event.
func TestFaultPlanOutOfRangeRefused(t *testing.T) {
	p, res := faultTestProblem(t)
	m, nk := int32(p.M()), sched.TaskID(p.Tasks())
	cfg := TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1}
	for _, ev := range []faults.Event{
		{Kind: faults.Drop, Task: nk},
		{Kind: faults.Drop, Task: 1 << 26},
		{Kind: faults.Drop, Task: math.MaxInt32 - 1},
		{Kind: faults.Duplicate, Task: -1},
		{Kind: faults.Delay, To: m, HoldSteps: 1},
		{Kind: faults.Drop, To: -1},
		{Kind: faults.Crash, Proc: m},
		{Kind: faults.Crash, Proc: -1},
		{Kind: faults.Sever, Proc: 16},
	} {
		plan := &FaultPlan{Events: []faults.Event{ev}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, simErr := p.SimulateFaulty(context.Background(), res, plan)
		runtime.ReadMemStats(&after)
		_, _, solveErr := p.SolveTransportFaultTolerant(context.Background(), res, cfg, plan)
		if simErr == nil || solveErr == nil {
			t.Errorf("%+v on %d processors and %d tasks: SimulateFaulty %v, SolveTransportFaultTolerant %v, want both refused",
				ev, m, nk, simErr, solveErr)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%+v: refusing the plan allocated %d bytes", ev, d)
		}
	}
}

// TestResultOfAnotherProblemRefused: every method that executes a result
// refuses one another problem produced, with one error, instead of
// running the other mesh. Two tetonly meshes of the same size make the
// mistake easy. The multi-process solve is refused before a worker is
// spawned: the worker binary does not exist.
func TestResultOfAnotherProblemRefused(t *testing.T) {
	var probs [2]*Problem
	for i := range probs {
		var err error
		if probs[i], err = NewProblemFromFamily("tetonly", 0.01, 4, 2, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	p, q := probs[0], probs[1]
	if p.N() != q.N() {
		t.Fatalf("the meshes have %d and %d cells, want the same", p.N(), q.N())
	}
	res, err := q.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := TransportConfig{SigmaT: 1, Source: 1}
	for name, run := range map[string]func() (bool, error){
		"Simulate": func() (bool, error) {
			sim, err := p.Simulate(res)
			return sim != nil, err
		},
		"SimulateFaulty": func() (bool, error) {
			sim, _, err := p.SimulateFaulty(ctx, res, nil)
			return sim != nil, err
		},
		"SolveTransport": func() (bool, error) {
			tr, err := p.SolveTransport(res, cfg)
			return tr != nil, err
		},
		"SolveTransportParallel": func() (bool, error) {
			tr, err := p.SolveTransportParallel(res, cfg)
			return tr != nil, err
		},
		"SolveTransportFaultTolerant": func() (bool, error) {
			tr, _, err := p.SolveTransportFaultTolerant(ctx, res, cfg, nil)
			return tr != nil, err
		},
		"SolveMultigroup": func() (bool, error) {
			mg, err := p.SolveMultigroup(res, MultigroupConfig{Groups: []GroupSpec{{SigmaT: 1, Source: 1}}, Scatter: [][]float64{{0}}})
			return mg != nil, err
		},
		"SolveTransportProcs": func() (bool, error) {
			opts := ProcRunOptions{CkptDir: t.TempDir(), WorkerBinary: filepath.Join(t.TempDir(), "no-such-worker")}
			pr, err := p.SolveTransportProcs(ctx, res, cfg, nil, opts)
			return pr != nil, err
		},
	} {
		out, err := run()
		if err == nil || err.Error() != "sweepsched: the result was scheduled on another problem" || out {
			t.Errorf("%s: got %v (a result: %v), want the result refused as another problem's", name, err, out)
		}
	}
}

// corruptions mutate a valid schedule into an infeasible one.
var corruptions = []struct {
	name  string
	apply func(t *testing.T, s *sched.Schedule)
}{
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
		s.Makespan = max(s.Makespan, int(s.Start[ut])+1)
	}},
	{"local producer moved past its last consumer", func(t *testing.T, s *sched.Schedule) {
		ut, last := localOnlyProducer(t, s)
		s.Start[ut] = last + 1 // breaks no cross-processor edge: only the done check sees it
		s.Makespan = max(s.Makespan, int(s.Start[ut])+1)
	}},
}

// edges calls visit on every (producer, consumer) task pair until it
// returns true.
func edges(s *sched.Schedule, visit func(u, w sched.TaskID) bool) {
	n := int32(s.Inst.N())
	for i, d := range s.Inst.DAGs {
		base := sched.TaskID(int32(i) * n)
		for u := int32(0); u < n; u++ {
			for _, w := range d.Out(u) {
				if visit(base+sched.TaskID(u), base+sched.TaskID(w)) {
					return
				}
			}
		}
	}
}

func firstCrossEdge(t *testing.T, s *sched.Schedule) (ut, wt sched.TaskID) {
	t.Helper()
	ut, n := sched.TaskID(-1), sched.TaskID(s.Inst.N())
	edges(s, func(u, w sched.TaskID) bool {
		if s.Assign[u%n] != s.Assign[w%n] {
			ut, wt = u, w
			return true
		}
		return false
	})
	if ut < 0 {
		t.Fatal("no cross-processor edge in schedule")
	}
	return ut, wt
}

// localOnlyProducer finds a task whose out-edges all stay on its own
// processor (and that has one), and the latest start among its consumers:
// a precedence no message enforces.
func localOnlyProducer(t *testing.T, s *sched.Schedule) (ut sched.TaskID, lastConsumer int32) {
	t.Helper()
	n := sched.TaskID(s.Inst.N())
	last := make([]int32, s.Inst.NTasks()) // per producer: -1 once a consumer is remote
	for i := range last {
		last[i] = -2
	}
	edges(s, func(u, w sched.TaskID) bool {
		if s.Assign[u%n] != s.Assign[w%n] {
			last[u] = -1
		} else if last[u] != -1 {
			last[u] = max(last[u], s.Start[w])
		}
		return false
	})
	for u, l := range last {
		if l >= 0 {
			return sched.TaskID(u), l
		}
	}
	t.Fatal("no producer with only same-processor consumers in schedule")
	return 0, 0
}

// TestInfeasibleSchedulesRejectedEverywhere feeds corrupted schedules to
// every in-process executor — the simulation, fault-free and under the
// empty plan, and the transport solves, serial, on the machine (both
// interconnects) and fault-tolerant — and asserts an error, never a
// result, with no panic and no leaked goroutines.
func TestInfeasibleSchedulesRejectedEverywhere(t *testing.T) {
	p, valid := faultTestProblem(t)
	cfg := TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1, MaxIters: 3}
	unbatched := cfg
	unbatched.NoBatch = true
	ctx := context.Background()
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			s := *valid.Schedule
			s.Start = slices.Clone(s.Start)
			c.apply(t, &s)
			res := &Result{Schedule: &s}
			for name, run := range map[string]func() (bool, error){
				"Simulate": func() (bool, error) {
					sim, err := p.Simulate(res)
					return sim != nil, err
				},
				"SimulateFaulty": func() (bool, error) {
					sim, _, err := p.SimulateFaulty(ctx, res, nil) // blames the schedule, not a fault
					return sim != nil, err
				},
				"SolveTransport": func() (bool, error) {
					tr, err := p.SolveTransport(res, cfg)
					return tr != nil, err
				},
				"SolveTransportParallel": func() (bool, error) {
					tr, err := p.SolveTransportParallel(res, cfg)
					return tr != nil, err
				},
				"SolveTransportParallel NoBatch": func() (bool, error) {
					tr, err := p.SolveTransportParallel(res, unbatched)
					return tr != nil, err
				},
				"SolveTransportFaultTolerant": func() (bool, error) {
					tr, _, err := p.SolveTransportFaultTolerant(ctx, res, cfg, nil)
					return tr != nil, err
				},
			} {
				leakcheck.Check(t, func() {
					if out, err := run(); err == nil || out {
						t.Errorf("%s accepted an infeasible schedule (a result: %v)", name, out)
					}
				})
			}
		})
	}
}
