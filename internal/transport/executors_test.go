package transport

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"sweepsched/internal/faults"
	"sweepsched/internal/sched"
)

// TestExecutorsMatchSerialAtEveryMachineSize is the step driver's contract
// at the executors' level: whatever the modelled machine — one processor,
// three, 64, a live set that crashes down to one processor mid-run — the
// flux is bitwise the serial solve's on both interconnects, and the two
// interconnects agree on everything but the transmissions.
func TestExecutorsMatchSerialAtEveryMachineSize(t *testing.T) {
	loose := testCfg
	loose.Tol = 1e-5 // a third of the sweeps
	for _, m := range []int{1, 3, 64} {
		s := testSchedule(t, 3, 4, m, uint64(20+m))
		want, err := SolveCtx(context.Background(), s, loose)
		if err != nil {
			t.Fatal(err)
		}
		plans := []*faults.Plan{
			nil,
			faults.NewPlan(s, faults.Spec{Crashes: m - 1, Drops: 3, Delays: 2, Duplicates: 2}, 7),
		}
		var batched string
		for _, noBatch := range []bool{false, true} {
			cfg := loose
			cfg.NoBatch = noBatch
			par, err := SolveParallelCtx(context.Background(), s, cfg)
			if err != nil {
				t.Fatalf("m=%d nobatch=%v: %v", m, noBatch, err)
			}
			samePhi(t, fmt.Sprintf("m=%d nobatch=%v parallel", m, noBatch), par.Phi, want.Phi)
			got := fmt.Sprintf("parallel msgs=%d rounds=%d iters=%d", par.Comm.Messages, par.Comm.Rounds, par.Iterations)
			for pi, plan := range plans {
				ft, rep, err := SolveFaultTolerant(context.Background(), s, cfg, plan)
				if err != nil {
					t.Fatalf("m=%d nobatch=%v plan %d: %v (report %s)", m, noBatch, pi, err, rep)
				}
				samePhi(t, fmt.Sprintf("m=%d nobatch=%v plan %d", m, noBatch, pi), ft.Phi, want.Phi)
				got += fmt.Sprintf("\nplan %d msgs=%d rounds=%d %s", pi, ft.Comm.Messages, ft.Comm.Rounds, rep)
			}
			if !noBatch {
				batched = got
			} else if got != batched {
				t.Fatalf("m=%d: the per-message interconnect differs from the batched one:\n%s\n--- vs ---\n%s", m, got, batched)
			}
		}
	}
}

func samePhi(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: flux differs from the serial solve at cell %d: %g != %g", what, v, got[v], want[v])
		}
	}
}

// TestSolveParallelAddsNoGoroutinePerProcessor: a sweep over 64 modelled
// processors runs on the caller's goroutine — counted from inside the
// cell balance, mid-step.
func TestSolveParallelAddsNoGoroutinePerProcessor(t *testing.T) {
	s := testSchedule(t, 3, 8, 64, 5)
	ps, err := newParallelSolve(s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	before, most := runtime.NumGoroutine(), 0
	balance := ps.compute
	ps.compute = func(tsk sched.TaskID, inflow float64) float64 {
		most = max(most, runtime.NumGoroutine()-before)
		return balance(tsk, inflow)
	}
	if err := ps.sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ps.res.Comm.Messages == 0 || most > 0 {
		t.Fatalf("a 64-processor sweep sent %d messages and added %d goroutines", ps.res.Comm.Messages, most)
	}
}

// TestCancellationInsideAStep cancels a parallel and a fault-tolerant
// solve from inside a cell balance — mid-step — at the first step of a
// sweep, in the middle and at its last step: the solve returns ctx.Err()
// no later than the next step it would open (for the last step, the next
// sweep's first).
func TestCancellationInsideAStep(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 6)
	last := int32(s.Makespan - 1)
	for _, at := range []int32{0, last / 2, last} {
		for _, faulty := range []bool{false, true} {
			ctx, cancel := context.WithCancel(context.Background())
			ran := 0 // cell balances after the cancelling step's own
			compute := func(tsk sched.TaskID, inflow float64) float64 {
				if ctx.Err() != nil && s.Start[tsk] != at {
					ran++
				}
				if s.Start[tsk] == at {
					cancel()
				}
				return inflow + 1
			}
			sweep := cancellableSweep(t, s, compute, faulty)
			err := sweep(ctx)
			if err == nil && at == last {
				err = sweep(ctx)
			}
			cancel()
			if !errors.Is(err, context.Canceled) || ran != 0 {
				t.Fatalf("step %d faulty=%v: got %v after %d more cell balances, want context.Canceled after none",
					at, faulty, err, ran)
			}
		}
	}
}

// cancellableSweep returns one executor's sweep function with its cell
// balance replaced by compute.
func cancellableSweep(t *testing.T, s *sched.Schedule, compute faults.Compute, faulty bool) func(context.Context) error {
	if faulty {
		eng, err := faults.NewEngine(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		psi := make([]float64, s.Inst.NTasks())
		return func(ctx context.Context) error { return eng.Sweep(ctx, compute, psi) }
	}
	ps, err := newParallelSolve(s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	ps.compute = compute
	return ps.sweep
}
