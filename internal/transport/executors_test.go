package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sweepsched/internal/faults"
	"sweepsched/internal/machine"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// TestExecutorsMatchSerialAtEveryMachineSize is the barrier-step contract
// at the executors' level: whatever the modelled machine — one processor,
// three, 64, more processors than the 162 cells, a live set that crashes
// down to one processor mid-run — the flux is bitwise the serial solve's
// on both interconnects, and the two interconnects agree on everything but
// the transmissions. A DependencyOnly run recounts the schedule's C1 and
// C2 from the messages that flow, as the auditor does from the schedule.
func TestExecutorsMatchSerialAtEveryMachineSize(t *testing.T) {
	loose := testCfg
	loose.Tol = 1e-5 // a third of the sweeps
	for _, m := range []int{1, 3, 64, 200} {
		s := testSchedule(t, 3, 4, m, uint64(20+m))
		want, err := SolveCtx(context.Background(), s, loose)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := solveParallel(context.Background(), s, DependencyOnly)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		c1, c2 := sched.C1(s.Inst, s.Assign, 0), sched.C2(s)
		if dep.Comm.Messages != c1 || dep.Comm.Rounds != c2 || verify.C2Ref(s) != c2 || (m == 1 && c1 != 0) {
			t.Fatalf("m=%d: a dependency-only run sent %d messages in %d rounds, C1 = %d, C2 = %d, C2Ref = %d",
				m, dep.Comm.Messages, dep.Comm.Rounds, c1, c2, verify.C2Ref(s))
		}
		plans := []*faults.Plan{
			nil,
			faults.NewPlan(s, faults.Spec{Crashes: m - 1, Drops: 3, Delays: 2, Duplicates: 2}, 7),
		}
		var batched string
		for _, noBatch := range []bool{false, true} {
			cfg := loose
			cfg.NoBatch = noBatch
			got := ""
			for pi, plan := range plans {
				ft, rep, err := SolveFaultTolerant(context.Background(), s, cfg, plan)
				if err != nil {
					t.Fatalf("m=%d nobatch=%v plan %d: %v (report %s)", m, noBatch, pi, err, rep)
				}
				samePhi(t, fmt.Sprintf("m=%d nobatch=%v plan %d", m, noBatch, pi), ft.Phi, want.Phi)
				got += fmt.Sprintf("\nplan %d msgs=%d rounds=%d iters=%d %s", pi, ft.Comm.Messages, ft.Comm.Rounds, ft.Iterations, rep)
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

// TestNonFiniteInputIsRefusedNotConverged: every executor refuses a NaN
// or infinite cross section, source or tolerance with an error naming it,
// rather than return a NaN flux as converged; and a NaN in the angular
// flux reaches the residual, which no tolerance accepts.
func TestNonFiniteInputIsRefusedNotConverged(t *testing.T) {
	s := testSchedule(t, 3, 4, 3, 7)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"SigmaT", Config{SigmaT: math.NaN(), Source: 1}},
		{"SigmaS", Config{SigmaT: 1, SigmaS: math.NaN(), Source: 1}},
		{"Source", Config{SigmaT: 1, Source: math.NaN()}},
		{"Source", Config{SigmaT: 1, Source: math.Inf(1)}},
		{"Tol", Config{SigmaT: 1, Source: 1, Tol: math.NaN()}},
	} {
		for name, solve := range map[string]func() (*Result, error){
			"serial": func() (*Result, error) { return SolveCtx(context.Background(), s, c.cfg) },
			"faulty": func() (*Result, error) {
				res, _, err := SolveFaultTolerant(context.Background(), s, c.cfg, nil)
				return res, err
			},
		} {
			if res, err := solve(); err == nil || !strings.Contains(err.Error(), c.name+" must be finite") {
				if res != nil {
					err = fmt.Errorf("converged=%v after %d iterations", res.Converged, res.Iterations)
				}
				t.Errorf("%s with a non-finite %s: %v, want an error naming it", name, c.name, err)
			}
		}
	}
	psi := make([]float64, s.Inst.NTasks())
	psi[len(psi)/2] = math.NaN()
	if d := UpdatePhi(s.Inst, psi, make([]float64, s.Inst.N()), testCfg); !math.IsNaN(d) {
		t.Fatalf("a NaN angular flux gives the residual %v, want NaN", d)
	}
}

// solveParallel is SolveTransportParallel's solve: the fault engine with
// no plan, its report dropped.
func solveParallel(ctx context.Context, s *sched.Schedule, cfg Config) (*Result, error) {
	res, _, err := SolveFaultTolerant(ctx, s, cfg, nil)
	return res, err
}

// goroutinesAtSteps is a context that notes, each time a sweep asks it
// whether it is done — before every step, stepped or flat — how many
// goroutines run beyond a baseline.
type goroutinesAtSteps struct {
	context.Context
	before, most, asked int
}

func (g *goroutinesAtSteps) Err() error {
	g.asked++
	g.most = max(g.most, runtime.NumGoroutine()-g.before)
	return g.Context.Err()
}

// TestSolveParallelAddsNoGoroutinePerProcessor: a solve over 64 modelled
// processors runs on the caller's goroutine — counted before every step of
// every sweep, the first stepped and the rest flat.
func TestSolveParallelAddsNoGoroutinePerProcessor(t *testing.T) {
	s := testSchedule(t, 3, 8, 64, 5)
	ctx := &goroutinesAtSteps{Context: context.Background(), before: runtime.NumGoroutine()}
	res, err := solveParallel(ctx, s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Messages == 0 || res.Iterations < 2 || ctx.asked < res.Iterations*s.Makespan || ctx.most > 0 {
		t.Fatalf("a 64-processor solve sent %d messages in %d sweeps, asked ctx %d times and added %d goroutines", res.Comm.Messages, res.Iterations, ctx.asked, ctx.most)
	}
}

// cancelOnFlux is a context cancelled from inside a sweep: once the flux
// of task probe has been written, as the next barrier sees it.
type cancelOnFlux struct {
	context.Context
	cancel context.CancelFunc
	psi    []float64
	probe  sched.TaskID
}

func (c *cancelOnFlux) Err() error {
	if c.psi[c.probe] != 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancellationInsideAStep cancels a fault-free engine's sweep during a
// step — the first step of a sweep, one in the middle and its last — cold
// (the first sweep, stepped) and warm (a later one, flat): the sweep
// returns ctx.Err() without running a task of a later step (for the last
// step, any task of the next sweep).
func TestCancellationInsideAStep(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 6)
	last := int32(s.Makespan - 1)
	for _, at := range []int32{0, last / 2, last} {
		probe := sched.TaskID(slices.Index(s.Start, at))
		for _, warm := range []bool{false, true} {
			psi := make([]float64, s.Inst.NTasks())
			ctx, cancel := context.WithCancel(context.Background())
			mid := &cancelOnFlux{Context: ctx, cancel: cancel, psi: psi, probe: probe}
			sweep := executorSweep(t, s, psi)
			if warm {
				if err := sweep(context.Background()); err != nil {
					t.Fatal(err)
				}
				clear(psi)
			}
			err := sweep(mid)
			ran := func(tsk int) bool { return s.Start[tsk] <= at }
			if err == nil && at == last {
				for tsk := range psi {
					psi[tsk] = -1 // no task of the next sweep runs
				}
				err = sweep(mid)
				ran = func(int) bool { return false }
			}
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("step %d warm=%v: got %v, want context.Canceled", at, warm, err)
			}
			for tsk, v := range psi {
				if ran(tsk) != (v > 0) {
					t.Fatalf("step %d warm=%v: task %d at step %d has flux %v", at, warm, tsk, s.Start[tsk], v)
				}
			}
		}
	}
}

// executorSweep returns a fault-free engine's sweep function into psi,
// from a zero scalar flux.
func executorSweep(t *testing.T, s *sched.Schedule, psi []float64) func(context.Context) error {
	eng, err := faults.NewEngine(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	var bal machine.Balance
	CellBalance(&bal, testCfg, make([]float64, s.Inst.N()))
	return func(ctx context.Context) error { return eng.Sweep(ctx, bal, psi) }
}
