package transport

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sweepsched/internal/faults"
	"sweepsched/internal/leakcheck"
)

func TestValidateWeightsAndSourceFieldLengths(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 1) // k=4 directions
	n := s.Inst.N()
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"short weights", Config{SigmaT: 1, Source: 1, Weights: []float64{1, 1}}, "angular weights"},
		{"long weights", Config{SigmaT: 1, Source: 1, Weights: make([]float64, 9)}, "angular weights"},
		{"short source field", Config{SigmaT: 1, SourceField: make([]float64, n-1)}, "source field"},
		{"long source field", Config{SigmaT: 1, SourceField: make([]float64, n+3)}, "source field"},
	}
	for _, tc := range cases {
		for i := range tc.cfg.Weights {
			tc.cfg.Weights[i] = 1
		}
		if _, err := SolveCtx(context.Background(), s, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Solve err = %v, want mention of %q", tc.name, err, tc.want)
		}
		if _, err := solveParallel(context.Background(), s, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: SolveParallel err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// Correct lengths still pass.
	okCfg := Config{SigmaT: 1, Source: 1, Weights: []float64{1, 1, 1, 1}, SourceField: make([]float64, n)}
	for i := range okCfg.SourceField {
		okCfg.SourceField[i] = 1
	}
	if _, err := SolveCtx(context.Background(), s, okCfg); err != nil {
		t.Fatalf("valid lengths rejected: %v", err)
	}
}

// TestFaultTolerantCrashOnlyBitwiseIdentical is the PR's headline
// acceptance criterion: under a crash-only plan with at least one
// survivor, the recovered flux is bitwise-identical to the serial solve
// and the recovery report is byte-for-byte reproducible across runs.
func TestFaultTolerantCrashOnlyBitwiseIdentical(t *testing.T) {
	s := testSchedule(t, 3, 8, 6, 3)
	want, err := SolveCtx(context.Background(), s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, crashes := range []int{1, 2, 5} {
		plan := faults.NewPlan(s, faults.Spec{Crashes: crashes}, 99)
		if !plan.CrashOnly() {
			t.Fatalf("plan not crash-only: %s", plan)
		}
		var first string
		for run := 0; run < 2; run++ {
			res, rep, err := SolveFaultTolerant(context.Background(), s, testCfg, plan)
			if err != nil {
				t.Fatalf("crashes=%d run=%d: %v", crashes, run, err)
			}
			if !res.Converged {
				t.Fatalf("crashes=%d: did not converge", crashes)
			}
			for v := range want.Phi {
				if res.Phi[v] != want.Phi[v] {
					t.Fatalf("crashes=%d: flux differs at cell %d: %g != %g",
						crashes, v, res.Phi[v], want.Phi[v])
				}
			}
			if run == 0 {
				first = rep.String()
			} else if got := rep.String(); got != first {
				t.Fatalf("crashes=%d: report differs across runs:\n%s\n%s", crashes, first, got)
			}
		}
	}
}

func TestFaultTolerantMixedFaultsBitwiseIdentical(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 4)
	want, err := SolveCtx(context.Background(), s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(s, faults.Spec{Crashes: 2, Drops: 3, Delays: 2, Duplicates: 2}, 7)
	res, rep, err := SolveFaultTolerant(context.Background(), s, testCfg, plan)
	if err != nil {
		t.Fatalf("%v (report %s)", err, rep)
	}
	for v := range want.Phi {
		if res.Phi[v] != want.Phi[v] {
			t.Fatalf("flux differs at cell %d: %g != %g", v, res.Phi[v], want.Phi[v])
		}
	}
	if rep.Crashes != 2 {
		t.Fatalf("report: %s, want 2 applied crashes", rep)
	}
}

func TestFaultTolerantAllCrashedReturnsTypedError(t *testing.T) {
	s := testSchedule(t, 2, 4, 3, 5)
	var events []faults.Event
	for p := int32(0); p < 3; p++ {
		events = append(events, faults.Event{Kind: faults.Crash, Proc: p, Step: 0})
	}
	leakcheck.Check(t, func() {
		_, rep, err := SolveFaultTolerant(context.Background(), s, testCfg, &faults.Plan{Seed: 1, Events: events})
		var ue *faults.UnrecoverableError
		if !errors.As(err, &ue) {
			t.Fatalf("got %v, want *UnrecoverableError", err)
		}
		if rep == nil || rep.Crashes != 3 {
			t.Fatalf("report %s, want 3 applied crashes", rep)
		}
	})
}

// TestSolveParallelCtxCancellation: the modelled machine returns the
// context's error, for a transport solve and for the dependency-only run
// a simulation is, and leaks nothing.
func TestSolveParallelCtxCancellation(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 6)
	leakcheck.Check(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for name, cfg := range map[string]Config{"transport": testCfg, "DependencyOnly": DependencyOnly} {
			if _, err := solveParallel(ctx, s, cfg); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: got %v, want context.Canceled", name, err)
			}
		}
	})
	leakcheck.Check(t, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		defer cancel()
		// Repeat until the deadline lands mid-solve or the solve finishes
		// first; either way no goroutine may leak.
		for {
			_, err := solveParallel(ctx, s, testCfg)
			if err != nil {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("got %v, want context.DeadlineExceeded", err)
				}
				return
			}
		}
	})
}

func TestSolveCtxCancellation(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveCtx(ctx, s, testCfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestFaultTolerantCancellation(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 8)
	plan := faults.NewPlan(s, faults.Spec{Crashes: 1}, 3)
	leakcheck.Check(t, func() {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(3 * time.Millisecond)
			cancel()
		}()
		_, _, err := SolveFaultTolerant(ctx, s, testCfg, plan)
		// The solve may legitimately finish before the cancel lands; if it
		// did not, the error must be the context's.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled or nil", err)
		}
	})
}
