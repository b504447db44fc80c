package transport

import (
	"context"
	"errors"
	"testing"

	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
)

// cancelAfter is a context whose Err turns to context.Canceled after it
// has been asked a fixed number of times: the machine asks once per
// step, so the cancellation lands mid-sweep, deterministically.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// TestCollectorSeesEveryExecutor holds Config.Collector to what its comment
// promises of any solve: transport.iterations counts the sweeps and the
// transport.solve.time span is recorded on the serial, the parallel and the
// fault-tolerant executor alike; the comm.* counters equal Result.Comm on
// both interconnects; and they are posted when a sweep or a fault epoch
// returns, on every path, so a solve cancelled mid-sweep has reported the
// messages it sent.
func TestCollectorSeesEveryExecutor(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 11)
	ctx := context.Background()
	executors := []struct {
		name  string
		comms bool
		solve func(context.Context, *sched.Schedule, Config) (*Result, error)
	}{
		{"Solve", false, SolveCtx},
		{"SolveParallel", true, solveParallel},
		{"SolveFaultTolerant", true, func(ctx context.Context, s *sched.Schedule, cfg Config) (*Result, error) {
			res, _, err := SolveFaultTolerant(ctx, s, cfg, nil)
			return res, err
		}},
	}
	for _, ex := range executors {
		for _, noBatch := range []bool{false, true} {
			cfg := testCfg
			cfg.NoBatch = noBatch
			cfg.Collector = obs.New()
			res, err := ex.solve(ctx, s, cfg)
			if err != nil {
				t.Fatalf("%s noBatch=%v: %v", ex.name, noBatch, err)
			}
			snap := cfg.Collector.Snapshot()
			if got := snap.CounterValue("transport.iterations"); got != int64(res.Iterations) {
				t.Errorf("%s noBatch=%v: transport.iterations counter %d, Result.Iterations %d", ex.name, noBatch, got, res.Iterations)
			}
			if got := cfg.Collector.Timer("transport.solve.time").Count(); got != 1 {
				t.Errorf("%s noBatch=%v: transport.solve.time recorded %d spans, want 1", ex.name, noBatch, got)
			}
			if ex.comms && res.Comm.Messages == 0 {
				t.Fatalf("%s noBatch=%v: no traffic observed", ex.name, noBatch)
			}
			for _, c := range []struct {
				name string
				want int64
			}{
				{"comm.messages", res.Comm.Messages},
				{"comm.batches", res.Comm.Batches},
				{"comm.bytes", res.Comm.Bytes},
			} {
				if got := snap.CounterValue(c.name); got != c.want {
					t.Errorf("%s noBatch=%v: %s counter %d, Result.Comm has %d", ex.name, noBatch, c.name, got, c.want)
				}
			}
		}
	}
	for _, ex := range executors {
		if !ex.comms {
			continue
		}
		cfg := testCfg
		cfg.Collector = obs.New()
		_, err := ex.solve(&cancelAfter{Context: ctx, left: s.Makespan / 2}, s, cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled mid-sweep, got %v", ex.name, err)
		}
		if got := cfg.Collector.Snapshot().CounterValue("comm.messages"); got == 0 {
			t.Errorf("%s: cancelled mid-sweep after half a sweep's steps, comm.messages counter is 0", ex.name)
		}
	}
}
