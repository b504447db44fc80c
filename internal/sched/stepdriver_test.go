package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// traceStepper checks the driver's contract from the inside and folds a
// digest the way an executor folds its acks: per-processor slots written
// by RunProc, summed by CloseStep in processor order.
type traceStepper struct {
	procs  []int32
	slot   []int64 // per processor id: what it did this step
	lastP  int32   // the processor RunProc last ran in the open step
	open   int32   // the step OpenStep last opened
	digest int64
	closed int32 // steps CloseStep completed
	bad    string

	openErr, closeErr func(step int32) error
	inRun             func(p, step int32)
}

func newTraceStepper(procs []int32) *traceStepper {
	maxP := int32(0)
	for _, p := range procs {
		maxP = max(maxP, p)
	}
	return &traceStepper{procs: procs, slot: make([]int64, maxP+1), open: -1}
}

func (ts *traceStepper) fail(format string, a ...any) {
	if ts.bad == "" {
		ts.bad = fmt.Sprintf(format, a...)
	}
}

func (ts *traceStepper) OpenStep(step int32) error {
	if step != ts.closed {
		ts.fail("OpenStep(%d) after %d closed steps", step, ts.closed)
	}
	ts.open, ts.lastP = step, -1
	if ts.openErr != nil {
		return ts.openErr(step)
	}
	return nil
}

func (ts *traceStepper) RunProc(p, step int32) {
	if step != ts.open || step != ts.closed {
		ts.fail("RunProc(%d, %d) outside the open step %d", p, step, ts.open)
	}
	if p <= ts.lastP {
		ts.fail("step %d: processor %d ran after %d", step, p, ts.lastP)
	}
	ts.lastP = p
	ts.slot[p] = int64(p+1) * int64(step+1)
	if ts.inRun != nil {
		ts.inRun(p, step)
	}
}

func (ts *traceStepper) CloseStep(step int32) error {
	for _, p := range ts.procs {
		if ts.slot[p] == 0 {
			ts.fail("processor %d missed step %d", p, step)
		}
		ts.digest = ts.digest*31 + ts.slot[p]
		ts.slot[p] = 0
	}
	ts.closed++
	if ts.closeErr != nil {
		return ts.closeErr(step)
	}
	return nil
}

// TestRunStepsOrder: per step OpenStep, every listed processor's body
// exactly once in ascending order, then CloseStep — for one processor,
// many, and a sparse live set.
func TestRunStepsOrder(t *testing.T) {
	for _, procs := range [][]int32{AllProcs(1), AllProcs(64), {1, 4, 5, 9, 12}} {
		const steps = 60
		ts := newTraceStepper(procs)
		if err := RunSteps(context.Background(), procs, steps, ts); err != nil {
			t.Fatalf("%d procs: %v", len(procs), err)
		}
		if ts.bad != "" {
			t.Fatalf("%d procs: %s", len(procs), ts.bad)
		}
		if ts.closed != steps || ts.digest == 0 {
			t.Fatalf("%d procs: closed %d of %d steps, digest %d", len(procs), ts.closed, steps, ts.digest)
		}
	}
}

func TestRunStepsNothingToDo(t *testing.T) {
	ts := newTraceStepper(AllProcs(2))
	if err := RunSteps(context.Background(), nil, 5, ts); err != nil || ts.open != -1 {
		t.Fatalf("no processors: err %v, opened step %d", err, ts.open)
	}
	if err := RunSteps(context.Background(), AllProcs(2), 0, ts); err != nil || ts.open != -1 {
		t.Fatalf("no steps: err %v, opened step %d", err, ts.open)
	}
}

// TestRunStepsStopsWhereTheHookSays covers both hooks ending a run with
// an error, at the first step, mid-run and at the last step: the run ends
// at exactly that step.
func TestRunStepsStopsWhereTheHookSays(t *testing.T) {
	boom := errors.New("boom")
	const steps = 20
	for _, at := range []int32{0, 7, steps - 1} {
		for _, inOpen := range []bool{true, false} {
			ts := newTraceStepper(AllProcs(8))
			hook := func(step int32) error {
				if step == at {
					return boom
				}
				return nil
			}
			wantClosed := at + 1
			if inOpen {
				ts.openErr, wantClosed = hook, at
			} else {
				ts.closeErr = hook
			}
			if err := RunSteps(context.Background(), ts.procs, steps, ts); err != boom {
				t.Fatalf("at=%d open=%v: got %v, want %v", at, inOpen, err, boom)
			}
			if ts.bad != "" {
				t.Fatalf("at=%d open=%v: %s", at, inOpen, ts.bad)
			}
			if ts.closed != wantClosed {
				t.Fatalf("at=%d open=%v: closed %d steps, want %d", at, inOpen, ts.closed, wantClosed)
			}
		}
	}
}

// TestRunStepsCancellation cancels before the first step (where an
// executor resets its receive store), from inside a body and from inside
// the hook: the run returns ctx.Err() having opened no further step.
func TestRunStepsCancellation(t *testing.T) {
	const steps, at = 50, 9
	for _, where := range []string{"before", "body", "hook"} {
		ctx, cancel := context.WithCancel(context.Background())
		ts := newTraceStepper(AllProcs(6))
		switch where {
		case "before":
			cancel()
		case "body":
			ts.inRun = func(p, step int32) {
				if p == 3 && step == at {
					cancel()
				}
			}
		case "hook":
			ts.closeErr = func(step int32) error {
				if step == at {
					cancel()
				}
				return nil
			}
		}
		err := RunSteps(ctx, ts.procs, steps, ts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel in %s: got %v", where, err)
		}
		if ts.bad != "" {
			t.Fatalf("cancel in %s: %s", where, ts.bad)
		}
		wantClosed, wantOpen := int32(at+1), int32(at)
		if where == "before" {
			wantClosed, wantOpen = 0, -1
		}
		if ts.closed != wantClosed || ts.open != wantOpen {
			t.Fatalf("cancel in %s: closed %d steps (want %d), last opened %d (want %d)",
				where, ts.closed, wantClosed, ts.open, wantOpen)
		}
	}
}

// TestRunStepsAddsNothing pins what a modelled processor is not: a
// goroutine. 64 processors run on the caller's goroutine, and the driver
// allocates nothing.
func TestRunStepsAddsNothing(t *testing.T) {
	ts := newTraceStepper(AllProcs(64))
	before := runtime.NumGoroutine()
	ts.closeErr = func(int32) error {
		if n := runtime.NumGoroutine() - before; n > 0 {
			ts.fail("%d extra goroutines during the run", n)
		}
		return nil
	}
	ctx := context.Background()
	if n := testing.AllocsPerRun(20, func() {
		ts.closed = 0
		if err := RunSteps(ctx, ts.procs, 50, ts); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocs per 50-step run, want 0", n)
	}
	if ts.bad != "" {
		t.Fatal(ts.bad)
	}
}
