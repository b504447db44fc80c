package machine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/synth"
)

// probe is a context that sweeps on several goroutines may ask at once: it
// counts the asks, cancels itself at ask cancelAt (never at 0), and keeps
// the most goroutines it saw beyond those alive when it was made.
type probe struct {
	context.Context
	cancel   context.CancelFunc
	cancelAt int

	mu          sync.Mutex
	asked, base int
	most        int
}

func newProbe(cancelAt int) *probe {
	ctx, cancel := context.WithCancel(context.Background())
	return &probe{Context: ctx, cancel: cancel, cancelAt: cancelAt, base: runtime.NumGoroutine()}
}

func (p *probe) Err() error {
	p.mu.Lock()
	p.asked++
	if p.asked == p.cancelAt {
		p.cancel()
	}
	p.most = max(p.most, runtime.NumGoroutine()-p.base)
	p.mu.Unlock()
	return p.Context.Err()
}

// splitSchedule is a list schedule past sweepCrossover: eight random
// layered DAGs over 1,600 cells (12,800 tasks) on eight processors.
func splitSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	const n, k, m = 1600, 8, 8
	dags, err := synth.LayeredRandom(n, k, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs(dags, m)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{}
	if err := sched.ListScheduleInto(sched.NewWorkspace(), s, inst, sched.RandomAssignment(n, m, rng.New(5)), nil, nil); err != nil {
		t.Fatal(err)
	}
	if inst.NTasks() < sweepCrossover {
		t.Fatalf("%d tasks: below sweepCrossover, nothing would be split", inst.NTasks())
	}
	return s
}

// TestSplitSweepMatchesOneLoop runs flat sweeps past sweepCrossover at
// GOMAXPROCS 1, 2, 3 and 8, so in one loop and in 2, 3 and 8 direction
// blocks side by side. At each setting, on either interconnect, every
// flat sweep of compareSweeps' sequence matches refSweep in Psi's bits,
// Done, Comm and the posted comm.* counters; on each infeasible variant,
// eight violations planted, with a forged record the error is the
// one-loop sweep's, the first in step order; a cancellation
// mid-sweep returns ctx.Err() and adds nothing to Comm; and the context
// sees other goroutines during the sweep exactly when there is more than
// one block.
func TestSplitSweepMatchesOneLoop(t *testing.T) {
	s := splitSchedule(t)
	r := rng.New(9)
	var forged []*sched.Schedule // with violations in several blocks
	for _, kind := range []string{"local", "cross"} {
		v := variant(s, kind, r)
		for range 7 {
			plant(v, kind, r)
		}
		forged = append(forged, v)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := make([]string, len(forged))
	for i, v := range forged {
		m := ringOf(t, v, allProcs(v.Inst.M))
		want[i] = errText(flat(context.Background(), m, Stats{}))
	}
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, noBatch := range []bool{false, true} {
			name := fmt.Sprintf("GOMAXPROCS=%d, noBatch=%v", procs, noBatch)
			if compareSweeps(t, name, s, allProcs(s.Inst.M), noBatch, false, rng.New(3)) == 0 {
				t.Fatalf("%s: no sweep ran flat", name)
			}
		}
		for i, v := range forged {
			m := ringOf(t, v, allProcs(v.Inst.M))
			if got := errText(flat(context.Background(), m, Stats{})); got != want[i] || got == errText(nil) {
				t.Fatalf("GOMAXPROCS=%d, forged %d: flat sweep returned %s, one loop %s", procs, i, got, want[i])
			}
		}

		m := ringOf(t, s, allProcs(s.Inst.M))
		rec, err := stepped(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		ctx := newProbe(0)
		if err := m.Sweep(ctx, rec); err != nil {
			t.Fatal(err)
		}
		if split := len(m.directionBlocks()) > 1; split != (procs > 1) || (ctx.most > 0) != split {
			t.Fatalf("GOMAXPROCS=%d: split %v, %d goroutines beyond the caller's seen during the sweep", procs, split, ctx.most)
		}
		ctx = newProbe(20)
		before := m.Comm
		err = m.Sweep(ctx, rec)
		if !errors.Is(err, context.Canceled) || m.Comm != before {
			t.Fatalf("GOMAXPROCS=%d: cancelled sweep returned %v, traffic %+v after %+v", procs, err, m.Comm, before)
		}
		if !slices.Contains(m.Done, true) || !slices.Contains(m.Done, false) {
			t.Fatalf("GOMAXPROCS=%d: cancelled at ask 20 of %d steps, yet every task or none ran", procs, m.Steps.Steps())
		}
	}
}
