package machine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/sched"
)

// ring is the sweep the barrier-step contract is checked on: one
// direction, steps×len(procs) cells, cell st·L+j on processor procs[j] at
// step st, each sending its flux to the next processor's cell of the next
// step (its own processor's, with one). Every processor runs one task at
// every step, and with L > 1 every step sends L messages, which batched
// are L envelopes flushed at the barrier opening the next step.
func ring(t *testing.T, m int, procs []int32, steps int) *Machine {
	t.Helper()
	return ringOf(t, ringSchedule(t, m, procs, steps), procs)
}

// ringOf is a machine for ring's schedule, or one made from it, with the
// given live set.
func ringOf(t *testing.T, s *sched.Schedule, procs []int32) *Machine {
	t.Helper()
	mc, err := newMachine(s, false, make([]float64, s.Inst.NTasks()))
	if err != nil {
		t.Fatal(err)
	}
	mc.Balance, mc.Procs = plusID(s.Inst.N()), procs
	return mc
}

// ringSchedule is ring's schedule.
func ringSchedule(t *testing.T, m int, procs []int32, steps int) *sched.Schedule {
	t.Helper()
	L := len(procs)
	var edges [][2]int32
	for st := 0; st+1 < steps; st++ {
		for j := range L {
			edges = append(edges, [2]int32{int32(st*L + j), int32((st+1)*L + (j+1)%L)})
		}
	}
	d, err := dag.FromEdges(steps*L, edges)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, m)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{Inst: inst, Assign: make(sched.Assignment, steps*L), Start: make([]int32, steps*L), Makespan: steps}
	for c := range s.Start {
		s.Assign[c], s.Start[c] = procs[c%L], int32(c/L)
	}
	return s
}

// barriers is a context that counts how often a sweep asks whether it is
// done — once before every step — and lets a test look in each time.
type barriers struct {
	context.Context
	asked int32
	at    func(step int32)
}

func (b *barriers) Err() error {
	if b.at != nil {
		b.at(b.asked)
	}
	b.asked++
	return b.Context.Err()
}

// doneThrough reports whether exactly the ring's tasks of steps before
// step are done.
func doneThrough(m *Machine, step int32) bool {
	L := int32(len(m.Done)) / m.Steps.Steps() // cells per step
	for c, done := range m.Done {
		if done != (int32(c)/L < step) {
			return false
		}
	}
	return true
}

// TestSweepStepOrder: stepped (refSweep), per step the ctx check,
// OpenStep, every live processor's body once in ascending order, then
// CloseStep — for one processor, many, and a sparse live set. With the
// sends intercepted, CloseStep hands them over in the order the bodies
// produced them, onto a Wire that puts each in its slot; at that point the
// step's envelopes are flushed, its tasks are done and its messages not
// yet folded. Flat (Sweep), the same steps without the barriers: before
// step st exactly the tasks of the earlier steps are done, and Comm moves
// only when the sweep ends, by the record it was given.
func TestSweepStepOrder(t *testing.T) {
	for _, c := range []struct {
		m     int
		procs []int32
	}{{1, allProcs(1)}, {64, allProcs(64)}, {13, []int32{1, 4, 5, 9, 12}}} {
		const steps = 60
		m := ring(t, c.m, c.procs, steps)
		L := int64(len(c.procs))
		if L == 1 {
			L = 0 // its one edge per step is local: nothing is sent
		}
		var bad string
		fail := func(format string, a ...any) {
			if bad == "" {
				bad = fmt.Sprintf(format, a...)
			}
		}
		b := &barriers{Context: context.Background()}
		b.at = func(step int32) {
			if !doneThrough(m, step) || m.Comm.Messages != L*int64(step) || m.Comm.Batches != L*int64(max(step-1, 0)) {
				fail("before step %d: done marks or traffic %+v of another step", step, m.Comm)
			}
		}
		var order []int32 // the producers' processors, in hand-over order
		m.Intercept = true
		m.Wire = func(to int32, tsk sched.TaskID, psi float64) {
			step := b.asked - 1
			if !doneThrough(m, step+1) || m.Comm.Messages != L*int64(step) || m.Comm.Batches != L*int64(step) {
				fail("handing over step %d's sends: done marks or traffic %+v of another step", step, m.Comm)
			}
			order = append(order, int32(tsk)%int32(len(c.procs)))
			if err := m.DeliverNamed(tsk, to, psi); err != nil {
				fail("%v", err)
			}
		}
		if err := refSweep(b, m); err != nil {
			t.Fatalf("%d procs: %v", len(c.procs), err)
		}
		if bad != "" {
			t.Fatalf("%d procs: %s", len(c.procs), bad)
		}
		if b.asked != steps || !doneThrough(m, steps) {
			t.Fatalf("%d procs: %d ctx checks for %d steps", len(c.procs), b.asked, steps)
		}
		if int64(len(order)) != L*(steps-1) {
			t.Fatalf("%d procs: %d hand-overs, want %d", len(c.procs), len(order), L*(steps-1))
		}
		for i, j := range order {
			if want := int32(i % len(c.procs)); j != want {
				t.Fatalf("%d procs: hand-over %d from processor %d, want %d (ascending per step)", len(c.procs), i, c.procs[j], c.procs[want])
			}
		}

		rec := m.Comm // one stepped sweep's, from nothing
		m.Wire, m.Intercept = nil, false
		fb := &barriers{Context: context.Background()}
		fb.at = func(step int32) {
			if !doneThrough(m, step) || m.Comm != rec {
				fail("flat, before step %d: done marks or traffic %+v of another step", step, m.Comm)
			}
		}
		if err := m.Sweep(fb, rec); err != nil {
			t.Fatalf("%d procs, flat: %v", len(c.procs), err)
		}
		if bad != "" {
			t.Fatalf("%d procs: %s", len(c.procs), bad)
		}
		if fb.asked != steps || !doneThrough(m, steps) || m.Comm != rec.plus(rec) {
			t.Fatalf("%d procs, flat: %d ctx checks for %d steps, traffic %+v after %+v", len(c.procs), fb.asked, steps, m.Comm, rec)
		}
	}
}

// TestSweepNothingToDo: a machine with no live processor runs its steps
// and does nothing in them.
func TestSweepNothingToDo(t *testing.T) {
	m := ring(t, 4, allProcs(4), 5)
	m.Procs = nil
	if err := refSweep(context.Background(), m); err != nil || !doneThrough(m, 0) || m.Comm != (Stats{}) {
		t.Fatalf("no processors: err %v, traffic %+v", err, m.Comm)
	}
}

// TestSweepStopsAtTheFailingBarrier: a barrier that fails — here a flux
// the Wire never delivers, so every consumer of the step stalls — ends the
// stepped sweep at exactly that step, at the first step a flux can be
// missing at, mid-run and at the last step. A flat sweep stops at the
// first input it finds missing: with the producers of step at-1 moved into
// step at, processor 0's second task there, whose producer on the last
// processor has not run, and the error is the stepped sweep's.
func TestSweepStopsAtTheFailingBarrier(t *testing.T) {
	const steps = 20
	for _, at := range []int32{1, 7, steps - 1} {
		m := ring(t, 8, allProcs(8), steps)
		m.Wire = func(to int32, tsk sched.TaskID, psi float64) {
			if int32(tsk)/8 != at-1 {
				if err := m.DeliverNamed(tsk, to, psi); err != nil {
					t.Error(err)
				}
			}
		}
		b := &barriers{Context: context.Background()}
		var stall *StallError
		err := refSweep(b, m)
		if !errors.As(err, &stall) || stall.Step != at || stall.Proc != 0 {
			t.Fatalf("at=%d: got %v, want processor 0's stall at step %d", at, err, at)
		}
		if b.asked != at+1 || !doneThrough(m, at) {
			t.Fatalf("at=%d: %d ctx checks, or done marks past step %d", at, b.asked, at)
		}

		s := ringSchedule(t, 8, allProcs(8), steps)
		for c := (at - 1) * 8; c < at*8; c++ {
			s.Start[c] = at
		}
		want := refSweep(context.Background(), ringOf(t, s, allProcs(8)))
		fb := &barriers{Context: context.Background()}
		m = ringOf(t, s, allProcs(8))
		err = m.Sweep(fb, Stats{})
		if errText(err) != errText(want) || !errors.As(err, &stall) || *stall != (StallError{Proc: 0, Step: at, Task: sched.TaskID(at * 8), Producer: sched.TaskID(at*8 - 1)}) {
			t.Fatalf("at=%d flat: got %s, want the stepped sweep's %s", at, errText(err), errText(want))
		}
		if fb.asked != at+1 || m.Comm != (Stats{}) {
			t.Fatalf("at=%d flat: %d ctx checks, traffic %+v", at, fb.asked, m.Comm)
		}
	}
}

// TestSweepCancellation cancels a flat sweep before its first step (where
// it resets its receive slots) and at the check before a step mid-run: it
// returns ctx.Err() having run no further step and added nothing to Comm.
// (The stepped loop is the fault engine's; its cancellation tests are
// there.)
func TestSweepCancellation(t *testing.T) {
	const steps, at = 50, 9
	for _, where := range []string{"before", "mid"} {
		m := ring(t, 6, allProcs(6), steps)
		ctx, cancel := context.WithCancel(context.Background())
		b := &barriers{Context: ctx}
		b.at = func(step int32) {
			if step == at+1 {
				cancel()
			}
		}
		if where == "before" {
			cancel()
		}
		err := m.Sweep(b, Stats{Messages: 1})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel %s: got %v", where, err)
		}
		wantAsked, wantDone := int32(at+2), int32(at+1)
		if where == "before" {
			wantAsked, wantDone = 1, 0
		}
		if b.asked != wantAsked || !doneThrough(m, wantDone) || m.Comm != (Stats{}) {
			t.Fatalf("cancel %s: %d ctx checks (want %d), done marks past step %d, or traffic %+v", where, b.asked, wantAsked, wantDone, m.Comm)
		}
	}
}

// TestSweepAddsNothing pins what a modelled processor is not: a
// goroutine. 64 processors run on the caller's goroutine, and a warm flat
// sweep allocates nothing.
func TestSweepAddsNothing(t *testing.T) {
	m := ring(t, 64, allProcs(64), 50)
	rec, err := stepped(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	before, most := runtime.NumGoroutine(), 0
	b := &barriers{Context: context.Background(), at: func(int32) { most = max(most, runtime.NumGoroutine()-before) }}
	sweep := func() {
		if err := m.Sweep(b, rec); err != nil {
			t.Fatal(err)
		}
	}
	sweep()
	if n := testing.AllocsPerRun(20, sweep); n != 0 {
		t.Fatalf("%v allocs per 50-step sweep, want 0", n)
	}
	if most > 0 || m.Comm.Batches == 0 {
		t.Fatalf("%d extra goroutines during the sweep, %d envelopes", most, m.Comm.Batches)
	}
}

// TestStepErrorBeatsStallAndEveryAckIsWritten: in one step processor 1
// stalls (its first task's flux comes from processor 0 in the same step)
// and processor 3 errs (its first task's local input runs a step later).
// Every processor's ack is written — over what was there — with the
// prefix it completed, and the barrier returns processor 3's error, not
// processor 1's stall.
//
//	cell:      0  1  2  3  4  5  6  7
//	processor: 0  1  3  3  2  4  1  3     edges 0 → 1, 3 → 2
//	step:      0  0  0  1  0  0  0  0
func TestStepErrorBeatsStallAndEveryAckIsWritten(t *testing.T) {
	d, err := dag.FromEdges(8, [][2]int32{{0, 1}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 5)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{Inst: inst, Assign: sched.Assignment{0, 1, 3, 3, 2, 4, 1, 3}, Start: []int32{0, 0, 0, 1, 0, 0, 0, 0}, Makespan: 2}
	for _, noBatch := range []bool{false, true} {
		m, err := newMachine(s, noBatch, make([]float64, inst.NTasks()))
		if err != nil {
			t.Fatal(err)
		}
		m.Balance = plusID(inst.N())
		stale := errors.New("stale")
		for p := range m.Acks {
			m.Acks[p] = Ack{Completed: 9, Sent: 9, Stalled: true, StallTask: 7, StallMiss: 7, Err: stale}
		}
		m.Recv.Reset()
		m.OpenStep(0)
		m.Step(0)
		ok := Ack{Completed: 1, StallTask: -1, StallMiss: -1}
		want := []Ack{{Completed: 1, Sent: 1, StallTask: -1, StallMiss: -1}, {Stalled: true, StallTask: 1, StallMiss: 0}, ok, {StallTask: -1, StallMiss: -1, Err: m.Acks[3].Err}, ok}
		for p, a := range m.Acks {
			if a != want[p] {
				t.Fatalf("noBatch=%v: processor %d's ack %+v, want %+v", noBatch, p, a, want[p])
			}
		}
		err = m.CloseStep(0)
		if err == nil || err != m.Acks[3].Err || err.Error() != "machine: proc 3 task 2 at step 0: local input 3 not done" {
			t.Fatalf("noBatch=%v: barrier returned %v, want processor 3's error", noBatch, err)
		}
		if m.Comm.Messages != 1 || m.Comm.Rounds != 1 {
			t.Fatalf("noBatch=%v: traffic %+v, want processor 0's one message", noBatch, m.Comm)
		}
	}
}
