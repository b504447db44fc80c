package machine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sweepsched/internal/comm"
	"sweepsched/internal/dag"
	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
)

// diamond is the hand-built instance the body-level cases run on: one
// direction, five cells on three processors,
//
//	0 → 1, 0 → 2, 0 → 4, 1 → 3, 2 → 3, 4 → 3
//
// with cells 0 and 2 on processor 0, 1 and 3 on processor 1, 4 on
// processor 2: four cross-processor edges (0→1, 0→4, 2→3, 4→3) and two
// local ones (0→2, 1→3). The feasible schedule runs 0 at step 0, then 1,
// 2 and 4, then 3.
func diamond(t testing.TB, start ...int32) *sched.Schedule {
	t.Helper()
	d, err := dag.FromEdges(5, [][2]int32{{0, 1}, {0, 2}, {0, 4}, {1, 3}, {2, 3}, {4, 3}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if start == nil {
		start = []int32{0, 1, 1, 2, 1}
	}
	s := &sched.Schedule{Inst: inst, Assign: sched.Assignment{0, 1, 0, 1, 2}, Start: start}
	for _, st := range start {
		s.Makespan = max(s.Makespan, int(st)+1)
	}
	return s
}

// plusID is the cell balance psi = inflow + v+1 over n cells: every flux
// depends on its cell and its inflow, so a wrong route or a wrong average
// shows.
func plusID(n int) Balance {
	b := Balance{Q: make([]float64, n), Denom: 1}
	for v := range b.Q {
		b.Q[v] = float64(v + 1)
	}
	return b
}

// diamondFlux is plusID's fixed point on the diamond, summed and averaged
// in In order as the body does.
func diamondFlux() []float64 {
	f := []float64{1, 1 + 2, 1 + 3, 0, 1 + 5}
	f[3] = (f[1]+f[2]+f[4])/3 + 4
	return f
}

func newDiamond(t testing.TB, noBatch bool, start ...int32) *Machine {
	t.Helper()
	s := diamond(t, start...)
	m, err := newMachine(s, noBatch, make([]float64, s.Inst.NTasks()))
	if err != nil {
		t.Fatal(err)
	}
	m.Balance = plusID(s.Inst.N())
	return m
}

// TestSweepOnEitherInterconnect: the same fluxes, Messages and Rounds per
// message and batched — Rounds is Σ_step max_p sent (step 0: processor 0
// sends two; step 1: processors 0 and 2 send one each), not the message
// count — and the transmissions each mode's cost model says, stepped
// (refSweep) and flat (Sweep, adding the stepped sweep's record).
func TestSweepOnEitherInterconnect(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		m := newDiamond(t, noBatch)
		col := obs.New()
		m.Observe(col)
		var rec Stats
		for sweep := 1; sweep <= 2; sweep++ {
			var err error
			if sweep == 1 {
				rec, err = stepped(context.Background(), m)
			} else {
				err = flat(context.Background(), m, rec)
			}
			if err != nil {
				t.Fatalf("noBatch=%v sweep %d: %v", noBatch, sweep, err)
			}
			for tsk, want := range diamondFlux() {
				if m.Psi[tsk] != want {
					t.Fatalf("noBatch=%v: task %d flux %v, want %v", noBatch, tsk, m.Psi[tsk], want)
				}
			}
		}
		// Batched, a sweep is three envelopes: {0} to processors 1 and 2 at
		// the barrier opening step 1, {2, 4} to processor 1 opening step 2.
		want := Stats{Messages: 8, Rounds: 6, Batches: 6, Bytes: 2 * (2*comm.BatchWireBytes(1) + comm.BatchWireBytes(2))}
		if noBatch {
			want.Batches, want.Bytes = 8, comm.PerMessageWireBytes(8)
		}
		if m.Comm != want {
			t.Fatalf("noBatch=%v: traffic %+v, want %+v", noBatch, m.Comm, want)
		}
		snap := col.Snapshot()
		if got := (Stats{Messages: snap.CounterValue("comm.messages"), Batches: snap.CounterValue("comm.batches"),
			Bytes: snap.CounterValue("comm.bytes"), Rounds: want.Rounds}); got != want {
			t.Fatalf("noBatch=%v: comm.* counters %+v, want %+v", noBatch, got, want)
		}
	}
}

// TestBodyReportsAMissingFluxAndDecidesNothing: consumer 1 scheduled in
// its producer's own step. Processor 0 runs first and queues the flux, but
// a send is visible from the next step on: processor 1's body stops at the
// empty slot and says which (task, producer) — no error of its own. The
// barrier passes the stall on as a *StallError for its owner to judge; a
// stepped sweep (refSweep) has nothing else to blame and returns it, and a
// flat Sweep, which runs the positions in the same order, stops at the same
// empty slot and returns the same stall.
func TestBodyReportsAMissingFluxAndDecidesNothing(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		m := newDiamond(t, noBatch, 0, 0, 1, 2, 1)
		m.Recv.Reset()
		m.Step(0)
		if a := m.Acks[1]; !a.Stalled || a.StallTask != 1 || a.StallMiss != 0 || a.Err != nil || a.Completed != 0 {
			t.Fatalf("noBatch=%v: processor 1's ack %+v, want a stall of task 1 on task 0 and nothing else", noBatch, a)
		}
		if a := m.Acks[0]; a.Completed != 1 || a.Sent != 2 || a.Stalled {
			t.Fatalf("noBatch=%v: processor 0's ack %+v, want task 0 completed with two sends", noBatch, a)
		}
		var stall *StallError
		if err := m.CloseStep(0); !errors.As(err, &stall) || *stall != (StallError{Proc: 1, Step: 0, Task: 1, Producer: 0}) {
			t.Fatalf("noBatch=%v: barrier returned %v, want the stall of processor 1", noBatch, err)
		}
		for _, err := range []error{
			refSweep(context.Background(), newDiamond(t, noBatch, 0, 0, 1, 2, 1)),
			newDiamond(t, noBatch, 0, 0, 1, 2, 1).Sweep(context.Background(), Stats{}),
		} {
			if !errors.As(err, &stall) || !strings.Contains(err.Error(), "proc 1 task 1 at step 0: flux from task 0 not received") {
				t.Fatalf("noBatch=%v: sweep returned %v", noBatch, err)
			}
		}
	}
}

// TestFluxFromBeforeAResetIsNotSeen: after a full sweep every slot holds a
// flux; Reset forgets them all, so the next epoch's consumer stalls rather
// than read the stale value.
func TestFluxFromBeforeAResetIsNotSeen(t *testing.T) {
	m := newDiamond(t, true)
	if err := m.Sweep(context.Background(), Stats{}); err != nil {
		t.Fatal(err)
	}
	m.Recv.Reset()
	clear(m.Done)
	m.Step(1)
	if a := m.Acks[1]; !a.Stalled || a.StallTask != 1 || a.StallMiss != 0 {
		t.Fatalf("ack %+v after Reset, want a stall of task 1 on task 0", a)
	}
}

// TestLowestProcessorErrorWins: consumers 2 and 3 scheduled before their
// same-processor producers 0 and 1. Both bodies put a local-input error in
// their acks at step 0; the barrier returns processor 0's.
func TestLowestProcessorErrorWins(t *testing.T) {
	m := newDiamond(t, false, 1, 1, 0, 0, 0)
	m.Recv.Reset()
	m.Step(0)
	if m.Acks[0].Err == nil || m.Acks[1].Err == nil || m.Acks[2].Err != nil {
		t.Fatalf("acks %+v: want local-input errors from processors 0 and 1 only", m.Acks)
	}
	err := m.CloseStep(0)
	if err != m.Acks[0].Err || !strings.Contains(err.Error(), "proc 0 task 2 at step 0: local input 0 not done") {
		t.Fatalf("barrier returned %v, want processor 0's error", err)
	}
}

// TestRoutePlacesDurableFluxesAndSkipsTheirDeadlines: with task 0 durable,
// its flux is read from its slots without a message, a slot all of whose
// consumers are durable has no deadline, and the others are due at their
// earliest remaining consumer.
func TestRoutePlacesDurableFluxesAndSkipsTheirDeadlines(t *testing.T) {
	m := newDiamond(t, false)
	clear(m.Done)
	m.Psi[0], m.Psi[4] = 10, 20
	durable := []bool{true, false, false, false, true}
	copy(m.Done, durable)
	s := diamond(t)
	if err := m.Steps.Build(s, nil, durable); err != nil { // a residual epoch's rows
		t.Fatal(err)
	}
	m.Build(s.Inst, s.Assign) // and its routes, laid out in their order
	m.Recv.Reset()
	m.Route(s.Start, durable)
	for _, o := range m.Recv.Out(m.Recv.Pos(0)) {
		if got, have := m.Recv.Load(o.Slot, 0); !have || got != 10 {
			t.Fatalf("durable task 0's slot for processor %d holds (%v, %v) at step 0, want 10", o.To, got, have)
		}
		if o.Due != comm.NoDue {
			t.Fatalf("durable task 0's slot has deadline %d", o.Due)
		}
	}
	if due := m.Recv.Out(m.Recv.Pos(2))[0].Due; due != 2 {
		t.Fatalf("task 2's message to processor 1 due at %d, want 2 (task 3's start)", due)
	}
	for st := range int32(3) {
		m.OpenStep(st)
		m.Step(st)
		if err := m.CloseStep(st); err != nil {
			t.Fatal(err)
		}
	}
	// 1 = 10+2, 2 = 10+3, 3 = (12+13+20)/3 + 4; 0 and 4 did not run.
	if m.Psi[1] != 12 || m.Psi[2] != 13 || m.Psi[3] != 19 || m.Psi[0] != 10 || m.Psi[4] != 20 {
		t.Fatalf("fluxes %v", m.Psi)
	}
	if m.Comm.Messages != 1 { // only 2 → 3: task 0's and 4's were placed, not sent
		t.Fatalf("%d messages, want 1", m.Comm.Messages)
	}
}

// TestRouteIsLinearInAProducersFanOut: a star whose centre, on processor
// 0, feeds 32,768 consumers on processor 1 — one receive slot behind
// 32,768 out-entries — goes through Build, a Route and a Route with half of them
// durable in well under a second, and the slot is due at its earliest
// consumer that is not durable each time. A Route that rescans a
// producer's entries for every entry takes seconds here.
func TestRouteIsLinearInAProducersFanOut(t *testing.T) {
	const fan = 1 << 15
	edges := make([][2]int32, fan)
	for c := range edges {
		edges[c] = [2]int32{0, int32(c + 1)}
	}
	d, err := dag.FromEdges(fan+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{Inst: inst, Assign: make(sched.Assignment, fan+1), Start: make([]int32, fan+1), Makespan: fan + 1}
	for c := 1; c <= fan; c++ {
		s.Assign[c], s.Start[c] = 1, int32(c)
	}
	durable := make([]bool, fan+1)
	for c := 1; c <= fan/2; c++ {
		durable[c] = true
	}
	begin := time.Now()
	m, err := newMachine(s, false, make([]float64, fan+1))
	if err != nil {
		t.Fatal(err)
	}
	dues := []int32{m.Recv.Out(m.Recv.Pos(0))[fan-1].Due}
	m.Route(s.Start, durable)
	dues = append(dues, m.Recv.Out(m.Recv.Pos(0))[0].Due)
	if elapsed := time.Since(begin); elapsed > time.Second {
		t.Fatalf("Build and Route took %v for a fan-out of %d", elapsed, fan)
	}
	if dues[0] != 1 || dues[1] != fan/2+1 {
		t.Fatalf("the centre's slot due at %v, want [1 %d]", dues, fan/2+1)
	}
}

func TestDeliverNamedRejectsWhatHasNoRoute(t *testing.T) {
	m := newDiamond(t, true)
	if err := m.DeliverNamed(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if got, have := m.Recv.Load(m.Recv.Out(m.Recv.Pos(0))[0].Slot, 0); !have || got != 7 {
		t.Fatalf("slot holds (%v, %v) after DeliverNamed", got, have)
	}
	for _, bad := range []struct {
		task sched.TaskID
		to   int32
	}{{-1, 1}, {5, 1}, {1 << 30, 1}, {0, 0}, {3, 1}, {1, 2}} {
		var re *RouteError
		if err := m.DeliverNamed(bad.task, bad.to, 1); !errors.As(err, &re) || re.Task != bad.task || re.To != bad.to {
			t.Errorf("DeliverNamed(%d, %d): %v, want a RouteError naming them", bad.task, bad.to, err)
		}
	}
}

// TestWarmSweepAllocatesNothing: tables, send list, acks and envelopes are
// the machine's; stepped (refSweep: OpenStep, Step and CloseStep per step)
// or flat, a sweep after the first allocates nothing on either
// interconnect.
func TestWarmSweepAllocatesNothing(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		m := newDiamond(t, noBatch)
		rec, err := stepped(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		for name, sweep := range map[string]func() error{
			"stepped": func() error { return refSweep(context.Background(), m) },
			"flat":    func() error { return flat(context.Background(), m, rec) },
		} {
			if n := testing.AllocsPerRun(20, func() {
				if err := sweep(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Fatalf("noBatch=%v: warm %s sweep allocates %v, want 0", noBatch, name, n)
			}
		}
	}
}

// TestReplayedMachineHandsOverWhatTheComputingOneDoes: a second machine —
// the far side of the first, as internal/procrun's orchestrator is of its
// workers — gets every step's completions through Replay and has a Wire.
// It must queue, count and hand over exactly what the computing machine
// does, on both interconnects, its sends handed over or intercepted: the
// same fluxes, the same traffic, and on its Wire, per destination, the
// fluxes the computing machine's processors read from their receive
// slots. A third replays the same accounts and closes its steps with
// refCloseStep; both machines' barriers must return its error and
// traffic. An account that is not a prefix of the processor's row is
// refused.
func TestReplayedMachineHandsOverWhatTheComputingOneDoes(t *testing.T) {
	for _, mode := range []struct{ noBatch, intercept bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		noBatch := mode.noBatch
		near, far, ref := newDiamond(t, noBatch), newDiamond(t, noBatch), newDiamond(t, noBatch)
		far.Balance, ref.Balance = Balance{}, Balance{} // they compute nothing
		far.Intercept, ref.Intercept = mode.intercept, mode.intercept
		type landed struct {
			to   int32
			task sched.TaskID
			psi  float64
		}
		var wire []landed
		far.Wire = func(to int32, task sched.TaskID, psi float64) { wire = append(wire, landed{to, task, psi}) }
		ref.Wire = func(int32, sched.TaskID, float64) {}
		near.Recv.Reset()
		for st := int32(0); st < near.Steps.Steps(); st++ {
			for _, m := range []*Machine{near, far, ref} {
				m.OpenStep(st)
			}
			near.Step(st)
			for _, p := range near.Procs {
				var ran []comm.Item
				for _, tsk := range near.Steps.Tasks(p, st)[:near.Acks[p].Completed] {
					ran = append(ran, comm.Item{Task: tsk, Psi: near.Psi[tsk]})
				}
				for _, m := range []*Machine{far, ref} {
					if err := m.Replay(p, st, ran, near.Acks[p]); err != nil {
						t.Fatalf("%+v step %d proc %d: %v", mode, st, p, err)
					}
					if m.Acks[p] != near.Acks[p] {
						t.Fatalf("%+v step %d proc %d: replayed ack %+v, computed %+v", mode, st, p, m.Acks[p], near.Acks[p])
					}
				}
			}
			wantErr := refCloseStep(ref, st)
			for _, m := range []*Machine{near, far} {
				if err := m.CloseStep(st); errText(err) != errText(wantErr) || err != nil {
					t.Fatalf("%+v step %d: barrier returned %s, the reference's %s", mode, st, errText(err), errText(wantErr))
				}
				if m.Comm != ref.Comm {
					t.Fatalf("%+v step %d: traffic %+v, the reference's %+v", mode, st, m.Comm, ref.Comm)
				}
			}
		}
		for tsk, want := range diamondFlux() {
			if far.Psi[tsk] != want || !far.Done[tsk] {
				t.Fatalf("%+v: replayed task %d flux %v done %v, want %v", mode, tsk, far.Psi[tsk], far.Done[tsk], want)
			}
		}
		if far.Comm != near.Comm {
			t.Fatalf("%+v: replayed traffic %+v, computed %+v", mode, far.Comm, near.Comm)
		}
		f := diamondFlux()
		want := []landed{{1, 0, f[0]}, {2, 0, f[0]}, {1, 2, f[2]}, {1, 4, f[4]}}
		if len(wire) != len(want) {
			t.Fatalf("%+v: %d fluxes landed on the wire, want %d: %v", mode, len(wire), len(want), wire)
		}
		for i := range want {
			if wire[i] != want[i] {
				t.Fatalf("%+v: wire delivery %d is %+v, want %+v", mode, i, wire[i], want[i])
			}
		}

		// What stopped the far body short is the account's; its counts are
		// not. Closed, the step is the stall's, as the reference says.
		stall := Ack{Stalled: true, StallTask: 3, StallMiss: 0, Completed: 9, Sent: 9}
		for _, m := range []*Machine{far, ref} {
			for _, p := range m.Procs {
				if err := m.Replay(p, 1, nil, Ack{}); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Replay(1, 1, nil, stall); err != nil || m.Acks[1] != (Ack{Stalled: true, StallTask: 3, StallMiss: 0}) {
				t.Fatalf("%+v: replayed stall %+v (%v), want the stall and no completions", mode, m.Acks[1], err)
			}
		}
		var se *StallError
		if err, wantErr := far.CloseStep(1), refCloseStep(ref, 1); !errors.As(err, &se) || errText(err) != errText(wantErr) || far.Comm != ref.Comm {
			t.Fatalf("%+v: barrier after a replayed stall returned %s with traffic %+v, the reference's %s with %+v", mode, errText(err), far.Comm, errText(wantErr), ref.Comm)
		}

		var ae *AccountError
		for _, bad := range [][]comm.Item{{{Task: -1}}, {{Task: 5}}, {{Task: 1}}, {{Task: 0}, {Task: 2}}} {
			if err := far.Replay(0, 0, bad, Ack{}); !errors.As(err, &ae) || ae.Proc != 0 || ae.Step != 0 {
				t.Fatalf("%+v: account %v of processor 0's step 0 (row [0]): got %v, want an *AccountError", mode, bad, err)
			}
		}
	}
}

// fork is the smallest instance step visibility shows on: one direction,
// three cells on two processors, 0 → 1 and 0 → 2 with cell 0 on processor
// 0 and cells 1 and 2 on processor 1 — two cross edges into one receive
// slot, read by two consumers.
func fork(t *testing.T, noBatch bool, start ...int32) *Machine {
	t.Helper()
	d, err := dag.FromEdges(3, [][2]int32{{0, 1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{Inst: inst, Assign: sched.Assignment{0, 1, 1}, Start: start}
	for _, st := range start {
		s.Makespan = max(s.Makespan, int(st)+1)
	}
	m, err := newMachine(s, noBatch, make([]float64, inst.NTasks()))
	if err != nil {
		t.Fatal(err)
	}
	m.Balance = plusID(inst.N())
	return m
}

// TestFluxIsVisibleFromTheStepAfterItsProducer pins step visibility at the
// machine: processor 0's body runs first, and hands its flux over at once,
// yet a consumer on processor 1 in the producer's own step stalls, with the
// same *StallError on either interconnect, stepped or flat; one step later
// it runs. A flux
// handed in at step ls (a delayed one that matured) is visible at ls, and
// a consumer at ls-1 stalls on it.
func TestFluxIsVisibleFromTheStepAfterItsProducer(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		var stall *StallError
		sweeps := map[string]func(*Machine) error{
			"stepped": func(m *Machine) error { return refSweep(context.Background(), m) },
			"flat":    func(m *Machine) error { return m.Sweep(context.Background(), Stats{}) },
		}
		for name, sweep := range sweeps {
			err := sweep(fork(t, noBatch, 0, 0, 1))
			if !errors.As(err, &stall) || *stall != (StallError{Proc: 1, Step: 0, Task: 1, Producer: 0}) {
				t.Fatalf("noBatch=%v %s: consumer in its producer's step: %v, want processor 1's stall on task 0 at step 0", noBatch, name, err)
			}
			m := fork(t, noBatch, 0, 1, 1)
			if err := sweep(m); err != nil {
				t.Fatalf("noBatch=%v %s: consumers one step after their producer: %v", noBatch, name, err)
			}
			if want := 1 + 2.0; m.Psi[1] != want {
				t.Fatalf("noBatch=%v %s: task 1's flux %v, want %v", noBatch, name, m.Psi[1], want)
			}
		}

		// Step 0's sends withheld, as a Delay does, and handed in at step 2.
		const ls = 2
		for _, c := range []struct {
			start []int32
			stall bool
		}{{[]int32{0, ls, ls + 1}, false}, {[]int32{0, ls - 1, ls + 1}, true}} {
			m := fork(t, noBatch, c.start...)
			m.Recv.Reset()
			var held []sched.Send
			for st := int32(0); st < m.Steps.Steps(); st++ {
				if st == ls {
					for _, x := range held {
						m.Hand(x, ls)
					}
				}
				m.OpenStep(st)
				m.Intercept = st == 0
				m.Step(st)
				if st == 0 {
					held, m.Sent = append(held, m.Sent...), m.Sent[:0]
				}
				err := m.CloseStep(st)
				if !c.stall || st != ls-1 {
					if err != nil {
						t.Fatalf("noBatch=%v starts %v: step %d: %v", noBatch, c.start, st, err)
					}
					continue
				}
				if !errors.As(err, &stall) || *stall != (StallError{Proc: 1, Step: ls - 1, Task: 1, Producer: 0}) {
					t.Fatalf("noBatch=%v: consumer a step before the delayed flux is handed in: %v, want its stall", noBatch, err)
				}
				break
			}
			if len(held) != 2 {
				t.Fatalf("noBatch=%v: %d sends withheld at step 0, want task 0's two", noBatch, len(held))
			}
		}
	}
}
