package machine

import (
	"context"
	"errors"
	"strings"
	"testing"

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

// plusID makes every flux depend on its task and its inflow, so a wrong
// route or a wrong average shows.
func plusID(t sched.TaskID, inflow float64) float64 { return inflow + float64(t+1) }

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
	m, err := New(s, noBatch, plusID, make([]float64, s.Inst.NTasks()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSweepOnEitherInterconnect: the same fluxes, Messages and Rounds per
// message and batched — Rounds is Σ_step max_p sent (step 0: processor 0
// sends two; step 1: processors 0 and 2 send one each), not the message
// count — and the transmissions each mode's cost model says.
func TestSweepOnEitherInterconnect(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		m := newDiamond(t, noBatch)
		col := obs.New()
		m.Observe(col)
		for sweep := 1; sweep <= 2; sweep++ {
			if err := m.Sweep(context.Background()); err != nil {
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
// barrier passes the stall on as a *StallError for its owner to judge; the
// fault-free sweep has nothing else to blame and returns it.
func TestBodyReportsAMissingFluxAndDecidesNothing(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		m := newDiamond(t, noBatch, 0, 0, 1, 2, 1)
		m.Recv.Reset()
		for _, p := range m.Procs {
			m.RunProc(p, 0)
		}
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
		err := newDiamond(t, noBatch, 0, 0, 1, 2, 1).Sweep(context.Background())
		if err == nil || !strings.Contains(err.Error(), "proc 1 task 1 at step 0: flux from task 0 not received") {
			t.Fatalf("noBatch=%v: fault-free sweep returned %v", noBatch, err)
		}
	}
}

// TestFluxFromBeforeAResetIsNotSeen: after a full sweep every slot holds a
// flux; Reset forgets them all, so the next epoch's consumer stalls rather
// than read the stale value.
func TestFluxFromBeforeAResetIsNotSeen(t *testing.T) {
	m := newDiamond(t, true)
	if err := m.Sweep(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.Recv.Reset()
	clear(m.Done)
	m.RunProc(1, 1)
	if a := m.Acks[1]; !a.Stalled || a.StallTask != 1 || a.StallMiss != 0 {
		t.Fatalf("ack %+v after Reset, want a stall of task 1 on task 0", a)
	}
}

// TestLowestProcessorErrorWins: consumers 2 and 3 scheduled before their
// same-processor producers 0 and 1. Both bodies put a local-input error in
// their acks at step 0; the barrier returns processor 0's, whatever order
// the bodies ran in.
func TestLowestProcessorErrorWins(t *testing.T) {
	m := newDiamond(t, false, 1, 1, 0, 0, 0)
	m.Recv.Reset()
	for _, p := range []int32{2, 1, 0} {
		m.RunProc(p, 0)
	}
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
	m.Recv.Reset()
	clear(m.Done)
	m.Psi[0], m.Psi[4] = 10, 20
	durable := []bool{true, false, false, false, true}
	copy(m.Done, durable)
	s := diamond(t)
	if err := m.Steps.Build(s, nil, durable); err != nil { // a residual epoch's rows
		t.Fatal(err)
	}
	m.Route(s.Start, durable)
	for _, o := range m.Recv.Out(0) {
		if got, have := m.Recv.Load(o.Slot); !have || got != 10 {
			t.Fatalf("durable task 0's slot for processor %d holds (%v, %v), want 10", o.To, got, have)
		}
		if m.Due[o.Slot] != comm.NoDue {
			t.Fatalf("durable task 0's slot has deadline %d", m.Due[o.Slot])
		}
	}
	if due := m.Due[m.Recv.Out(2)[0].Slot]; due != 2 {
		t.Fatalf("task 2's message to processor 1 due at %d, want 2 (task 3's start)", due)
	}
	if err := sched.RunSteps(context.Background(), m.Procs, 3, m); err != nil {
		t.Fatal(err)
	}
	// 1 = 10+2, 2 = 10+3, 3 = (12+13+20)/3 + 4; 0 and 4 did not run.
	if m.Psi[1] != 12 || m.Psi[2] != 13 || m.Psi[3] != 19 || m.Psi[0] != 10 || m.Psi[4] != 20 {
		t.Fatalf("fluxes %v", m.Psi)
	}
	if m.Comm.Messages != 1 { // only 2 → 3: task 0's and 4's were placed, not sent
		t.Fatalf("%d messages, want 1", m.Comm.Messages)
	}
}

func TestDeliverNamedRejectsWhatHasNoRoute(t *testing.T) {
	m := newDiamond(t, true)
	if err := m.DeliverNamed(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if got, have := m.Recv.Load(m.Recv.Out(0)[0].Slot); !have || got != 7 {
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
// the machine's; a sweep after the first allocates nothing on either
// interconnect.
func TestWarmSweepAllocatesNothing(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		m := newDiamond(t, noBatch)
		sweep := func() {
			if err := m.Sweep(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		sweep()
		if n := testing.AllocsPerRun(20, sweep); n != 0 {
			t.Fatalf("noBatch=%v: warm sweep allocates %v, want 0", noBatch, n)
		}
	}
}

// TestReplayedMachineHandsOverWhatTheComputingOneDoes: a second machine —
// the far side of the first, as internal/procrun's orchestrator is of its
// workers — gets every step's completions through Replay and has a Wire.
// It must queue, count and hand over exactly what the computing machine
// does, on both interconnects: the same fluxes, the same traffic, and on
// its Wire, per destination, the fluxes the computing machine's processors
// read from their receive slots. An account that is not a prefix of the
// processor's row is refused.
func TestReplayedMachineHandsOverWhatTheComputingOneDoes(t *testing.T) {
	for _, noBatch := range []bool{false, true} {
		near, far := newDiamond(t, noBatch), newDiamond(t, noBatch)
		far.Compute = nil
		type landed struct {
			to   int32
			task sched.TaskID
			psi  float64
		}
		var wire []landed
		far.Wire = func(to int32, task sched.TaskID, psi float64) { wire = append(wire, landed{to, task, psi}) }
		near.Recv.Reset()
		for st := int32(0); st < near.Steps.Steps(); st++ {
			for _, m := range []*Machine{near, far} {
				if err := m.OpenStep(st); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range near.Procs {
				near.RunProc(p, st)
				var ran []comm.Item
				for _, tsk := range near.Steps.Tasks(p, st)[:near.Acks[p].Completed] {
					ran = append(ran, comm.Item{Task: tsk, Psi: near.Psi[tsk]})
				}
				if err := far.Replay(p, st, ran, near.Acks[p]); err != nil {
					t.Fatalf("noBatch=%v step %d proc %d: %v", noBatch, st, p, err)
				}
				if far.Acks[p] != near.Acks[p] {
					t.Fatalf("noBatch=%v step %d proc %d: replayed ack %+v, computed %+v", noBatch, st, p, far.Acks[p], near.Acks[p])
				}
			}
			for _, m := range []*Machine{near, far} {
				if err := m.CloseStep(st); err != nil {
					t.Fatal(err)
				}
			}
		}
		for tsk, want := range diamondFlux() {
			if far.Psi[tsk] != want || !far.Done[tsk] {
				t.Fatalf("noBatch=%v: replayed task %d flux %v done %v, want %v", noBatch, tsk, far.Psi[tsk], far.Done[tsk], want)
			}
		}
		if far.Comm != near.Comm {
			t.Fatalf("noBatch=%v: replayed traffic %+v, computed %+v", noBatch, far.Comm, near.Comm)
		}
		f := diamondFlux()
		want := []landed{{1, 0, f[0]}, {2, 0, f[0]}, {1, 2, f[2]}, {1, 4, f[4]}}
		if len(wire) != len(want) {
			t.Fatalf("noBatch=%v: %d fluxes landed on the wire, want %d: %v", noBatch, len(wire), len(want), wire)
		}
		for i := range want {
			if wire[i] != want[i] {
				t.Fatalf("noBatch=%v: wire delivery %d is %+v, want %+v", noBatch, i, wire[i], want[i])
			}
		}

		var ae *AccountError
		for _, bad := range [][]comm.Item{{{Task: -1}}, {{Task: 5}}, {{Task: 1}}, {{Task: 0}, {Task: 2}}} {
			if err := far.Replay(0, 0, bad, Ack{}); !errors.As(err, &ae) || ae.Proc != 0 || ae.Step != 0 {
				t.Fatalf("noBatch=%v: account %v of processor 0's step 0 (row [0]): got %v, want an *AccountError", noBatch, bad, err)
			}
		}
		// What stopped the far body short is the account's; its counts are not.
		stall := Ack{Stalled: true, StallTask: 3, StallMiss: 0, Completed: 9, Sent: 9}
		if err := far.Replay(1, 1, nil, stall); err != nil || far.Acks[1] != (Ack{Stalled: true, StallTask: 3, StallMiss: 0}) {
			t.Fatalf("noBatch=%v: replayed stall %+v (%v), want the stall and no completions", noBatch, far.Acks[1], err)
		}
	}
}
