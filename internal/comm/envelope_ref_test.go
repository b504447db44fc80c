package comm_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"sweepsched"
	"sweepsched/internal/comm"
	"sweepsched/internal/faults"
	"sweepsched/internal/machine"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// refOutbox is the envelope model the ledger replaced, kept as its
// oracle: one open envelope per destination carrying its items in the
// order they were added and MinDue, the earliest step one of them is
// consumed; FlushDue ships, in ascending destination order, every envelope
// whose MinDue has arrived, and DiscardAll drops the open ones unsent.
type refOutbox struct {
	open []*refBatch
}

type refBatch struct {
	to     int32
	minDue int32
	items  []comm.Item
}

func newRefOutbox(m int) *refOutbox { return &refOutbox{open: make([]*refBatch, m)} }

func (o *refOutbox) Add(to int32, it comm.Item, due int32) {
	b := o.open[to]
	if b == nil {
		b = &refBatch{to: to, minDue: comm.NoDue}
		o.open[to] = b
	}
	b.minDue = min(b.minDue, due)
	b.items = append(b.items, it)
}

func (o *refOutbox) FlushDue(now int32) []*refBatch {
	var sent []*refBatch
	for to, b := range o.open {
		if b != nil && b.minDue <= now {
			o.open[to] = nil
			sent = append(sent, b)
		}
	}
	return sent
}

func (o *refOutbox) DiscardAll() { clear(o.open) }

// envOp is one call an owner makes on the envelopes: an Add (a message for
// destination to, due at step due), a FlushDue at step now, or DiscardAll.
type envOp struct {
	kind    byte // 'a', 'f' or 'd'
	to, due int32
	now     int32
}

func (op envOp) String() string {
	switch op.kind {
	case 'a':
		return fmt.Sprintf("Add(%d, due %d)", op.to, op.due)
	case 'f':
		return fmt.Sprintf("FlushDue(%d)", op.now)
	}
	return "DiscardAll"
}

// replayEnvelopes feeds the same calls to the reference and to the ledger
// and holds the ledger to the reference at every flush: the same
// destinations, the same number of items between them, one transmission
// and BatchWireBytes each. It returns the totals.
func replayEnvelopes(t *testing.T, name string, m int, ops []envOp) (batches, bytes int64) {
	t.Helper()
	ref, led := newRefOutbox(m), comm.NewOutbox(m)
	for i, op := range ops {
		switch op.kind {
		case 'a':
			ref.Add(op.to, comm.Item{Task: sched.TaskID(i)}, op.due)
			led.Add(op.to, op.due)
		case 'd':
			ref.DiscardAll()
			led.DiscardAll()
		case 'f':
			want := ref.FlushDue(op.now)
			got, nb, ny := led.FlushDue(op.now)
			var wantTo []int32
			var wantBytes int64
			for _, b := range want {
				wantTo = append(wantTo, b.to)
				wantBytes += comm.BatchWireBytes(len(b.items))
			}
			if !slices.Equal(got, wantTo) || nb != int64(len(want)) || ny != wantBytes {
				t.Fatalf("%s: op %d %v: the ledger flushed %v (%d transmissions, %d bytes), the reference %v (%d, %d)",
					name, i, op, got, nb, ny, wantTo, len(want), wantBytes)
			}
			batches += nb
			bytes += ny
		}
	}
	return batches, bytes
}

// TestOutboxMatchesReferenceEnvelopes holds the ledger to the item-carrying
// reference on seeded random call sequences — dated and NoDue items,
// deadlines already past, flushes at NoDue, discards mid-stream — and on
// the calls the modelled machine makes on the executor golden's instance:
// a fault-free sweep, and a sweep under its message-fault plan, epoch by
// epoch. There the machine's own ledger must also have counted what the
// reference transmitted.
func TestOutboxMatchesReferenceEnvelopes(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		m := 1 + r.Intn(9)
		var ops []envOp
		now := int32(0)
		for len(ops) < 300 {
			switch x := r.Intn(20); {
			case x < 14:
				due := now + int32(r.Intn(6)) - 1
				if r.Intn(8) == 0 {
					due = comm.NoDue
				}
				ops = append(ops, envOp{kind: 'a', to: int32(r.Intn(m)), due: due})
			case x < 19:
				now += int32(r.Intn(3))
				at := now
				if r.Intn(40) == 0 {
					at = comm.NoDue
				}
				ops = append(ops, envOp{kind: 'f', now: at})
			default:
				ops = append(ops, envOp{kind: 'd'})
			}
		}
		replayEnvelopes(t, fmt.Sprintf("seed %d", seed), m, ops)
	}

	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.02, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Schedule
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"executor golden, no faults", nil},
		{"executor golden, messages", sweepsched.NewFaultPlan(res, sweepsched.FaultSpec{Drops: 3, Delays: 2, Duplicates: 2}, 22)},
	} {
		ops, mc, inj := machineEnvelopeOps(t, s, tc.plan)
		if len(ops) < 100 {
			t.Fatalf("%s: only %d calls recorded", tc.name, len(ops))
		}
		if tc.plan != nil && inj.Applied(faults.Delay)+inj.Applied(faults.Duplicate)+inj.Applied(faults.Drop) != len(tc.plan.Events) {
			t.Fatalf("%s: not every message fault of the plan fired", tc.name)
		}
		batches, bytes := replayEnvelopes(t, tc.name, s.Inst.M, ops)
		if mc.Comm.Batches != batches || mc.Comm.Bytes != bytes {
			t.Fatalf("%s: the machine counted %d transmissions and %d bytes, the reference %d and %d",
				tc.name, mc.Comm.Batches, mc.Comm.Bytes, batches, bytes)
		}
	}
}

// TestOutboxMatchesReferenceAcrossWords is the seeded half of
// TestOutboxMatchesReferenceEnvelopes at machine sizes around and past 64
// destinations, where the ledger's open marks span several words: a
// flush must still ship the due envelopes of every word, ascending.
func TestOutboxMatchesReferenceAcrossWords(t *testing.T) {
	for i, m := range []int{63, 64, 65, 128, 130, 200} {
		r := rng.New(uint64(i + 1))
		var ops []envOp
		now := int32(0)
		for len(ops) < 2000 {
			switch x := r.Intn(20); {
			case x < 15:
				due := now + int32(r.Intn(6)) - 1
				if r.Intn(8) == 0 {
					due = comm.NoDue
				}
				ops = append(ops, envOp{kind: 'a', to: int32(r.Intn(m)), due: due})
			case x < 19:
				now += int32(r.Intn(3))
				ops = append(ops, envOp{kind: 'f', now: now})
			default:
				ops = append(ops, envOp{kind: 'd'})
			}
		}
		if batches, _ := replayEnvelopes(t, fmt.Sprintf("m=%d", m), m, ops); batches == 0 {
			t.Fatalf("m=%d: nothing flushed", m)
		}
	}
}

// machineEnvelopeOps sweeps the schedule on a batched machine, barrier by
// barrier, with its sends intercepted so that each is recorded as the Add
// it becomes, and returns the calls the machine makes on its envelopes,
// with the machine and the injector. Under a plan it steps as the fault
// engine does, without a crash to handle: the sends pass through the
// plan's injector, matured delays are handed in due at once, a stall ends
// the epoch and tears the envelopes down, and the next epoch runs the
// residual schedule of what is not done.
func machineEnvelopeOps(t *testing.T, s *sched.Schedule, plan *faults.Plan) ([]envOp, *machine.Machine, *faults.Injector) {
	t.Helper()
	inst := s.Inst
	rec, err := faults.NewRecovery(s)
	if err != nil {
		t.Fatal(err)
	}
	var steps sched.StepTable
	procs := make([]int32, inst.M)
	for p := range procs {
		procs[p] = int32(p)
	}
	mc := &machine.Machine{
		Steps: &steps, Procs: procs,
		Balance: machine.Balance{Q: make([]float64, inst.N()), Denom: 1},
		Psi:     make([]float64, inst.NTasks()), Done: make([]bool, inst.NTasks()),
	}
	inj := faults.NewInjector(plan)
	var ops []envOp
	g := int32(0) // the injector's clock: steps executed so far
	for cur := s; ; {
		if err := steps.Build(cur, nil, mc.Done); err != nil {
			t.Fatal(err)
		}
		mc.Build(inst, s.Assign)
		mc.Recv.Reset()
		mc.Route(cur.Start, mc.Done)
		stalled := false
		for ls := int32(0); ls < steps.Steps() && !stalled; ls, g = ls+1, g+1 {
			for _, dl := range inj.Matured(g) {
				ops = append(ops, envOp{kind: 'a', to: dl.To, due: ls})
				mc.Hand(dl, ls)
			}
			ops = append(ops, envOp{kind: 'f', now: ls})
			mc.OpenStep(ls)
			mc.Intercept = true
			mc.Step(ls)
			mc.Sent = inj.Rewrite(mc.Sent, g)
			for _, x := range mc.Sent {
				ops = append(ops, envOp{kind: 'a', to: x.To, due: x.Due})
			}
			if err := mc.CloseStep(ls); err != nil {
				var stall *machine.StallError
				if !errors.As(err, &stall) || plan == nil {
					t.Fatal(err)
				}
				stalled = true
			}
		}
		inj.DiscardDelayed()
		mc.Discard()
		ops = append(ops, envOp{kind: 'd'})
		if !stalled {
			break
		}
		if cur, err = rec.Reschedule(mc.Done); err != nil {
			t.Fatal(err)
		}
	}
	if slices.Contains(mc.Done, false) {
		t.Fatal("the sweep ended with tasks not done")
	}
	return ops, mc, inj
}
