package comm

import (
	"testing"

	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
)

func TestOutboxFlushDueOrderAndOwnership(t *testing.T) {
	o := NewOutbox(4)
	o.Add(2, 10)
	o.Add(0, 5)
	o.Add(2, 6)
	o.Add(1, 20)

	dests, batches, bytes := o.FlushDue(6)
	if len(dests) != 2 || dests[0] != 0 || dests[1] != 2 {
		t.Fatalf("flushed %v at now=6, want ascending [0 2]", dests)
	}
	// Dest 2's envelope holds both of its items: its MinDue is 6, not 10.
	if batches != 2 || bytes != BatchWireBytes(1)+BatchWireBytes(2) {
		t.Fatalf("flush cost = (%d, %d), want (2, %d)", batches, bytes, BatchWireBytes(1)+BatchWireBytes(2))
	}
	// A flushed envelope is gone: dest 2's due-10 item left with it.
	if dests, _, _ := o.FlushDue(10); len(dests) != 0 {
		t.Fatalf("flushed %v at now=10, want nothing until dest 1's step 20", dests)
	}

	// Dest 1 (due 20) is still held; it flushes once its deadline arrives.
	if dests, _, _ := o.FlushDue(19); len(dests) != 0 {
		t.Fatalf("dest 1 flushed at now=19 before its due step 20")
	}
	dests, batches, bytes = o.FlushDue(20)
	if len(dests) != 1 || dests[0] != 1 || batches != 1 || bytes != BatchWireBytes(1) {
		t.Fatalf("dest 1 at its due step: flushed %v cost (%d, %d), want [1] (1, %d)", dests, batches, bytes, BatchWireBytes(1))
	}
}

func TestOutboxNoDueItemsRideAlongOrDiscard(t *testing.T) {
	o := NewOutbox(2)
	o.Add(0, NoDue)
	if dests, batches, _ := o.FlushDue(1 << 20); len(dests) != 0 || batches != 0 {
		t.Fatalf("an envelope holding only NoDue items must never flush on its own")
	}
	// A dated item shares the envelope; the NoDue item rides along.
	o.Add(0, 3)
	dests, batches, bytes := o.FlushDue(3)
	if len(dests) != 1 || dests[0] != 0 || batches != 1 || bytes != BatchWireBytes(2) {
		t.Fatalf("NoDue item did not ride the dated flush: flushed %v cost (%d, %d)", dests, batches, bytes)
	}

	o.Add(1, NoDue)
	o.DiscardAll()
	if dests, batches, _ := o.FlushDue(NoDue); len(dests) != 0 || batches != 0 {
		t.Fatalf("DiscardAll left envelopes %v", dests)
	}
}

// TestOutboxWarmCycleZeroAllocs is the 0 allocs/op contract of the
// ledger: counting items into envelopes, flushing the due ones and
// discarding the rest allocate nothing.
func TestOutboxWarmCycleZeroAllocs(t *testing.T) {
	const m = 8
	col := obs.New()
	ctr := NewCounters(col)
	o := NewOutbox(m)
	var flushed int
	cycle := func() {
		for to := int32(0); to < m; to++ {
			for i := int32(0); i < 16; i++ {
				o.Add(to, i%4)
			}
		}
		ctr.Logical(16 * m)
		for now := int32(0); now < 4; now++ {
			dests, batches, bytes := o.FlushDue(now)
			flushed += len(dests)
			ctr.Transmitted(batches, bytes)
		}
		o.Add(0, NoDue)
		o.DiscardAll()
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("outbox cycle allocates %v per op, want 0", n)
	}
	if got := col.Counter("comm.batches").Value(); got == 0 || flushed == 0 {
		t.Fatalf("counters did not record envelopes")
	}
}

// batchedRing is the smallest executor with the batched interconnect:
// every processor sends one flux to its right-hand neighbour each step,
// due two steps on; the barrier closing a step counts the step's sends
// into the outbox, the one opening a step flushes the due envelopes.
type batchedRing struct {
	m       int32
	sent    []sched.Send
	out     *Outbox
	ctr     Counters
	batches int64
}

func (r *batchedRing) run(steps int32) {
	for st := range steps {
		_, batches, bytes := r.out.FlushDue(st)
		r.batches += batches
		r.ctr.Transmitted(batches, bytes)
		for p := range r.m {
			r.sent = append(r.sent, sched.Send{Task: sched.TaskID(p), To: (p + 1) % r.m, Due: st + 2, Psi: 1})
		}
		for _, x := range r.sent {
			r.out.Add(x.To, x.Due)
		}
		r.sent = r.sent[:0]
	}
}

// TestStepDriverWarmStepZeroAllocs extends the warm-cycle contract to the
// whole step: the step loop, send list and outbox together allocate
// nothing once warm.
func TestStepDriverWarmStepZeroAllocs(t *testing.T) {
	const m = 8
	r := &batchedRing{m: m, out: NewOutbox(m), ctr: NewCounters(obs.New())}
	run := func() {
		r.run(16)
		r.out.DiscardAll()
	}
	run() // warm the send list
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("warm 16-step run allocates %v, want 0", n)
	}
	if r.batches == 0 {
		t.Fatal("no envelope was transmitted")
	}
}

func TestCountersCostModel(t *testing.T) {
	col := obs.New()
	c := NewCounters(col)
	c.Logical(10)
	c.Transmitted(1, BatchWireBytes(10))
	c.Transmitted(0, 0)
	if got := col.Counter("comm.bytes").Value(); got != BatchWireBytes(10) {
		t.Fatalf("envelope bytes = %d, want %d", got, BatchWireBytes(10))
	}
	if got := col.Counter("comm.batches").Value(); got != 1 {
		t.Fatalf("envelope batches = %d, want 1", got)
	}
	// Unbatched: same 10 messages cost 10 transmissions and more bytes.
	col2 := obs.New()
	u := NewCounters(col2)
	u.Logical(10)
	u.PerMessage(10)
	if got := col2.Counter("comm.batches").Value(); got != 10 {
		t.Fatalf("per-message batches = %d, want 10", got)
	}
	if b, e := col2.Counter("comm.bytes").Value(), col.Counter("comm.bytes").Value(); b <= e {
		t.Fatalf("per-message bytes %d not larger than envelope bytes %d", b, e)
	}
	// Nil collector: everything no-ops.
	n := NewCounters(nil)
	n.Logical(1)
	n.PerMessage(1)
	n.Transmitted(1, 1)
}
