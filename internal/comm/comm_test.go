package comm

import (
	"context"
	"testing"

	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
)

func TestOutboxFlushDueOrderAndOwnership(t *testing.T) {
	o := NewOutbox(4)
	o.Add(2, Item{Task: 7, Psi: 1.5}, 10)
	o.Add(0, Item{Task: 3, Psi: 2.5}, 5)
	o.Add(2, Item{Task: 8, Psi: 3.5}, 6)
	o.Add(1, Item{Task: 9, Psi: 4.5}, 20)

	var got []*Batch
	o.FlushDue(6, func(b *Batch) { got = append(got, b) })
	if len(got) != 2 {
		t.Fatalf("flushed %d envelopes at now=6, want 2 (dests 0 and 2)", len(got))
	}
	if got[0].To != 0 || got[1].To != 2 {
		t.Fatalf("flush order = [%d %d], want ascending [0 2]", got[0].To, got[1].To)
	}
	if len(got[1].Items) != 2 || got[1].Items[0].Task != 7 || got[1].Items[1].Task != 8 {
		t.Fatalf("dest 2 envelope items = %v, want tasks [7 8] in add order", got[1].Items)
	}
	if got[1].MinDue != 6 {
		t.Fatalf("dest 2 MinDue = %d, want 6", got[1].MinDue)
	}
	for _, b := range got {
		o.Recycle(b)
	}

	// Dest 1 (due 20) is still held; it flushes once its deadline arrives.
	var late []*Batch
	o.FlushDue(19, func(b *Batch) { late = append(late, b) })
	if len(late) != 0 {
		t.Fatalf("dest 1 flushed at now=19 before its due step 20")
	}
	o.FlushDue(20, func(b *Batch) { late = append(late, b) })
	if len(late) != 1 || late[0].To != 1 {
		t.Fatalf("dest 1 did not flush at its due step: %v", late)
	}
	o.Recycle(late[0])
}

func TestOutboxNoDueItemsRideAlongOrDiscard(t *testing.T) {
	o := NewOutbox(2)
	o.Add(0, Item{Task: 1, Psi: 1}, NoDue)
	var got []*Batch
	o.FlushDue(1<<20, func(b *Batch) { got = append(got, b) })
	if len(got) != 0 {
		t.Fatalf("an envelope holding only NoDue items must never flush on its own")
	}
	// A dated item shares the envelope; the NoDue item rides along.
	o.Add(0, Item{Task: 2, Psi: 2}, 3)
	o.FlushDue(3, func(b *Batch) { got = append(got, b) })
	if len(got) != 1 || len(got[0].Items) != 2 {
		t.Fatalf("NoDue item did not ride the dated flush: %v", got)
	}
	o.Recycle(got[0])

	o.Add(1, Item{Task: 5, Psi: 5}, NoDue)
	o.DiscardAll()
	o.FlushDue(NoDue, func(b *Batch) { t.Fatalf("DiscardAll left envelope %v", b) })
}

// TestOutboxWarmCycleZeroAllocs is the 0 allocs/op contract for the
// in-process batch path: once the free list and the item backing arrays
// are warm, a full add→flush→drain→recycle cycle allocates nothing.
func TestOutboxWarmCycleZeroAllocs(t *testing.T) {
	const m = 8
	col := obs.New()
	ctr := NewCounters(col)
	o := NewOutbox(m)
	sink := 0.0
	drain := func(b *Batch) {
		ctr.Envelope(len(b.Items))
		for _, it := range b.Items {
			sink += it.Psi
		}
		o.Recycle(b)
	}
	cycle := func() {
		for to := int32(0); to < m; to++ {
			for i := 0; i < 16; i++ {
				o.Add(to, Item{Task: sched.TaskID(i), Psi: float64(i)}, int32(i%4))
			}
		}
		ctr.Logical(16 * m)
		o.FlushDue(NoDue, drain)
	}
	for i := 0; i < 4; i++ {
		cycle() // warm the free list and the per-envelope item arrays
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("warm outbox cycle allocates %v per op, want 0", n)
	}
	if got := col.Counter("comm.batches").Value(); got == 0 {
		t.Fatalf("counters did not record envelopes")
	}
	_ = sink
}

// batchedRing is the smallest executor on the step driver with the
// batched interconnect: every processor sends one flux to its right-hand
// neighbour each step, due two steps on; CloseStep moves the step's sends
// into the outbox, OpenStep flushes the due envelopes and recycles them.
type batchedRing struct {
	m     int32
	sent  []sched.Send
	out   *Outbox
	ctr   Counters
	flush func(*Batch)
	got   float64
}

func (r *batchedRing) OpenStep(st int32) error { r.out.FlushDue(st, r.flush); return nil }

func (r *batchedRing) RunProc(p, st int32) {
	r.sent = append(r.sent, sched.Send{Task: sched.TaskID(p), To: (p + 1) % r.m, Psi: 1})
}

func (r *batchedRing) CloseStep(st int32) error {
	for _, x := range r.sent {
		r.out.Add(x.To, Item{Task: x.Task, Slot: x.Slot, Psi: x.Psi}, st+2)
	}
	r.sent = r.sent[:0]
	return nil
}

// TestStepDriverWarmStepZeroAllocs extends the warm-cycle contract to the
// whole step: driver, send list, outbox and its free list together
// allocate nothing once warm.
func TestStepDriverWarmStepZeroAllocs(t *testing.T) {
	const m = 8
	r := &batchedRing{m: m, out: NewOutbox(m), ctr: NewCounters(obs.New())}
	r.flush = func(b *Batch) {
		r.ctr.Envelope(len(b.Items))
		for _, it := range b.Items {
			r.got += it.Psi
		}
		r.out.Recycle(b)
	}
	procs := sched.AllProcs(m)
	ctx := context.Background()
	run := func() {
		if err := sched.RunSteps(ctx, procs, 16, r); err != nil {
			t.Fatal(err)
		}
		r.out.DiscardAll()
	}
	run() // warm the free list, the send list and the envelopes' item arrays
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("warm 16-step run allocates %v, want 0", n)
	}
	if r.got == 0 {
		t.Fatal("no flux was delivered")
	}
}

func TestCountersCostModel(t *testing.T) {
	col := obs.New()
	c := NewCounters(col)
	c.Logical(10)
	c.Envelope(10)
	if got := col.Counter("comm.bytes").Value(); got != BatchWireBytes(10) {
		t.Fatalf("envelope bytes = %d, want %d", got, BatchWireBytes(10))
	}
	if got := col.Counter("comm.batches").Value(); got != 1 {
		t.Fatalf("envelope batches = %d, want 1", got)
	}
	c2 := NewCounters(obs.New())
	_ = c2
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
	n.Envelope(1)
	n.PerMessage(1)
}
