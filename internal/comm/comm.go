// Package comm is the batched flux-communication layer of the modelled
// machine (internal/machine), and so of every executor: the parallel
// solver, the fault engine and the multi-process runner
// (internal/procrun). It owns the batch envelope, the recycled buffers that
// keep the warm path at zero allocations, and the explicit per-message vs
// per-batch cost model the obs counters report.
//
// # Deadline-driven envelopes
//
// A barrier-synchronous sweep sends one logical flux message per
// cross-processor dependency edge. Under the paper's unit-time model a
// processor completes at most one task per step, so coalescing only the
// flux produced inside a single step barely batches anything (measured
// ~1.02x on the paper-scale k=24/m=32 instance). What does batch is the
// schedule itself: a flux produced at the sender's step is not needed
// until its consumer's start step, so the envelope for a destination can
// keep accumulating across steps and flush at the latest barrier that
// still meets the earliest deadline among its items. Each Batch therefore
// carries MinDue — the earliest step any held item is consumed — and the
// flusher ships the envelope exactly when MinDue is reached. This is the
// classic interval-stabbing optimum: no policy that delivers every flux
// by its consumer's step uses fewer envelopes.
//
// Fault semantics are untouched: injectors operate on logical messages at
// produce time (at the barrier closing the step that completed the task,
// before the message joins an envelope), so a planned
// Drop/Delay/Duplicate hits exactly the message it hits on the unbatched
// path; only the physical transmission is deferred.
package comm

import (
	"math"

	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
)

// Item is one logical flux message inside an envelope: the producing
// task, its angular flux and, for the in-process executors, the receive
// slot the destination keeps it in (sched.RecvTable; the wire carries task
// and flux only). Floats are carried as float64 end to end (and as
// IEEE-754 bits on the wire), preserving the bitwise-identical guarantee.
type Item struct {
	Task sched.TaskID
	Slot int32
	Psi  float64
}

// NoDue marks an item with no scheduled consumer this epoch (it can ride
// along with any flush, or be discarded at epoch teardown — the unbatched
// path delivers such messages into an inbox nobody reads).
const NoDue = math.MaxInt32

// Batch is a per-destination envelope of flux items. MinDue is the
// earliest step any held item's consumer runs; the envelope must be
// transmitted at or before the barrier opening that step.
type Batch struct {
	To     int32
	MinDue int32
	Items  []Item
}

// Outbox holds one open envelope per destination and recycles drained
// ones itself, so a warm executor allocates nothing per envelope. A
// destination's envelope comes back to that destination: its item array
// has then already grown to what that destination's traffic needs, and a
// sweep that repeats an earlier one grows nothing. An Outbox belongs to
// one step loop — the modelled machine adds, flushes and recycles at its
// barriers — and is not safe for concurrent use.
type Outbox struct {
	open  []*Batch // per destination: the envelope being filled
	spare []*Batch // per destination: a drained envelope awaiting reuse
}

// NewOutbox returns an outbox for m destinations.
func NewOutbox(m int) *Outbox {
	return &Outbox{open: make([]*Batch, m), spare: make([]*Batch, m)}
}

// Add appends one logical message for destination to, consumed no later
// than step due (NoDue if it has no scheduled consumer this epoch).
func (o *Outbox) Add(to int32, it Item, due int32) {
	b := o.open[to]
	if b == nil {
		if b = o.spare[to]; b == nil {
			b = &Batch{To: to}
		}
		o.spare[to] = nil
		b.MinDue, b.Items = NoDue, b.Items[:0]
		o.open[to] = b
	}
	if due < b.MinDue {
		b.MinDue = due
	}
	b.Items = append(b.Items, it)
}

// FlushDue hands every envelope whose deadline has arrived (MinDue ≤ now)
// to send, transferring ownership — the consumer returns it with Recycle
// once drained, which may be after FlushDue returns. Destinations are
// visited in ascending order so the flush sequence is deterministic for a
// fixed schedule.
func (o *Outbox) FlushDue(now int32, send func(b *Batch)) {
	for to, b := range o.open {
		if b == nil || b.MinDue > now {
			continue
		}
		o.open[to] = nil
		send(b)
	}
}

// Recycle takes back an envelope FlushDue handed out; its items' backing
// array is kept for the destination's next envelope. (One spare per
// destination is all the executors need — at most one envelope per
// destination is out while the next fills; a second is left to the GC.)
func (o *Outbox) Recycle(b *Batch) { o.spare[b.To] = b }

// DiscardAll recycles every open envelope without sending (epoch
// teardown: completed producers' fluxes are re-read from the durable state
// after recovery, so undelivered envelopes are moot).
func (o *Outbox) DiscardAll() {
	for to, b := range o.open {
		if b != nil {
			o.open[to] = nil
			o.Recycle(b)
		}
	}
}

// Wire cost model, matching internal/procrun's frame format: every frame
// pays a 5-byte header (u32 length + u8 type); a batch envelope adds a
// 4-byte item-count header and 12 bytes per item (i32 task + f64 psi
// bits); an unbatched transmission pays the frame header per message.
// Adams et al. amortize exactly this per-message α against the per-item
// β; the counters make both visible.
const (
	FrameOverheadBytes = 5
	BatchHeaderBytes   = 4
	ItemBytes          = 12
)

// BatchWireBytes is the wire cost of one envelope of n items.
func BatchWireBytes(n int) int64 {
	return FrameOverheadBytes + BatchHeaderBytes + ItemBytes*int64(n)
}

// PerMessageWireBytes is the wire cost of n messages sent one frame each.
func PerMessageWireBytes(n int) int64 {
	return int64(n) * (FrameOverheadBytes + ItemBytes)
}

// Counters are cached handles for the three comm.* series. All methods
// are nil-collector-safe and allocation-free.
//
//	comm.messages — logical cross-processor flux messages (mode-invariant:
//	                identical batched or unbatched)
//	comm.batches  — physical transmissions carrying them (envelopes when
//	                batching, one per message otherwise)
//	comm.bytes    — wire(-model) bytes of those transmissions
type Counters struct {
	Messages *obs.Counter
	Batches  *obs.Counter
	Bytes    *obs.Counter
}

// NewCounters resolves the comm.* handles once so hot loops pay only
// atomic adds.
func NewCounters(col *obs.Collector) Counters {
	return Counters{
		Messages: col.Counter("comm.messages"),
		Batches:  col.Counter("comm.batches"),
		Bytes:    col.Counter("comm.bytes"),
	}
}

// Logical records n logical messages sent (counted at produce time, the
// same in both modes).
func (c Counters) Logical(n int) { c.Messages.Add(int64(n)) }

// Envelope records the transmission of one batch of n items.
func (c Counters) Envelope(n int) {
	c.Batches.Inc()
	c.Bytes.Add(BatchWireBytes(n))
}

// PerMessage records n messages transmitted one frame each (the
// unbatched cost model).
func (c Counters) PerMessage(n int) {
	c.Batches.Add(int64(n))
	c.Bytes.Add(PerMessageWireBytes(n))
}
