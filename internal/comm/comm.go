// Package comm is the flux-communication layer of the modelled machine
// (internal/machine), and so of every executor: the parallel solver, the
// fault engine and the multi-process runner (internal/procrun). It owns the
// envelope ledger and the explicit per-message vs per-batch cost model the
// obs counters report.
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
// still meets the earliest deadline among its items. Each envelope
// therefore carries MinDue — the earliest step any held item is consumed —
// and the flusher ships the envelope exactly when MinDue is reached. This
// is the classic interval-stabbing optimum: no policy that delivers every
// flux by its consumer's step uses fewer envelopes. A flush costs the
// envelopes open at it, not the destinations: it returns at once before
// the least MinDue, and otherwise visits the destinations an open mark
// names.
//
// An envelope is counted, not carried: the modelled machine places a flux
// in its receive slot when it is handed over, visible from the next step,
// so in process an envelope is an item count and a deadline (Outbox). Its
// contents exist only at the process boundary (internal/procrun), in the
// frame of the step at which it flushes.
//
// Fault semantics are untouched: injectors operate on logical messages at
// produce time (at the barrier closing the step that completed the task,
// before the message joins an envelope), so a planned
// Drop/Delay/Duplicate hits exactly the message it hits on the unbatched
// path; only the physical transmission is deferred.
package comm

import (
	"math"
	"math/bits"

	"sweepsched/internal/obs"
	"sweepsched/internal/sched"
)

// Item is one logical flux message on the wire: the producing task and its
// angular flux, carried as float64 end to end (IEEE-754 bits on the wire).
type Item struct {
	Task sched.TaskID
	Psi  float64
}

// NoDue marks an item with no scheduled consumer this epoch (it can ride
// along with any flush, or be discarded at epoch teardown — the unbatched
// path delivers such messages into an inbox nobody reads).
const NoDue = math.MaxInt32

// Outbox is the envelope ledger: per destination, the open envelope's item
// count and MinDue, the earliest step one of its items is consumed; the
// envelope must be transmitted at or before the barrier opening that step.
// A bit per destination marks the envelopes that hold an item, so a flush
// visits those, not every destination. It allocates nothing after
// NewOutbox, belongs to one step loop and is not safe for concurrent use.
type Outbox struct {
	env     []envelope // per destination: its open envelope
	open    []uint64   // bit to%64 of word to/64: destination to's envelope holds an item
	next    int32      // the least MinDue: no envelope is due before it
	flushed []int32    // the destinations the last FlushDue shipped
}

type envelope struct {
	minDue int32 // the earliest deadline of its items, NoDue if none
	n      int32 // items
}

// NewOutbox returns an empty outbox for m destinations.
func NewOutbox(m int) *Outbox {
	o := &Outbox{env: make([]envelope, m), open: make([]uint64, (m+63)/64), flushed: make([]int32, 0, m)}
	for to := range o.env {
		o.env[to] = envelope{minDue: NoDue}
	}
	o.next = NoDue
	return o
}

// Add counts one logical message for destination to, consumed no later
// than step due (NoDue if it has no scheduled consumer this epoch), into
// its open envelope. It does not branch on the deadline: whether a
// message is its envelope's earliest is a coin flip the branch predictor
// loses, and taking the minimum regardless leaves the same state, since
// next is never above an open envelope's MinDue.
func (o *Outbox) Add(to, due int32) {
	e := &o.env[to]
	e.n++
	e.minDue = min(e.minDue, due)
	o.next = min(o.next, due)
	o.open[to>>6] |= 1 << (to & 63)
}

// FlushDue transmits every envelope whose deadline has arrived (MinDue ≤
// now): it returns their destinations in ascending order (the slice is
// the outbox's, valid until the next FlushDue) and what they cost, one
// transmission and BatchWireBytes of its items each. An envelope holding
// only NoDue items never flushes on its own; it rides along with the
// destination's next dated one. It visits the open envelopes only, in
// ascending order of their bits.
func (o *Outbox) FlushDue(now int32) (flushed []int32, batches, bytes int64) {
	o.flushed = o.flushed[:0]
	if now < o.next {
		return o.flushed, 0, 0
	}
	o.next = NoDue
	for w, word := range o.open {
		for rest := word; rest != 0; rest &= rest - 1 {
			bit := bits.TrailingZeros64(rest)
			to := w<<6 | bit
			e := &o.env[to]
			if e.minDue > now {
				o.next = min(o.next, e.minDue)
				continue
			}
			batches++
			bytes += BatchWireBytes(int(e.n))
			o.flushed = append(o.flushed, int32(to))
			*e = envelope{minDue: NoDue}
			word &^= 1 << bit
		}
		o.open[w] = word
	}
	return o.flushed, batches, bytes
}

// DiscardAll forgets every open envelope without transmitting it (epoch
// teardown: completed producers' fluxes are re-read from the durable
// state after recovery, so undelivered envelopes are moot).
func (o *Outbox) DiscardAll() {
	for w, word := range o.open {
		for ; word != 0; word &= word - 1 {
			o.env[w<<6|bits.TrailingZeros64(word)] = envelope{minDue: NoDue}
		}
		o.open[w] = 0
	}
	o.next = NoDue
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

// Transmitted records transmissions and their wire bytes: what FlushDue
// returns, or one envelope of n items, (1, BatchWireBytes(n)).
func (c Counters) Transmitted(batches, bytes int64) {
	c.Batches.Add(batches)
	c.Bytes.Add(bytes)
}

// PerMessage records n messages transmitted one frame each (the
// unbatched cost model).
func (c Counters) PerMessage(n int) { c.Transmitted(int64(n), PerMessageWireBytes(n)) }
