package comm_test

import (
	"math"
	"testing"

	"sweepsched/internal/comm"
)

// FuzzOutboxMatchesReference holds the ledger to the item-carrying
// reference on call sequences decoded from the input: its first byte
// picks 1–16 destinations, and then every two bytes are one call — an Add
// to the destination the high nibble names, due a few steps around the
// clock or at NoDue, a
// FlushDue that advances the clock or flushes at math.MaxInt32 (NoDue),
// or a DiscardAll. Every flush must ship the same destinations, with the
// same transmissions and bytes, as the reference's.
func FuzzOutboxMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 12, 1, 2, 4, 12, 0})
	f.Add([]byte{0, 0, 255, 12, 255, 1, 3, 12, 3, 15, 0, 12, 255})
	f.Add([]byte{8, 5, 7, 6, 0, 14, 2, 13, 1, 15, 9, 4, 255, 11, 255, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0]%16)
		var ops []envOp
		now := int32(0)
		for i := 1; i+1 < len(data); i += 2 {
			kind, arg := data[i]%16, data[i+1]
			switch {
			case kind < 11:
				due := now + int32(arg%8) - 2
				if arg == 255 {
					due = comm.NoDue
				}
				ops = append(ops, envOp{kind: 'a', to: int32(data[i]>>4) % int32(m), due: due})
			case kind < 15:
				now += int32(arg % 4)
				at := now
				if arg == 255 {
					at = math.MaxInt32
				}
				ops = append(ops, envOp{kind: 'f', now: at})
			default:
				ops = append(ops, envOp{kind: 'd'})
			}
		}
		replayEnvelopes(t, "fuzz", m, ops)
	})
}
