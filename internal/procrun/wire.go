package procrun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"sweepsched/internal/comm"
	"sweepsched/internal/sched"
)

// Wire protocol: every frame is
//
//	u32  payload length (little-endian, excludes this header)
//	u8   frame type
//	...  payload
//
// over a localhost TCP connection. Integers are little-endian; float64s
// travel as their IEEE-754 bit patterns, so fluxes arrive bit-exact —
// the whole bitwise-identical-to-serial guarantee rides on never
// formatting a float.
const (
	fHello     uint8 = iota + 1 // worker → orch: rank, resumed flag
	fSetup                      // orch → worker: problem spec + physics + checkpoint config
	fSetupOK                    // worker → orch: instance shape echo (n, k, m)
	fSweep                      // orch → worker: iteration number + scalar flux
	fEpoch                      // orch → worker: epoch schedule + durable state
	fStep                       // orch → worker: one barrier step + matured deliveries
	fAck                        // worker → orch: step completions / stall / error
	fOK                         // worker → orch: generic acknowledgement
	fHeartbeat                  // worker → orch: liveness (any time)
	fSnapReq                    // orch → worker: request metrics snapshot
	fSnapshot                   // worker → orch: JSON obs.Snapshot
	fBye                        // orch → worker: clean shutdown
	fFlux                       // orch → worker: one flux batch (NoBatch mode: single-item frames)
)

// maxFrame bounds a frame payload; anything larger indicates a corrupt
// or hostile stream.
const maxFrame = 1 << 28

// frameName labels a type for diagnostics.
func frameName(t uint8) string {
	switch t {
	case fHello:
		return "hello"
	case fSetup:
		return "setup"
	case fSetupOK:
		return "setup-ok"
	case fSweep:
		return "sweep"
	case fEpoch:
		return "epoch"
	case fStep:
		return "step"
	case fAck:
		return "ack"
	case fOK:
		return "ok"
	case fHeartbeat:
		return "heartbeat"
	case fSnapReq:
		return "snapshot-req"
	case fSnapshot:
		return "snapshot"
	case fBye:
		return "bye"
	case fFlux:
		return "flux"
	}
	return fmt.Sprintf("frame(%d)", t)
}

// wireConn is a framed connection with per-operation deadlines and a
// write mutex, so the worker's heartbeat goroutine can interleave with
// its frame replies without corrupting the stream. Both directions reuse
// grow-only scratch buffers — the hot exchange (a step frame and its ack
// every barrier) allocates nothing once the buffers are warm.
type wireConn struct {
	c  net.Conn
	wm sync.Mutex
	wb []byte  // write scratch (header + payload in one Write), under wm
	rb []byte  // read scratch; single reader per conn, reused every frame
	hb [5]byte // header scratch (a stack array would escape through io.Reader)
}

func newWireConn(c net.Conn) *wireConn { return &wireConn{c: c} }

func (w *wireConn) Close() error { return w.c.Close() }

// writeFrame sends one frame under the write deadline. The header and
// payload are assembled in the connection's retained scratch buffer and
// shipped in a single Write (one syscall, no per-frame allocation).
func (w *wireConn) writeFrame(typ uint8, payload []byte, timeout time.Duration) error {
	w.wm.Lock()
	defer w.wm.Unlock()
	if timeout > 0 {
		if err := w.c.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	w.wb = w.wb[:0]
	w.wb = binary.LittleEndian.AppendUint32(w.wb, uint32(len(payload)))
	w.wb = append(w.wb, typ)
	w.wb = append(w.wb, payload...)
	_, err := w.c.Write(w.wb)
	return err
}

// readFrame receives one frame under the read deadline. The returned
// payload aliases the connection's scratch buffer: it is valid until the
// next readFrame on this conn, so callers must finish decoding (dec
// copies everything it returns) before reading again.
func (w *wireConn) readFrame(timeout time.Duration) (uint8, []byte, error) {
	if timeout > 0 {
		if err := w.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return 0, nil, err
		}
	}
	if _, err := io.ReadFull(w.c, w.hb[:]); err != nil {
		return 0, nil, err
	}
	size := binary.LittleEndian.Uint32(w.hb[:4])
	if size > maxFrame {
		return 0, nil, fmt.Errorf("procrun: frame of %d bytes exceeds limit", size)
	}
	if cap(w.rb) < int(size) {
		w.rb = make([]byte, size)
	}
	payload := w.rb[:size]
	if _, err := io.ReadFull(w.c, payload); err != nil {
		return 0, nil, err
	}
	return w.hb[4], payload, nil
}

// enc is an append-only payload builder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) f64s(vs []float64) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}
func (e *enc) i32s(vs []int32) {
	e.u32(uint32(len(vs)))
	for _, v := range vs {
		e.i32(v)
	}
}
func (e *enc) bools(bs []bool) {
	e.u32(uint32(len(bs)))
	bits := make([]byte, (len(bs)+7)/8)
	for i, b := range bs {
		if b {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	e.b = append(e.b, bits...)
}

// dec is a cursor-based payload reader; the first failed read poisons it
// so callers check err once at the end.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("procrun: truncated frame at byte %d of %d", d.off, len(d.b))
	}
}
func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}
func (d *dec) i32() int32 { return int32(d.u32()) }
func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}
func (d *dec) f64s() []float64 {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+8*n > len(d.b) {
		d.fail()
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.f64()
	}
	return vs
}
func (d *dec) i32s() []int32 {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+4*n > len(d.b) {
		d.fail()
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = d.i32()
	}
	return vs
}
func (d *dec) bools() []bool {
	n := int(d.u32())
	nb := (n + 7) / 8
	if d.err != nil || n < 0 || d.off+nb > len(d.b) {
		d.fail()
		return nil
	}
	bs := make([]bool, n)
	for i := range bs {
		bs[i] = d.b[d.off+i/8]&(1<<(i%8)) != 0
	}
	d.off += nb
	return bs
}

// Flux-batch codec: the one layout every flux on the wire uses — the
// deliveries section of a step frame, the completions section of an ack,
// and the payload of a standalone fFlux frame (NoBatch mode). The section
// is
//
//	u32  item count
//	...  per item: i32 task, u64 IEEE-754 psi bits
//
// so comm.BatchHeaderBytes + comm.ItemBytes per item, little-endian.
var (
	// ErrTruncatedBatch reports a flux batch whose payload ends before the
	// item count it declares.
	ErrTruncatedBatch = errors.New("procrun: truncated flux batch")
	// ErrOversizedBatch reports a flux batch declaring more items than a
	// frame can carry, or carrying trailing bytes past its declared items.
	ErrOversizedBatch = errors.New("procrun: oversized flux batch")
)

// maxBatchItems is the largest item count a single frame can hold.
const maxBatchItems = (maxFrame - comm.BatchHeaderBytes) / comm.ItemBytes

// appendFluxBatch appends one flux-batch section to the payload builder.
func appendFluxBatch(e *enc, items []comm.Item) {
	e.u32(uint32(len(items)))
	for _, it := range items {
		e.i32(int32(it.Task))
		e.f64(it.Psi)
	}
}

// encodeFluxBatch builds a standalone flux-batch payload into buf
// (append-style: pass a retained buffer to avoid allocating).
func encodeFluxBatch(buf []byte, items []comm.Item) []byte {
	e := enc{b: buf[:0]}
	appendFluxBatch(&e, items)
	return e.b
}

// fluxItems decodes one flux-batch section into the reusable items slice.
func (d *dec) fluxItems(into []comm.Item) []comm.Item {
	n := int(d.u32())
	if d.err != nil || n < 0 || n > maxBatchItems || d.off+comm.ItemBytes*n > len(d.b) {
		d.fail()
		return nil
	}
	items := into[:0]
	for i := 0; i < n; i++ {
		t := sched.TaskID(d.i32())
		items = append(items, comm.Item{Task: t, Psi: d.f64()})
	}
	return items
}

// decodeFluxBatch decodes a standalone flux-batch payload, rejecting
// malformed frames with the typed errors above: decode∘encode is the
// identity, a short payload is ErrTruncatedBatch, and a declared count
// beyond frame capacity — or bytes trailing the declared items — is
// ErrOversizedBatch. into is reused when it has capacity.
func decodeFluxBatch(b []byte, into []comm.Item) ([]comm.Item, error) {
	if len(b) < comm.BatchHeaderBytes {
		return nil, fmt.Errorf("%w: %d-byte payload has no item count", ErrTruncatedBatch, len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxBatchItems {
		return nil, fmt.Errorf("%w: %d items exceeds frame capacity %d", ErrOversizedBatch, n, maxBatchItems)
	}
	want := comm.BatchHeaderBytes + comm.ItemBytes*int(n)
	if len(b) < want {
		return nil, fmt.Errorf("%w: %d items need %d bytes, have %d", ErrTruncatedBatch, n, want, len(b))
	}
	if len(b) > want {
		return nil, fmt.Errorf("%w: %d bytes trail the %d declared items", ErrOversizedBatch, len(b)-want, n)
	}
	d := dec{b: b}
	items := d.fluxItems(into)
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncatedBatch, d.err)
	}
	return items, nil
}
