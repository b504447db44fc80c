package procrun

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"testing"

	"sweepsched/internal/comm"
	"sweepsched/internal/core"
	"sweepsched/internal/faults"
	"sweepsched/internal/rng"
	"sweepsched/internal/transport"
)

// TestProcRunBatchedReducesTraffic is the wire-layer half of the
// tentpole's differential pass on a fault-free run: batched (default)
// and NoBatch orchestrators must deliver bitwise-identical flux with
// identical logical traffic, while the batched interconnect uses
// strictly fewer physical transmissions and wire bytes. The workers'
// receive-side comm.* counters must agree with the mode.
func TestProcRunBatchedReducesTraffic(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	serial, err := transport.Solve(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(context.Background(), s, spec, cfg, nil, Options{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	noBatchCfg := cfg
	noBatchCfg.NoBatch = true
	plain, err := Run(context.Background(), s, spec, noBatchCfg, nil, Options{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*RunResult{batched, plain} {
		if i, ok := bitwiseEqual(r.Phi, serial.Phi); !ok {
			t.Fatalf("flux differs from serial at cell %d: %x vs %x", i, r.Phi[i], serial.Phi[i])
		}
	}
	if batched.Comm.Messages != plain.Comm.Messages || batched.Comm.Rounds != plain.Comm.Rounds {
		t.Fatalf("logical traffic differs across interconnects: batched {msgs=%d rounds=%d} unbatched {msgs=%d rounds=%d}",
			batched.Comm.Messages, batched.Comm.Rounds, plain.Comm.Messages, plain.Comm.Rounds)
	}
	if batched.Comm.Messages == 0 {
		t.Fatal("no cross-processor messages observed")
	}
	if plain.Comm.Batches != plain.Comm.Messages {
		t.Fatalf("fault-free NoBatch transmissions %d != messages %d", plain.Comm.Batches, plain.Comm.Messages)
	}
	if batched.Comm.Batches >= plain.Comm.Batches {
		t.Fatalf("batching did not reduce transmissions: %d vs %d", batched.Comm.Batches, plain.Comm.Batches)
	}
	if batched.Comm.Bytes >= plain.Comm.Bytes {
		t.Fatalf("batching did not reduce bytes: %d vs %d", batched.Comm.Bytes, plain.Comm.Bytes)
	}
	// Receive side: every logical message arrived in both modes, in fewer
	// envelopes batched.
	bm, pm := batched.Merged.CounterValue("comm.messages"), plain.Merged.CounterValue("comm.messages")
	if bm != pm || bm != batched.Comm.Messages {
		t.Fatalf("workers received comm.messages batched=%d unbatched=%d, orchestrator sent %d", bm, pm, batched.Comm.Messages)
	}
	bb, pb := batched.Merged.CounterValue("comm.batches"), plain.Merged.CounterValue("comm.batches")
	if bb != batched.Comm.Batches || pb != plain.Comm.Batches {
		t.Fatalf("worker-side transmissions (batched %d, unbatched %d) disagree with orchestrator (%d, %d)",
			bb, pb, batched.Comm.Batches, plain.Comm.Batches)
	}
}

// TestProcRunBatchedMatchesNoBatchUnderFaults is the differential pass
// under a mixed physical-fault plan — a real SIGKILL, a severed socket,
// drops and a delay: both interconnects must recover to flux
// bitwise-identical to serial with byte-identical recovery reports (a
// planned fault hits the same logical message inside an envelope) and
// identical logical traffic.
func TestProcRunBatchedMatchesNoBatchUnderFaults(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	serial, err := transport.Solve(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(s, faults.Spec{Crashes: 1, Drops: 2, Delays: 1, Severs: 1}, 1234)
	batched, err := Run(context.Background(), s, spec, cfg, plan, Options{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	noBatchCfg := cfg
	noBatchCfg.NoBatch = true
	plain, err := Run(context.Background(), s, spec, noBatchCfg, plan, Options{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*RunResult{batched, plain} {
		if i, ok := bitwiseEqual(r.Phi, serial.Phi); !ok {
			t.Fatalf("flux differs from serial at cell %d under faults: %x vs %x", i, r.Phi[i], serial.Phi[i])
		}
	}
	if bs, ps := batched.Report.String(), plain.Report.String(); bs != ps {
		t.Fatalf("recovery reports differ across interconnects:\nbatched:   %s\nunbatched: %s", bs, ps)
	}
	if batched.Comm.Messages != plain.Comm.Messages || batched.Comm.Rounds != plain.Comm.Rounds {
		t.Fatalf("logical traffic differs under faults: batched {msgs=%d rounds=%d} unbatched {msgs=%d rounds=%d}",
			batched.Comm.Messages, batched.Comm.Rounds, plain.Comm.Messages, plain.Comm.Rounds)
	}
	if batched.Comm.Batches >= plain.Comm.Batches {
		t.Fatalf("batching did not reduce transmissions under faults: %d vs %d", batched.Comm.Batches, plain.Comm.Batches)
	}
}

// TestWireConnFrameAllocs pins the wire-layer alloc fix: once the
// per-connection scratch buffers are warm, a full frame round trip
// (writeFrame assembling header+payload, readFrame returning an aliased
// payload) allocates nothing.
func TestWireConnFrameAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()
	a, b := newWireConn(cli), newWireConn(srv)

	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	roundTrip := func() {
		if err := a.writeFrame(fStep, payload, 0); err != nil {
			t.Fatal(err)
		}
		typ, got, err := b.readFrame(0)
		if err != nil {
			t.Fatal(err)
		}
		if typ != fStep || len(got) != len(payload) {
			t.Fatalf("round trip corrupted frame: type %s, %d bytes", frameName(typ), len(got))
		}
	}
	roundTrip() // warm both scratch buffers
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Fatalf("warm frame round trip allocates %.1f times per frame, want 0", avg)
	}
}

// TestFluxBatchCodecErrors pins the codec's strictness: round trips are
// exact, and malformed payloads are rejected with the typed errors.
func TestFluxBatchCodecErrors(t *testing.T) {
	items := []comm.Item{
		{Task: 0, Psi: 1.5},
		{Task: 41, Psi: -0.25},
		{Task: 1 << 20, Psi: 3.0e-17},
	}
	enc := encodeFluxBatch(nil, items)
	got, err := decodeFluxBatch(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("round trip: %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i] != items[i] {
			t.Fatalf("item %d round-tripped to %+v, want %+v", i, got[i], items[i])
		}
	}
	if _, err := decodeFluxBatch(enc[:len(enc)-1], nil); !errors.Is(err, ErrTruncatedBatch) {
		t.Fatalf("chopped payload: got %v, want ErrTruncatedBatch", err)
	}
	if _, err := decodeFluxBatch(enc[:2], nil); !errors.Is(err, ErrTruncatedBatch) {
		t.Fatalf("headerless payload: got %v, want ErrTruncatedBatch", err)
	}
	if _, err := decodeFluxBatch(append(append([]byte{}, enc...), 0xff), nil); !errors.Is(err, ErrOversizedBatch) {
		t.Fatalf("trailing byte: got %v, want ErrOversizedBatch", err)
	}
	huge := binary.LittleEndian.AppendUint32(nil, uint32(maxBatchItems+1))
	if _, err := decodeFluxBatch(huge, nil); !errors.Is(err, ErrOversizedBatch) {
		t.Fatalf("oversized count: got %v, want ErrOversizedBatch", err)
	}
}

// FuzzFluxBatchCodec fuzzes the wire codec: any accepted payload must
// re-encode byte-identically (decode∘encode = id), and any rejection
// must be one of the two typed errors — never a panic, never an untyped
// failure.
func FuzzFluxBatchCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeFluxBatch(nil, nil))
	f.Add(encodeFluxBatch(nil, []comm.Item{{Task: 7, Psi: 0.5}}))
	f.Add(encodeFluxBatch(nil, []comm.Item{{Task: 1, Psi: 1}, {Task: 2, Psi: -2}, {Task: 3, Psi: 3e300}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(binary.LittleEndian.AppendUint32(nil, 2))
	f.Fuzz(func(t *testing.T, b []byte) {
		items, err := decodeFluxBatch(b, nil)
		if err != nil {
			if !errors.Is(err, ErrTruncatedBatch) && !errors.Is(err, ErrOversizedBatch) {
				t.Fatalf("untyped codec rejection: %v", err)
			}
			return
		}
		re := encodeFluxBatch(nil, items)
		if !bytes.Equal(re, b) {
			t.Fatalf("decode∘encode is not the identity:\nin:  %x\nout: %x", b, re)
		}
		back, err := decodeFluxBatch(re, items[:0])
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if len(back) != len(items) {
			t.Fatalf("re-decode: %d items, want %d", len(back), len(items))
		}
	})
}

// benchProcRunComm runs the multi-process executor end to end (real
// worker processes over localhost TCP), two fixed sweeps, and reports
// the observed traffic. The batched variant is the default interconnect;
// the unbatched one pays one fFlux frame per logical message. The smoke
// default is a small instance; `make bench-comm` sets
// SWEEPSCHED_BENCH_COMM_FULL=1 for the kernel benchmarks' instance scale
// (~3.1k tet cells, k=24, m=32 — minutes of wall clock).
func benchProcRunComm(b *testing.B, noBatch bool) {
	spec := ProblemSpec{Family: "tetonly", Scale: 0.02, MeshSeed: 1, K: 8, M: 8}
	if os.Getenv("SWEEPSCHED_BENCH_COMM_FULL") != "" {
		spec = ProblemSpec{Family: "tetonly", Scale: 0.1, MeshSeed: 1, K: 24, M: 32}
	}
	inst, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.RandomDelay(inst, rng.New(41))
	if err != nil {
		b.Fatal(err)
	}
	cfg := transport.Config{
		SigmaT: 1, SigmaS: 0.5, Source: 1,
		Tol: 1e-300, MaxIters: 2, // run exactly MaxIters sweeps
		NoBatch: noBatch,
	}
	b.ResetTimer()
	var last *RunResult
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		res, err := Run(context.Background(), s, spec, cfg, nil, Options{CkptDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Comm.Messages), "messages/op")
	b.ReportMetric(float64(last.Comm.Batches), "batches/op")
	b.ReportMetric(float64(last.Comm.Bytes), "bytes/op")
}

func BenchmarkProcRunCommBatched(b *testing.B) {
	benchProcRunComm(b, false)
}

func BenchmarkProcRunCommUnbatched(b *testing.B) {
	benchProcRunComm(b, true)
}

// TestWorkerRejectsMalformedEpochFrames: an epoch frame states its
// makespan as a bare number, and the worker sizes its step table by it, so
// a corrupt one must be refused before anything is allocated — as must a
// start step the stated makespan does not cover. The well-formed frame is
// accepted.
func TestWorkerRejectsMalformedEpochFrames(t *testing.T) {
	s, _ := testSetup(t, testSpec())
	inst := s.Inst
	frame := func(makespan uint32, start []int32) []byte {
		var e enc
		e.i32(1)
		e.u32(makespan)
		e.i32s(s.Assign)
		e.i32s(start)
		e.bools(make([]bool, inst.NTasks()))
		e.f64s(make([]float64, inst.NTasks()))
		return e.b
	}
	late := append([]int32(nil), s.Start...)
	late[0] = int32(s.Makespan)
	for _, tc := range []struct {
		name     string
		makespan uint32
		start    []int32
		wantErr  string
	}{
		{"well-formed", uint32(s.Makespan), s.Start, ""},
		{"makespan 2^32-1", ^uint32(0), s.Start, "claims a makespan"},
		{"makespan just over the frame cap", uint32(maxFrame/4/inst.M + 1), s.Start, "claims a makespan"},
		{"start at the makespan", uint32(s.Makespan), late, "makespan is"},
	} {
		w := &worker{inst: inst}
		_, err := w.onEpoch(frame(tc.makespan, tc.start))
		switch {
		case tc.wantErr == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Fatalf("%s: got %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}
