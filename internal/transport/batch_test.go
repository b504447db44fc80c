package transport

import (
	"context"
	"testing"

	"sweepsched/internal/core"
	"sweepsched/internal/faults"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// TestSolveParallelBatchedMatchesUnbatchedBitwise is the tentpole's
// in-process differential pass: the batched (default) and NoBatch
// interconnects must produce bitwise-identical fluxes — both equal to
// serial Solve — and identical logical traffic (Messages, Rounds), while
// the batched path uses strictly fewer transmissions and bytes.
func TestSolveParallelBatchedMatchesUnbatchedBitwise(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		s := testSchedule(t, 3, 8, m, 4)
		serial, err := Solve(s, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := SolveParallel(s, testCfg)
		if err != nil {
			t.Fatal(err)
		}
		noBatchCfg := testCfg
		noBatchCfg.NoBatch = true
		plain, err := SolveParallel(s, noBatchCfg)
		if err != nil {
			t.Fatal(err)
		}
		for v := range serial.Phi {
			if serial.Phi[v] != batched.Phi[v] || serial.Phi[v] != plain.Phi[v] {
				t.Fatalf("m=%d cell %d: serial %g batched %g unbatched %g (must be bitwise identical)",
					m, v, serial.Phi[v], batched.Phi[v], plain.Phi[v])
			}
		}
		if batched.Comm.Messages != plain.Comm.Messages || batched.Comm.Rounds != plain.Comm.Rounds {
			t.Fatalf("m=%d: logical traffic differs across modes: batched {msgs=%d rounds=%d} unbatched {msgs=%d rounds=%d}",
				m, batched.Comm.Messages, batched.Comm.Rounds, plain.Comm.Messages, plain.Comm.Rounds)
		}
		if batched.Comm.Messages == 0 {
			t.Fatalf("m=%d: no cross-processor messages observed", m)
		}
		if plain.Comm.Batches != plain.Comm.Messages {
			t.Fatalf("m=%d: unbatched transmissions %d != messages %d", m, plain.Comm.Batches, plain.Comm.Messages)
		}
		if batched.Comm.Batches >= plain.Comm.Batches {
			t.Fatalf("m=%d: batching did not reduce transmissions: %d vs %d",
				m, batched.Comm.Batches, plain.Comm.Batches)
		}
		if batched.Comm.Bytes >= plain.Comm.Bytes {
			t.Fatalf("m=%d: batching did not reduce bytes: %d vs %d",
				m, batched.Comm.Bytes, plain.Comm.Bytes)
		}
	}
}

// TestSolveParallelCommCountersMatchResult pins the obs wiring: the
// comm.* counters a collector accumulates must equal the Result.Comm the
// solver returns, in both modes.
func TestSolveParallelCommCountersMatchResult(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 11)
	for _, noBatch := range []bool{false, true} {
		cfg := testCfg
		cfg.NoBatch = noBatch
		cfg.Collector = obs.New()
		res, err := SolveParallel(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := cfg.Collector.Snapshot()
		if got := snap.CounterValue("comm.messages"); got != res.Comm.Messages {
			t.Fatalf("noBatch=%v: comm.messages counter %d != Result.Comm.Messages %d", noBatch, got, res.Comm.Messages)
		}
		if got := snap.CounterValue("comm.batches"); got != res.Comm.Batches {
			t.Fatalf("noBatch=%v: comm.batches counter %d != Result.Comm.Batches %d", noBatch, got, res.Comm.Batches)
		}
		if got := snap.CounterValue("comm.bytes"); got != res.Comm.Bytes {
			t.Fatalf("noBatch=%v: comm.bytes counter %d != Result.Comm.Bytes %d", noBatch, got, res.Comm.Bytes)
		}
	}
}

// TestFaultTolerantBatchedMatchesUnbatched runs the fault-injected
// engine in both modes under a mixed plan (crashes, drops, delays,
// duplicates): converged flux bitwise-identical to serial, the
// RecoveryReport byte-for-byte identical across modes — a planned fault
// hits exactly the same logical message inside an envelope — and the
// logical message/round counts equal, with fewer physical transmissions
// batched.
func TestFaultTolerantBatchedMatchesUnbatched(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 4)
	want, err := Solve(s, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*faults.Plan{
		nil,
		faults.NewPlan(s, faults.Spec{Crashes: 2, Drops: 3, Delays: 2, Duplicates: 2}, 7),
		faults.NewPlan(s, faults.Spec{Drops: 4, Delays: 4}, 21),
		faults.NewPlan(s, faults.Spec{Crashes: 1, Duplicates: 3}, 5),
	}
	for pi, plan := range plans {
		batched, brep, err := SolveFaultTolerant(context.Background(), s, testCfg, plan)
		if err != nil {
			t.Fatalf("plan %d batched: %v (report %s)", pi, err, brep)
		}
		noBatchCfg := testCfg
		noBatchCfg.NoBatch = true
		plain, prep, err := SolveFaultTolerant(context.Background(), s, noBatchCfg, plan)
		if err != nil {
			t.Fatalf("plan %d unbatched: %v (report %s)", pi, err, prep)
		}
		for v := range want.Phi {
			if batched.Phi[v] != want.Phi[v] || plain.Phi[v] != want.Phi[v] {
				t.Fatalf("plan %d cell %d: serial %g batched %g unbatched %g", pi, v, want.Phi[v], batched.Phi[v], plain.Phi[v])
			}
		}
		if bs, ps := brep.String(), prep.String(); bs != ps {
			t.Fatalf("plan %d: recovery reports differ across modes:\nbatched:   %s\nunbatched: %s", pi, bs, ps)
		}
		if batched.Comm.Messages != plain.Comm.Messages || batched.Comm.Rounds != plain.Comm.Rounds {
			t.Fatalf("plan %d: logical traffic differs: batched {msgs=%d rounds=%d} unbatched {msgs=%d rounds=%d}",
				pi, batched.Comm.Messages, batched.Comm.Rounds, plain.Comm.Messages, plain.Comm.Rounds)
		}
		if batched.Comm.Messages > 0 && batched.Comm.Batches >= plain.Comm.Batches {
			t.Fatalf("plan %d: batching did not reduce transmissions: %d vs %d", pi, batched.Comm.Batches, plain.Comm.Batches)
		}
	}
}

// benchCommSchedule builds the kernel benchmarks' instance (KuhnBox 8x8x8
// jittered tets, k=24 directions, m=32 processors) under the named
// scheduler. The headline bench-comm numbers use the paper's basic
// random-delay scheduler; priorities variants start consumers sooner
// after their producers, which narrows the batching window (the
// reduction ratio is schedule-dependent by design).
func benchCommSchedule(b testing.TB, build func(*sched.Instance, *rng.Source) (*sched.Schedule, error)) *sched.Schedule {
	b.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 8, NY: 8, NZ: 8, Jitter: 0.15, Seed: 1})
	dirs, err := quadrature.Octant(24)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 32)
	if err != nil {
		b.Fatal(err)
	}
	s, err := build(inst, rng.New(1^0x42))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// TestSolveParallelAllocationsIndependentOfTraffic pins where envelopes
// come from: the outbox's free list, warm after the first sweep, not the
// heap — so a solve of eight sweeps allocates exactly what one of two does.
func TestSolveParallelAllocationsIndependentOfTraffic(t *testing.T) {
	s := benchCommSchedule(t, core.RandomDelay)
	allocs := func(iters int) float64 {
		cfg := testCfg
		cfg.MaxIters = iters
		cfg.Tol = 1e-300 // run exactly MaxIters sweeps
		return testing.AllocsPerRun(2, func() {
			if _, err := SolveParallel(s, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if two, eight := allocs(2), allocs(8); two != eight {
		t.Fatalf("SolveParallel allocates %v times over 2 sweeps, %v over 8", two, eight)
	}
}

func benchSolveParallelComm(b *testing.B, noBatch bool, build func(*sched.Instance, *rng.Source) (*sched.Schedule, error)) {
	s := benchCommSchedule(b, build)
	cfg := testCfg
	cfg.NoBatch = noBatch
	cfg.MaxIters = 2
	cfg.Tol = 1e-300 // run exactly MaxIters sweeps
	b.ReportAllocs()
	b.ResetTimer()
	var last *Result
	for i := 0; i < b.N; i++ {
		res, err := SolveParallel(s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Comm.Messages), "messages/op")
	b.ReportMetric(float64(last.Comm.Batches), "batches/op")
	b.ReportMetric(float64(last.Comm.Bytes), "bytes/op")
	reportStepTime(b, last.Iterations*s.Makespan)
}

func BenchmarkSolveParallelCommBatched(b *testing.B) {
	benchSolveParallelComm(b, false, core.RandomDelay)
}

func BenchmarkSolveParallelCommUnbatched(b *testing.B) {
	benchSolveParallelComm(b, true, core.RandomDelay)
}

func BenchmarkSolveParallelCommBatchedRDP(b *testing.B) {
	benchSolveParallelComm(b, false, core.RandomDelayPriorities)
}

func BenchmarkSolveParallelCommUnbatchedRDP(b *testing.B) {
	benchSolveParallelComm(b, true, core.RandomDelayPriorities)
}
