package procrun

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sweepsched/internal/faults"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/leakcheck"
	"sweepsched/internal/obs"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// TestMain is the re-exec hook: the orchestrator under test spawns
// copies of this test binary, and MaybeWorker turns those copies into
// sweep workers before any test runs.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

func testSpec() ProblemSpec {
	return ProblemSpec{Family: "tetonly", Scale: 0.001, MeshSeed: 7, K: 4, M: 4}
}

func testSetup(t testing.TB, spec ProblemSpec) (*sched.Schedule, transport.Config) {
	t.Helper()
	inst, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s, transport.Config{SigmaT: 1, SigmaS: 0.5, Source: 1, Tol: 1e-9, MaxIters: 60}
}

// bitwiseEqual reports the first mismatching flux entry, if any.
func bitwiseEqual(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// workerProcCount counts live processes on this machine spawned as sweep
// workers, by scanning /proc for the EnvWorker environment variable.
func workerProcCount(t *testing.T) int {
	t.Helper()
	self := os.Getpid()
	dirs, err := filepath.Glob("/proc/[0-9]*/environ")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, d := range dirs {
		var pid int
		if _, err := fmt.Sscanf(d, "/proc/%d/environ", &pid); err != nil || pid == self {
			continue
		}
		env, err := os.ReadFile(d)
		if err != nil {
			continue // gone, or not ours
		}
		if bytes.Contains(env, []byte(EnvWorker+"=")) {
			count++
		}
	}
	return count
}

func TestProcRunFaultFreeMatchesSerial(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	serial, err := transport.SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), s, spec, cfg, nil, Options{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("procrun did not converge: residual %g after %d iters", res.Residual, res.Iterations)
	}
	if res.Iterations != serial.Iterations {
		t.Fatalf("iterations %d, serial took %d", res.Iterations, serial.Iterations)
	}
	if i, ok := bitwiseEqual(res.Phi, serial.Phi); !ok {
		t.Fatalf("flux differs from serial at cell %d: %x vs %x", i, res.Phi[i], serial.Phi[i])
	}
	if res.Report.Epochs < res.Iterations {
		t.Fatalf("epochs %d < iterations %d", res.Report.Epochs, res.Iterations)
	}
	if res.Report.Recoveries != 0 || res.Report.Crashes != 0 {
		t.Fatalf("fault-free run reported faults: %s", res.Report)
	}
	// Every worker contributed deterministic counters to the merged view.
	if got := res.Merged.CounterValue("proc.sweeps"); got != int64(res.Iterations*spec.M) {
		t.Fatalf("merged proc.sweeps = %d, want %d", got, res.Iterations*spec.M)
	}
	if got := res.Merged.CounterValue("proc.tasks"); got != int64(s.Inst.NTasks()*res.Iterations) {
		t.Fatalf("merged proc.tasks = %d, want %d", got, s.Inst.NTasks()*res.Iterations)
	}
	if n := workerProcCount(t); n != 0 {
		t.Fatalf("%d orphaned worker processes after run", n)
	}
}

func TestProcRunKillNineRecoversBitwise(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	serial, err := transport.SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(s, faults.Spec{Crashes: 1}, 99)
	var res *RunResult
	leakcheck.Check(t, func() {
		var rerr error
		res, rerr = Run(context.Background(), s, spec, cfg, plan, Options{CkptDir: t.TempDir()})
		if rerr != nil {
			t.Fatal(rerr)
		}
	})
	if !res.Converged {
		t.Fatalf("did not converge: residual %g", res.Residual)
	}
	if i, ok := bitwiseEqual(res.Phi, serial.Phi); !ok {
		t.Fatalf("flux differs from serial at cell %d after kill -9: %x vs %x", i, res.Phi[i], serial.Phi[i])
	}
	if res.Report.Crashes != 1 || len(res.Report.DeadProcs) != 1 {
		t.Fatalf("expected exactly one real kill, got %s", res.Report)
	}
	if res.Report.Recoveries < 1 {
		t.Fatalf("kill produced no recovery: %s", res.Report)
	}
	if n := workerProcCount(t); n != 0 {
		t.Fatalf("%d orphaned worker processes after kill and recovery", n)
	}
}

// TestProcRunVerifyAuditsRecovery: cfg.Verify turns on in the
// multi-process run what it turns on in SolveFaultTolerant — the audit of
// every recovery reschedule and, after the solve, of the recovery
// accounting — and a kill -9 still recovers bitwise under it.
func TestProcRunVerifyAuditsRecovery(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	cfg.Verify = true
	serial, err := transport.SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(s, faults.Spec{Crashes: 1}, 99)
	res, err := Run(context.Background(), s, spec, cfg, plan, Options{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Recoveries < 1 {
		t.Fatalf("the kill left no reschedule to audit: %s", res.Report)
	}
	if i, ok := bitwiseEqual(res.Phi, serial.Phi); !ok {
		t.Fatalf("flux differs from serial at cell %d under the audit: %x vs %x", i, res.Phi[i], serial.Phi[i])
	}
}

func TestProcRunSeverReconnects(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	serial, err := transport.SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.NewPlan(s, faults.Spec{Severs: 2}, 5)
	res, err := Run(context.Background(), s, spec, cfg, plan, Options{CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := bitwiseEqual(res.Phi, serial.Phi); !ok {
		t.Fatalf("flux differs from serial at cell %d after severed sockets: %x vs %x", i, res.Phi[i], serial.Phi[i])
	}
	if res.Report.Severs != 2 {
		t.Fatalf("severs applied = %d, want 2: %s", res.Report.Severs, res.Report)
	}
	if res.Report.Reconnects < 2 {
		t.Fatalf("reconnects = %d, want >= 2: %s", res.Report.Reconnects, res.Report)
	}
	if len(res.Report.DeadProcs) != 0 {
		t.Fatalf("sever killed processors: %s", res.Report)
	}
	if res.Report.Recoveries != 0 {
		t.Fatalf("sever should recover at the socket, not the schedule: %s", res.Report)
	}
}

func TestProcRunMixedFaultsReproducible(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	plan := faults.NewPlan(s, faults.Spec{Crashes: 1, Drops: 2, Delays: 1, Severs: 1}, 1234)

	run := func(dir string) (*RunResult, string) {
		res, err := Run(context.Background(), s, spec, cfg, plan, Options{CkptDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := res.Merged.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	a, aSnap := run(t.TempDir())
	b, bSnap := run(t.TempDir())
	if i, ok := bitwiseEqual(a.Phi, b.Phi); !ok {
		t.Fatalf("same plan, different flux at cell %d", i)
	}
	if a.Report.String() != b.Report.String() {
		t.Fatalf("same plan, different reports:\n%s\n%s", a.Report, b.Report)
	}
	if aSnap != bSnap {
		t.Fatalf("same plan, merged snapshots differ:\n%s\n%s", aSnap, bSnap)
	}
	// The comm.* series ride in the same deterministic snapshot: workers
	// count received flux, so a fixed plan renders them byte-identically
	// (the byte equality above covers them) and they must be present.
	if a.Merged.CounterValue("comm.messages") == 0 || a.Merged.CounterValue("comm.batches") == 0 {
		t.Fatalf("merged snapshot is missing comm.* counters:\n%s", aSnap)
	}
	serial, err := transport.SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := bitwiseEqual(a.Phi, serial.Phi); !ok {
		t.Fatalf("flux differs from serial at cell %d under mixed faults", i)
	}
}

func TestProcRunAllKilledUnrecoverable(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	plan := faults.NewPlan(s, faults.Spec{Crashes: spec.M}, 3)
	_, err := Run(context.Background(), s, spec, cfg, plan, Options{CkptDir: t.TempDir()})
	var ue *faults.UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("expected UnrecoverableError with every worker killed, got %v", err)
	}
	if len(ue.DeadProcs) != spec.M {
		t.Fatalf("dead procs %v, want all %d", ue.DeadProcs, spec.M)
	}
	if n := workerProcCount(t); n != 0 {
		t.Fatalf("%d orphaned worker processes after unrecoverable run", n)
	}
}

func TestProcRunDurableShardsOnDisk(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	dir := t.TempDir()
	plan := faults.NewPlan(s, faults.Spec{Crashes: 1}, 99)
	if _, err := Run(context.Background(), s, spec, cfg, plan, Options{CkptDir: dir}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	shards, tmps := 0, 0
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".bin"):
			shards++
		case strings.HasSuffix(e.Name(), ".tmp"):
			tmps++
		}
	}
	if shards == 0 {
		t.Fatal("no durable checkpoint shards were written")
	}
	if tmps != 0 {
		t.Fatalf("%d abandoned temp checkpoint files", tmps)
	}
	// Surviving ranks' shards decode cleanly back to valid checkpoints.
	for p := int32(0); p < int32(spec.M); p++ {
		ck, err := faults.LoadLatest(dir, p)
		if err != nil {
			t.Fatalf("rank %d latest shard: %v", p, err)
		}
		if ck != nil && ck.Rank != p {
			t.Fatalf("rank %d shard claims rank %d", p, ck.Rank)
		}
	}
}

func TestProcRunObservesOrchestratorCounters(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	col := obs.New()
	plan := faults.NewPlan(s, faults.Spec{Crashes: 1}, 99)
	if _, err := Run(context.Background(), s, spec, cfg, plan, Options{CkptDir: t.TempDir(), Collector: col}); err != nil {
		t.Fatal(err)
	}
	if got := col.Counter("procrun.kills").Value(); got != 1 {
		t.Fatalf("procrun.kills = %d, want 1", got)
	}
	if got := col.Counter("procrun.recoveries").Value(); got < 1 {
		t.Fatalf("procrun.recoveries = %d, want >= 1", got)
	}
	if got := col.Counter("procrun.steps").Value(); got == 0 {
		t.Fatal("procrun.steps never incremented")
	}
}

func TestBackoffDelaysDeterministicAndBounded(t *testing.T) {
	a1 := backoffDelays(42, 3)
	a2 := backoffDelays(42, 3)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same (seed, rank): delay %d differs: %v vs %v", i, a1[i], a2[i])
		}
	}
	other := backoffDelays(42, 4)
	same := true
	for i := range a1 {
		if a1[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct ranks drew identical jitter: thundering herd")
	}
	for i, d := range a1 {
		if d > backoffMax {
			t.Fatalf("delay %d = %v exceeds cap %v", i, d, backoffMax)
		}
		if d <= 0 {
			t.Fatalf("delay %d = %v not positive", i, d)
		}
	}
	if len(a1) != backoffAttempts {
		t.Fatalf("%d delays for %d attempts", len(a1), backoffAttempts)
	}
}
