package procrun

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"sweepsched/internal/faults"
	"sweepsched/internal/obs"
	"sweepsched/internal/transport"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/procrun_golden.txt from this build's runs")

const goldenPath = "testdata/procrun_golden.txt"

func fluxHash(phi []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range phi {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return h.Sum64()
}

// series renders a snapshot's counters and gauges under the given
// prefixes, in the snapshot's (sorted) order.
func series(s obs.Snapshot, prefixes ...string) string {
	var parts []string
	keep := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	for _, c := range s.Counters {
		if keep(c.Name) {
			parts = append(parts, fmt.Sprintf("%s=%d", c.Name, c.Value))
		}
	}
	for _, g := range s.Gauges {
		if keep(g.Name) {
			parts = append(parts, fmt.Sprintf("%s=%d", g.Name, g.Value))
		}
	}
	return strings.Join(parts, " ")
}

// TestProcRunGolden runs the test instance across worker processes under
// five fault plans on both interconnects and compares, with the committed
// table, everything a run reports that is a function of the plan: the
// converged flux's bits (which must also be the serial solver's), the
// iteration count, Report.String(), Comm, the orchestrator's own procrun.*
// and comm.* series and the merged worker snapshot's comm.* and proc.*
// counters. The table was generated before the orchestrator was put on the
// fault engine's epoch loop; -update-golden rewrites it, which only a
// change that means to alter executions should do.
//
// Under a plan without a crash the rollback authority (durable shards
// here, the since-checkpoint log in process) never speaks, so the run must
// also agree with transport.SolveFaultTolerant on the RecoveryReport's
// bytes and on Comm.{Messages,Rounds}, on both interconnects.
func TestProcRunGolden(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	serial, err := transport.SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"none", nil},
		{"kill", faults.NewPlan(s, faults.Spec{Crashes: 1}, 99)},
		{"sever", faults.NewPlan(s, faults.Spec{Severs: 2}, 5)},
		{"messages", faults.NewPlan(s, faults.Spec{Drops: 2, Delays: 2, Duplicates: 1}, 77)},
		{"mixed", faults.NewPlan(s, faults.Spec{Crashes: 1, Drops: 2, Delays: 1, Duplicates: 1, Severs: 1}, 1234)},
	}
	var rows []string
	for _, pl := range plans {
		for _, noBatch := range []bool{false, true} {
			mode := "batched"
			if noBatch {
				mode = "nobatch"
			}
			name := fmt.Sprintf("plan=%s %s", pl.name, mode)
			cfg := cfg
			cfg.NoBatch = noBatch
			col := obs.New()
			res, err := Run(context.Background(), s, spec, cfg, pl.plan, Options{CkptDir: t.TempDir(), Collector: col})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if i, ok := bitwiseEqual(res.Phi, serial.Phi); !ok {
				t.Errorf("%s: flux differs from serial at cell %d", name, i)
			}
			rows = append(rows, fmt.Sprintf("%s flux=%016x iters=%d msgs=%d batches=%d bytes=%d rounds=%d | %s | orch: %s | workers: %s",
				name, fluxHash(res.Phi), res.Iterations,
				res.Comm.Messages, res.Comm.Batches, res.Comm.Bytes, res.Comm.Rounds,
				res.Report, series(col.Snapshot(), "procrun.", "comm."), series(res.Merged, "comm.", "proc.")))

			if pl.plan != nil && pl.plan.Spec.Crashes == 0 {
				inproc, rep, err := transport.SolveFaultTolerant(context.Background(), s, cfg, pl.plan)
				if err != nil {
					t.Fatalf("%s in process: %v", name, err)
				}
				if got, want := res.Report.RecoveryReport.String(), rep.String(); got != want {
					t.Errorf("%s: recovery report differs from the in-process engine's:\n procs   %s\n engine  %s", name, got, want)
				}
				if res.Comm.Messages != inproc.Comm.Messages || res.Comm.Rounds != inproc.Comm.Rounds {
					t.Errorf("%s: logical traffic {msgs=%d rounds=%d}, the in-process engine's {msgs=%d rounds=%d}", name,
						res.Comm.Messages, res.Comm.Rounds, inproc.Comm.Messages, inproc.Comm.Rounds)
				}
			}
		}
	}
	got := strings.Join(rows, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(rows) != len(wantRows) {
		t.Fatalf("%d runs, golden table has %d", len(rows), len(wantRows))
	}
	for i := range wantRows {
		if rows[i] != wantRows[i] {
			t.Errorf("run differs from golden:\n got  %s\n want %s", rows[i], wantRows[i])
		}
	}
}
