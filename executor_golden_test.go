package sweepsched

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
)

const executorGoldenPath = "testdata/executor_golden.txt"

// executorGoldenRows executes one tetonly 0.02 plan (k=8, m=8,
// random_delays_priority) on every in-process executor, on both
// interconnects and under four fault plans, and renders one line per
// execution: an FNV-64 of the converged flux's bits, the iteration count
// and the observed traffic — or the simulator's steps, messages and rounds
// — plus the RecoveryReport where there is one. An executor that takes no
// plan or has no interconnect choice repeats its row: the table says so
// instead of leaving the reader to infer it.
func executorGoldenRows(t *testing.T) []string {
	t.Helper()
	const k, m = 8, 8
	p, err := NewProblemFromFamily("tetonly", 0.02, k, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name string
		plan *FaultPlan
	}{
		{"none", nil},
		{"crash", NewFaultPlan(res, FaultSpec{Crashes: 2}, 21)},
		{"messages", NewFaultPlan(res, FaultSpec{Drops: 3, Delays: 2, Duplicates: 2}, 22)},
		{"mixed", NewFaultPlan(res, FaultSpec{Crashes: 1, Drops: 2, Delays: 2, Duplicates: 1, CheckpointEvery: 8}, 23)},
	}
	sim := func(r *SimulationResult, rep *RecoveryReport, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		row := fmt.Sprintf("steps=%d msgs=%d rounds=%d", r.Steps, r.TotalMessages, r.CommRounds)
		if rep != nil {
			row += " | " + rep.String()
		}
		return row
	}
	solve := func(r *TransportResult, rep *RecoveryReport, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		h := fnv.New64a()
		var b [8]byte
		for _, f := range r.Phi {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			h.Write(b[:])
		}
		row := fmt.Sprintf("flux=%016x iters=%d msgs=%d batches=%d bytes=%d rounds=%d",
			h.Sum64(), r.Iterations, r.Comm.Messages, r.Comm.Batches, r.Comm.Bytes, r.Comm.Rounds)
		if rep != nil {
			row += " | " + rep.String()
		}
		return row
	}
	ctx := context.Background()
	var rows []string
	for _, pl := range plans {
		for _, noBatch := range []bool{false, true} {
			cfg := TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1, NoBatch: noBatch}
			mode := "batched"
			if noBatch {
				mode = "nobatch"
			}
			simRes, simErr := p.Simulate(res)
			faultyRes, faultyRep, faultyErr := p.SimulateFaulty(ctx, res, pl.plan)
			serial, serialErr := p.SolveTransport(res, cfg)
			par, parErr := p.SolveTransportParallel(res, cfg)
			ft, ftRep, ftErr := p.SolveTransportFaultTolerant(ctx, res, cfg, pl.plan)
			for _, v := range []struct{ name, row string }{
				{"Simulate", sim(simRes, nil, simErr)},
				{"SimulateFaulty", sim(faultyRes, faultyRep, faultyErr)},
				{"SolveTransport", solve(serial, nil, serialErr)},
				{"SolveTransportParallel", solve(par, nil, parErr)},
				{"SolveTransportFaultTolerant", solve(ft, ftRep, ftErr)},
			} {
				rows = append(rows, fmt.Sprintf("%s %s plan=%s %s", v.name, mode, pl.name, v.row))
			}
		}
	}
	return rows
}

// TestExecutorGolden compares what every in-process executor does with one
// plan — flux bits, iterations, traffic, recovery accounting — with the
// committed table. The table was generated before the executors were put on
// one modelled machine (internal/machine) and is regenerated
// (-update-golden) only by a change that means to alter executions.
func TestExecutorGolden(t *testing.T) {
	got := strings.Join(executorGoldenRows(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(executorGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(executorGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotRows := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%d executions, golden table has %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("execution differs from golden:\n got  %s\n want %s", gotRows[i], wantRows[i])
		}
	}
}
