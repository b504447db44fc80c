package sweepsched

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/api_golden.txt from the current code.
// Only do that on a commit whose schedules are known good: the table is
// what pins the assembly of a plan (assignment, RNG draw order, priority
// choice, kernel choice) the way internal/sched/refimpl pins the kernels.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/api_golden.txt")

const goldenPath = "testdata/api_golden.txt"

// goldenRows plans every scheduler × {plain, commDelay=3, Anglesets=8,
// weighted on a heterogeneous machine} × {BlockSize 1, 16} on one
// tetonly 0.02 instance and renders one line per plan: an FNV-64 of the
// schedule's bytes (EncodeTrace, or Start/Finish for weighted) plus its
// makespan, C1 and C2 — or "error" where the combination is refused.
func goldenRows(t *testing.T) []string {
	t.Helper()
	const k, m = 16, 8
	p, err := NewProblemFromFamily("tetonly", 0.02, k, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := LogNormalWeights(p.N(), 4, 0.75, 5)
	model := &MachineModel{Speeds: make([]int32, m), Group: make([]int32, m), IntraDelay: 1, CrossDelay: 4}
	for q := 0; q < m; q++ {
		model.Speeds[q] = []int32{1, 2, 4}[q%3]
		model.Group[q] = int32(q / 4)
	}
	unit := func(res *Result, err error) string {
		if err != nil {
			return "error"
		}
		var buf bytes.Buffer
		if err := EncodeTrace(&buf, res); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(buf.Bytes())
		return fmt.Sprintf("%016x %d %d %d", h.Sum64(), res.Metrics.Makespan, res.Metrics.C1, res.Metrics.C2)
	}
	var rows []string
	for _, block := range []int{1, 16} {
		for _, alg := range Schedulers() {
			opts := ScheduleOptions{BlockSize: block, Seed: 11, Workers: 1}
			agg := opts
			agg.Anglesets = 8
			var wrow string
			if res, err := p.ScheduleWeightedMachine(alg, opts, weights, model); err != nil {
				wrow = "error"
			} else {
				h := fnv.New64a()
				for _, v := range [][]int64{res.Schedule.Start, res.Schedule.Finish} {
					_ = binary.Write(h, binary.LittleEndian, v) // a hash write cannot fail
				}
				wrow = fmt.Sprintf("%016x %d", h.Sum64(), res.Makespan)
			}
			for _, v := range []struct{ name, row string }{
				{"plain", unit(p.Schedule(alg, opts))},
				{"comm3", unit(p.ScheduleComm(alg, opts, 3))},
				{"anglesets8", unit(p.Schedule(alg, agg))},
				{"weighted", wrow},
			} {
				rows = append(rows, fmt.Sprintf("%s block=%d %s %s", v.name, block, alg, v.row))
			}
		}
	}
	return rows
}

// TestAPIGolden compares every plan the public entry points can make on
// one instance with the committed table, bit for bit.
func TestAPIGolden(t *testing.T) {
	got := strings.Join(goldenRows(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantRows := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotRows := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(gotRows) != len(wantRows) {
		t.Fatalf("%d plans, golden table has %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Errorf("plan differs from golden:\n got  %s\n want %s", gotRows[i], wantRows[i])
		}
	}
}
