package procrun

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"sweepsched/internal/faults"
)

const framesGoldenPath = "testdata/frames_golden.txt"

// framesShownInFull is how many global steps of each run the frame golden
// lists task by task; the rest of the run is pinned by its digest.
const framesShownInFull = 120

// TestStepFramesGolden pins what the wire carries, step by step, on the
// procrun golden instance: for every step frame the orchestrator writes,
// the task ids of the fluxes that reach its rank with it — batched, the
// step frame's flux section, which holds the destination's envelopes due
// at that barrier; NoBatch, the fFlux frames written ahead of it, one per
// message. Under the fault-free plan and the message-fault plan of
// TestProcRunGolden, on both interconnects. procrun.frames and
// procrun.bytes are counted off the traffic model, so they alone cannot
// tell a deadline envelope from a per-step coalescing of the same items;
// this table can. -update-golden rewrites it, which only a change that
// means to alter what the wire carries should do.
func TestStepFramesGolden(t *testing.T) {
	spec := testSpec()
	s, cfg := testSetup(t, spec)
	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"none", nil},
		{"messages", faults.NewPlan(s, faults.Spec{Drops: 2, Delays: 2, Duplicates: 1}, 77)},
	}
	defer func() { stepFrameTap = nil }()
	var out strings.Builder
	for _, pl := range plans {
		for _, noBatch := range []bool{false, true} {
			mode := "batched"
			if noBatch {
				mode = "nobatch"
			}
			var (
				pending         = make([][]int32, spec.M) // per rank: fFlux tasks ahead of its next step frame
				lines           []string
				frames, carried int
				tapErr          error
				digest          = fnv.New64a()
			)
			stepFrameTap = func(rank int32, typ uint8, payload []byte) {
				switch typ {
				case fFlux:
					items, err := decodeFluxBatch(payload, nil)
					if err != nil {
						tapErr = err
					}
					for _, it := range items {
						pending[rank] = append(pending[rank], int32(it.Task))
					}
				case fStep:
					d := dec{b: payload}
					d.i32() // local step
					g := d.i32()
					d.u8() // checkpoint flag
					tasks := pending[rank]
					for _, it := range d.fluxItems(nil) {
						tasks = append(tasks, int32(it.Task))
					}
					if d.err != nil {
						tapErr = d.err
					}
					pending[rank] = nil
					frames++
					if len(tasks) == 0 {
						return
					}
					carried += len(tasks)
					line := fmt.Sprintf("g=%d r=%d:%s", g, rank, taskList(tasks))
					fmt.Fprintln(digest, line)
					if g < framesShownInFull {
						lines = append(lines, "  "+line)
					}
				}
			}
			cfg := cfg
			cfg.NoBatch = noBatch
			if _, err := Run(context.Background(), s, spec, cfg, pl.plan, Options{CkptDir: t.TempDir()}); err != nil {
				t.Fatalf("plan=%s %s: %v", pl.name, mode, err)
			}
			if tapErr != nil {
				t.Fatalf("plan=%s %s: undecodable frame: %v", pl.name, mode, tapErr)
			}
			fmt.Fprintf(&out, "plan=%s %s step_frames=%d fluxes=%d digest=%016x\n", pl.name, mode, frames, carried, digest.Sum64())
			out.WriteString(strings.Join(lines, "\n") + "\n")
		}
	}
	got := out.String()
	if *updateGolden {
		if err := os.WriteFile(framesGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(framesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("step frames differ from the golden at line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

func taskList(tasks []int32) string {
	var b strings.Builder
	for _, t := range tasks {
		fmt.Fprintf(&b, " %d", t)
	}
	return b.String()
}
