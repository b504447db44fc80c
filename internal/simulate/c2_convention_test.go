package simulate

import (
	"context"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// starSchedule builds a 1-direction star DAG (cell 0 feeds cells 1..3)
// on 2 processors with the given assignment and list-schedules it.
func starSchedule(t *testing.T, assign sched.Assignment) *sched.Schedule {
	t.Helper()
	d, err := dag.FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{}
	if err := sched.ListScheduleInto(sched.NewWorkspace(), s, inst, assign, nil, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestC2EdgeConventionStar pins the repository's C2 convention: a step's
// communication cost is the maximum over processors of CROSS-PROCESSOR
// EDGES leaving that processor's tasks — parallel edges to the same
// destination processor are NOT deduplicated into one message. The star
// hub sends along 3 edges to one processor, so its step costs 3 (a
// message-counting convention would report 1). The metamorphic check
// swaps which side of the cut the hub lives on: the cut edges are
// identical, so C2 must not change. The machine simulator and the
// verify auditor must agree with the production counter on both.
func TestC2EdgeConventionStar(t *testing.T) {
	for name, assign := range map[string]sched.Assignment{
		"hubOnProc0": {0, 1, 1, 1},
		"hubOnProc1": {1, 0, 0, 0},
	} {
		s := starSchedule(t, assign)
		if got := sched.C2(s, 1); got != 3 {
			t.Errorf("%s: C2 = %d, want 3 (edge-counting convention)", name, got)
		}
		if got := verify.C2Ref(s); got != 3 {
			t.Errorf("%s: C2Ref = %d, want 3", name, got)
		}
		res, err := RunCtx(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CommRounds != 3 {
			t.Errorf("%s: simulator rounds = %d, want 3", name, res.CommRounds)
		}
	}
}

// TestC2ConventionAgreesEverywhere cross-checks the three independent C2
// accountings — the chunked parallel counter (sched.C2), the auditor's
// serial recomputation (verify.C2Ref), and the message-passing machine
// simulator — on randomized mesh schedules.
func TestC2ConventionAgreesEverywhere(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		s := testSchedule(t, 3+int(seed), seed)
		want := sched.C2(s, 0)
		if got := verify.C2Ref(s); got != want {
			t.Fatalf("seed %d: C2Ref %d, production C2 %d", seed, got, want)
		}
		res, err := RunCtx(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.CommRounds != want {
			t.Fatalf("seed %d: simulator rounds %d, production C2 %d", seed, res.CommRounds, want)
		}
	}
}

// TestC2ZeroOnSingleProcessor: with every cell on one processor no edge
// crosses the cut, so every accounting must be zero.
func TestC2ZeroOnSingleProcessor(t *testing.T) {
	_ = rng.New // keep the import pattern of this package's tests
	s := starSchedule(t, sched.Assignment{0, 0, 0, 0})
	if got := sched.C2(s, 1); got != 0 {
		t.Fatalf("C2 = %d on a single processor", got)
	}
	if got := verify.C2Ref(s); got != 0 {
		t.Fatalf("C2Ref = %d on a single processor", got)
	}
}
