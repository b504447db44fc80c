package sweepsched

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sweepsched/internal/sched"
)

// TestPlanPathStagesAndCancellation: the three scheduling entry points
// run one plan path, so each records the same api.* stage series (two
// runs at VerifyEvery 2: one audited, one skipped) and each returns
// ctx.Err() on a context cancelled before the first stage.
func TestPlanPathStagesAndCancellation(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := LogNormalWeights(p.N(), 4, 0.75, 2)
	cases := []struct {
		name  string
		model planModel
		run   func(ScheduleOptions) error
	}{
		{"ScheduleCtx", planModel{}, func(o ScheduleOptions) error {
			_, err := p.ScheduleCtx(context.Background(), LevelDelays, o)
			return err
		}},
		{"ScheduleComm", planModel{comm: true, commDelay: 2}, func(o ScheduleOptions) error {
			_, err := p.ScheduleComm(LevelDelays, o, 2)
			return err
		}},
		{"ScheduleWeightedMachine", planModel{weights: weights}, func(o ScheduleOptions) error {
			_, err := p.ScheduleWeightedMachine(LevelDelays, o, weights, nil)
			return err
		}},
	}
	want := []string{
		"api.assign.time", "api.metrics.time", "api.schedule.time", "api.verified", "api.verify.time", "api.verify_skipped",
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		// A fresh problem per case restarts the VerifyEvery sequence.
		p, err = NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		col := NewStatsCollector()
		opts := ScheduleOptions{Seed: 3, BlockSize: 8, Verify: true, VerifyEvery: 2, Collector: col}
		for i := 0; i < 2; i++ {
			if err := tc.run(opts); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		var got []string
		snap := col.Snapshot()
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, "api.") {
				got = append(got, c.Name)
			}
		}
		for _, tm := range snap.Timers {
			if strings.HasPrefix(tm.Name, "api.") {
				got = append(got, tm.Name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s recorded api series %v, want %v", tc.name, got, want)
		}
		if _, err := p.plan(cancelled, LevelDelays, opts, tc.model); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context: %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestScheduleCommDelayRange: a communication delay whose worst-case
// makespan overflows the int32 step counter used to be truncated (1<<32
// scheduled as delay 0) or to wrap the step arithmetic (MaxInt32), and
// ValidateComm passed the result. Both are refused with a
// StepRangeError; the largest delay that fits is scheduled and honoured.
func TestScheduleCommDelayRange(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.02, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := ScheduleOptions{Seed: 1}
	largest := math.MaxInt32/p.Tasks() - 1
	for _, cd := range []int{1 << 32, math.MaxInt32, largest + 1} {
		var rangeErr *sched.StepRangeError
		if _, err := p.ScheduleComm(Level, opts, cd); !errors.As(err, &rangeErr) {
			t.Errorf("commDelay %d: got %v, want a StepRangeError", cd, err)
		}
	}
	// On one processor no edge crosses, so the run is nt steps long and
	// cheap; the kernel still sizes its calendar for the delay.
	p1, err := NewProblemFromFamily("tetonly", 0.02, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p1.ScheduleComm(Level, opts, largest)
	if err != nil {
		t.Fatalf("largest accepted commDelay %d: %v", largest, err)
	}
	if res.Metrics.Makespan != p1.Tasks() {
		t.Fatalf("single-processor makespan %d, want %d", res.Metrics.Makespan, p1.Tasks())
	}
}
