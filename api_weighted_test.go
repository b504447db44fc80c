package sweepsched

import (
	"math"
	"slices"
	"testing"
)

func TestScheduleWeightedFacade(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := make(CellWeights, p.N())
	for v := range weights {
		weights[v] = int32(v%5) + 1
	}
	res, err := p.ScheduleWeighted(RandomDelaysPriority, ScheduleOptions{Seed: 2}, weights)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < 1 {
		t.Fatalf("weighted ratio %v below 1", res.Ratio)
	}
	// Block variant (weight-aware partitioning).
	res2, err := p.ScheduleWeighted(Level, ScheduleOptions{Seed: 2, BlockSize: 16}, weights)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan <= 0 {
		t.Fatal("empty weighted schedule")
	}
}

func TestLogNormalWeights(t *testing.T) {
	w := LogNormalWeights(5000, 4, 0.75, 9)
	if err := w.Validate(5000); err != nil {
		t.Fatal(err)
	}
	var sum int64
	distinct := map[int32]bool{}
	for _, x := range w {
		sum += int64(x)
		distinct[x] = true
	}
	mean := float64(sum) / 5000
	// Log-normal with median 4, sigma 0.75: mean ≈ 4·exp(0.75²/2)+1 ≈ 6.3.
	if mean < 4 || mean > 9 {
		t.Fatalf("mean weight %v outside plausible range", mean)
	}
	if len(distinct) < 8 {
		t.Fatalf("only %d distinct weights; distribution collapsed", len(distinct))
	}
	// Deterministic per seed.
	again := LogNormalWeights(5000, 4, 0.75, 9)
	for i := range w {
		if w[i] != again[i] {
			t.Fatalf("weights nondeterministic at %d", i)
		}
	}
}

// TestLogNormalWeightsSaturate: a draw past 2³¹ used to wrap to a negative
// weight, which the result's own Validate rejects; it saturates instead,
// and so do +Inf and NaN.
func TestLogNormalWeightsSaturate(t *testing.T) {
	for _, tc := range []struct {
		name          string
		median, sigma float64
	}{
		{"past int32", 1e9, 3},
		{"infinite median", math.Inf(1), 0.75},
		{"NaN median", math.NaN(), 0.75},
		{"negative median", -4, 0.75},
	} {
		w := LogNormalWeights(2000, tc.median, tc.sigma, 3)
		if err := w.Validate(2000); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	w := LogNormalWeights(2000, 1e9, 3, 3)
	if !slices.Contains(w, math.MaxInt32) {
		t.Error("median 1e9, sigma 3: no draw saturated at MaxInt32")
	}
}

func TestScheduleWeightedRejects(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := make(CellWeights, p.N())
	for v := range weights {
		weights[v] = 1
	}
	if _, err := p.ScheduleWeighted(RandomDelays, ScheduleOptions{}, weights); err == nil {
		t.Fatal("layered algorithm accepted weights")
	}
	if _, err := p.ScheduleWeighted(Level, ScheduleOptions{}, weights[:1]); err == nil {
		t.Fatal("short weights accepted")
	}
}

func TestScheduleWeightedUnitMatchesUnweightedMakespan(t *testing.T) {
	p, err := NewProblemFromFamily("long", 0.01, 8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := p.Schedule(Level, ScheduleOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ones := make(CellWeights, p.N())
	for v := range ones {
		ones[v] = 1
	}
	weighted, err := p.ScheduleWeighted(Level, ScheduleOptions{Seed: 9}, ones)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.Makespan != int64(unit.Metrics.Makespan) {
		t.Fatalf("unit weighted makespan %d != unweighted %d",
			weighted.Makespan, unit.Metrics.Makespan)
	}
}

// TestScheduleWeightedMachineFacade covers the heterogeneous facade:
// model validation at the API boundary, working Verify/VerifyEvery
// sampling (ScheduleWeighted used to silently ignore both), and the
// weighted bound terms in the result.
func TestScheduleWeightedMachineFacade(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	weights := LogNormalWeights(p.N(), 4, 0.75, 5)
	model := &MachineModel{Speeds: []int32{1, 2, 1, 4}, Group: []int32{0, 0, 1, 1}, IntraDelay: 1, CrossDelay: 3}

	col := NewStatsCollector()
	opts := ScheduleOptions{Seed: 2, Verify: true, VerifyEvery: 3, Collector: col}
	for i := 0; i < 6; i++ {
		res, err := p.ScheduleWeightedMachine(RandomDelaysPriority, opts, weights, model)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan < res.Bounds.Max() {
			t.Fatalf("makespan %d below weighted bound %d", res.Makespan, res.Bounds.Max())
		}
		if res.StrongRatio < 1 || res.Ratio < res.StrongRatio {
			t.Fatalf("implausible ratios: load %v, strong %v", res.Ratio, res.StrongRatio)
		}
	}
	verified := col.Counter("api.verified").Value()
	skipped := col.Counter("api.verify_skipped").Value()
	if verified != 2 || skipped != 4 {
		t.Fatalf("every=3 over 6 weighted runs: verified=%d skipped=%d, want 2 and 4", verified, skipped)
	}

	// A model that does not fit the machine is rejected up front.
	if _, err := p.ScheduleWeightedMachine(Level, ScheduleOptions{}, weights, &MachineModel{Speeds: []int32{1}}); err == nil {
		t.Fatal("short speeds vector accepted")
	}
	if _, err := p.ScheduleWeightedMachine(Level, ScheduleOptions{}, weights,
		&MachineModel{IntraDelay: 5, CrossDelay: 1}); err == nil {
		t.Fatal("intra > cross delay accepted")
	}

	// The nil model is exactly ScheduleWeighted.
	a, err := p.ScheduleWeightedMachine(Level, ScheduleOptions{Seed: 7}, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.ScheduleWeighted(Level, ScheduleOptions{Seed: 7}, weights)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("nil model makespan %d != ScheduleWeighted %d", a.Makespan, b.Makespan)
	}
}
