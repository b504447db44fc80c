package sweepsched

import (
	"strings"
	"testing"
)

// TestScheduleWithAnglesets: the aggregated pipeline produces audited
// valid schedules through the public API, deterministically in the
// seed, for every aggregation-capable scheduler, and the option is
// rejected where aggregation is undefined.
func TestScheduleWithAnglesets(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Scheduler{RandomDelaysPriority, Level, LevelDelays, Descendant, DescendantDelays, DFDS, DFDSDelays} {
		res, err := p.Schedule(alg, ScheduleOptions{Seed: 3, Anglesets: 8, Verify: true})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		again, err := p.Schedule(alg, ScheduleOptions{Seed: 3, Anglesets: 8, Verify: true})
		if err != nil {
			t.Fatalf("%s rerun: %v", alg, err)
		}
		if res.Metrics.Makespan != again.Metrics.Makespan {
			t.Fatalf("%s: aggregated run not deterministic", alg)
		}
	}
	// Comm-delay model under aggregation, audited.
	if _, err := p.ScheduleComm(Level, ScheduleOptions{Seed: 5, Anglesets: 8, Verify: true}, 2); err != nil {
		t.Fatalf("aggregated comm: %v", err)
	}
	if _, err := p.ScheduleComm(ImprovedDelays, ScheduleOptions{Seed: 5, Anglesets: 8}, 2); err == nil {
		t.Fatal("ImprovedDelays accepted aggregation under comm delays")
	}
}

func TestScheduleAnglesetsRejections(t *testing.T) {
	p, err := NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Schedule(Level, ScheduleOptions{Anglesets: -1}); err == nil || !strings.Contains(err.Error(), ">= 1") {
		t.Fatalf("negative Anglesets not rejected: %v", err)
	}
	for _, alg := range []Scheduler{RandomDelays, ImprovedDelays} {
		if _, err := p.Schedule(alg, ScheduleOptions{Anglesets: 8}); err == nil {
			t.Fatalf("%s accepted aggregation", alg)
		}
	}
	if _, err := p.ScheduleWeightedMachine(Level, ScheduleOptions{Anglesets: 8}, LogNormalWeights(p.N(), 4, 0.5, 1), nil); err == nil {
		t.Fatal("weighted scheduler accepted aggregation")
	}
	ng, err := NewProblemNonGeometric(RandomChains, 40, 4, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ng.Schedule(Level, ScheduleOptions{Anglesets: 4}); err == nil || !strings.Contains(err.Error(), "non-geometric") {
		t.Fatalf("non-geometric problem accepted aggregation: %v", err)
	}
}
