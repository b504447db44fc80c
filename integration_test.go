package sweepsched

// End-to-end integration tests: every scheduler on every mesh family,
// validated analytically and replayed on the message-passing simulator.

import (
	"testing"

	"sweepsched/internal/mesh"
)

func TestIntegrationAllSchedulersAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("integration matrix skipped in -short mode")
	}
	for _, family := range mesh.FamilyNames() {
		family := family
		t.Run(family, func(t *testing.T) {
			p, err := NewProblemFromFamily(family, 0.02, 8, 8, 11)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range Schedulers() {
				res, err := p.Schedule(alg, ScheduleOptions{Seed: 13, BlockSize: 8})
				if err != nil {
					t.Fatalf("%s/%s: %v", family, alg, err)
				}
				sim, err := p.Simulate(res)
				if err != nil {
					t.Fatalf("%s/%s: simulator rejected schedule: %v", family, alg, err)
				}
				if sim.Steps != res.Metrics.Makespan {
					t.Fatalf("%s/%s: sim steps %d != makespan %d", family, alg, sim.Steps, res.Metrics.Makespan)
				}
				if sim.TotalMessages != res.Metrics.C1 || sim.CommRounds != res.Metrics.C2 {
					t.Fatalf("%s/%s: sim comm (%d,%d) != metrics (%d,%d)",
						family, alg, sim.TotalMessages, sim.CommRounds, res.Metrics.C1, res.Metrics.C2)
				}
			}
		})
	}
}

func TestIntegrationNonGeometric(t *testing.T) {
	for _, kind := range []NonGeometricKind{RandomChains, LayeredRandom, HeuristicTrap} {
		p, err := NewProblemNonGeometric(kind, 120, 6, 6, 3)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := p.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := p.Simulate(res); err != nil {
			t.Fatalf("%s: simulator: %v", kind, err)
		}
		// Block partitioning must be rejected cleanly (no mesh).
		if _, err := p.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 4, BlockSize: 8}); err == nil {
			t.Fatalf("%s: block partitioning accepted without a mesh", kind)
		}
	}
	if _, err := NewProblemNonGeometric(NonGeometricKind("bogus"), 10, 2, 2, 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestIntegrationSpeedupInvariant(t *testing.T) {
	// The paper's headline: Algorithm 2's makespan stays within 3·nk/m. At
	// test scale the load bound weakens at large m, so check at moderate m
	// where nk/m still dominates D.
	p, err := NewProblemFromFamily("tetonly", 0.05, 24, 16, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Schedule(RandomDelaysPriority, ScheduleOptions{Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio > 3 {
		t.Fatalf("ratio %v exceeds the paper's 3x envelope", res.Ratio)
	}
}

func TestIntegrationCommDelayConsistency(t *testing.T) {
	p, err := NewProblemFromFamily("long", 0.02, 8, 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Schedule(Level, ScheduleOptions{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := p.ScheduleComm(Level, ScheduleOptions{Seed: 29}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if comm.Metrics.Makespan < base.Metrics.Makespan {
		t.Fatalf("comm makespan %d below base %d", comm.Metrics.Makespan, base.Metrics.Makespan)
	}
}
