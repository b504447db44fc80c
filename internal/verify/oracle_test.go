package verify_test

import (
	"testing"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// TestDifferentialOracle replays randomized instances — mesh-derived and
// synthetic, with tied priorities and random releases — through the step
// core's list, comm and residual rules and the greedy pass, against their
// promoted pre-optimization references, demanding bitwise agreement.
func TestDifferentialOracle(t *testing.T) {
	r := rng.New(0xd1ff)
	insts := []*sched.Instance{
		meshInstance(t, 3, 3, 3, 17),
		syntheticInstance(t, 45, 3, 4, 18),
		syntheticInstance(t, 80, 2, 6, 19),
	}
	for ii, inst := range insts {
		nt := inst.NTasks()
		for round := 0; round < 6; round++ {
			assign := sched.RandomAssignment(inst.N(), inst.M, r)
			var prio sched.Priorities
			if round%2 == 1 {
				// Heavily tied priorities stress the (priority, TaskID)
				// tie-break agreement between heap4/rankq and container/heap.
				prio = make(sched.Priorities, nt)
				for t := range prio {
					prio[t] = int64(r.Intn(3))
				}
			}
			var release []int32
			if round%3 == 2 {
				release = make([]int32, nt)
				for t := range release {
					release[t] = int32(r.Intn(4))
				}
			}
			if err := verify.Differential(inst, assign, sched.Rule{Prio: prio, Release: release}); err != nil {
				t.Errorf("inst %d round %d: %v", ii, round, err)
			}
			if err := verify.Differential(inst, assign, sched.Rule{Prio: prio, CommDelay: round % 4}); err != nil {
				t.Errorf("inst %d round %d: %v", ii, round, err)
			}
			if err := verify.DifferentialGreedy(inst, prio); err != nil {
				t.Errorf("inst %d round %d: %v", ii, round, err)
			}
			// Residual from a random cut of a full schedule.
			full, err := into(inst, assign, sched.Rule{Prio: prio})
			if err != nil {
				t.Fatal(err)
			}
			cut := int32(r.Intn(full.Makespan + 1))
			done := make([]bool, nt)
			for tt, st := range full.Start {
				if st < cut {
					done[tt] = true
				}
			}
			if err := verify.Differential(inst, assign, sched.Rule{Prio: prio, Done: done}); err != nil {
				t.Errorf("inst %d round %d cut %d: %v", ii, round, cut, err)
			}
		}
	}
}

// TestDifferentialAgreesOnErrors feeds both kernel and reference an
// invalid input (assignment with an out-of-range processor) and checks
// the oracle treats agreeing failures as a match rather than a
// divergence.
func TestDifferentialAgreesOnErrors(t *testing.T) {
	inst := syntheticInstance(t, 20, 2, 3, 23)
	bad := make(sched.Assignment, inst.N())
	bad[0] = int32(inst.M) + 5
	if err := verify.Differential(inst, bad, sched.Rule{}); err != nil {
		t.Errorf("agreeing failures reported as divergence: %v", err)
	}
	if err := verify.Differential(inst, bad, sched.Rule{CommDelay: 2}); err != nil {
		t.Errorf("agreeing comm failures reported as divergence: %v", err)
	}
	if err := verify.Differential(inst, bad, sched.Rule{Done: make([]bool, inst.NTasks())}); err != nil {
		t.Errorf("agreeing residual failures reported as divergence: %v", err)
	}
}
