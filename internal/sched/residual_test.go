package sched

import (
	"testing"

	"sweepsched/internal/rng"
)

func TestListScheduleResidualNilDoneMatchesListSchedule(t *testing.T) {
	inst := testInstance(t, 3, 4, 4, 1)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(2))
	full, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != full.Makespan {
		t.Fatalf("residual makespan %d != full %d", res.Makespan, full.Makespan)
	}
	for tsk := range full.Start {
		if res.Start[tsk] != full.Start[tsk] {
			t.Fatalf("task %d: residual start %d != full %d", tsk, res.Start[tsk], full.Start[tsk])
		}
	}
}

func TestListScheduleResidualSkipsDoneAndRespectsPrecedence(t *testing.T) {
	inst := testInstance(t, 3, 4, 4, 3)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(4))
	full, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	// Mark everything the full schedule ran in its first half as done — a
	// precedence-consistent prefix.
	nt := inst.NTasks()
	done := make([]bool, nt)
	half := int32(full.Makespan / 2)
	remaining := 0
	for tsk := 0; tsk < nt; tsk++ {
		if full.Start[tsk] < half {
			done[tsk] = true
		} else {
			remaining++
		}
	}
	res, err := into(inst, assign, Rule{Done: done})
	if err != nil {
		t.Fatal(err)
	}
	n := int32(inst.N())
	scheduled := 0
	for tsk := 0; tsk < nt; tsk++ {
		if done[tsk] {
			if res.Start[tsk] != -1 {
				t.Fatalf("done task %d got start %d, want -1", tsk, res.Start[tsk])
			}
			continue
		}
		scheduled++
		if res.Start[tsk] < 0 {
			t.Fatalf("not-done task %d unscheduled", tsk)
		}
	}
	if scheduled != remaining {
		t.Fatalf("scheduled %d tasks, want %d", scheduled, remaining)
	}
	// Precedence among not-done tasks: strict ordering along every edge.
	for i, d := range inst.DAGs {
		base := TaskID(int32(i) * n)
		for u := int32(0); u < n; u++ {
			ut := base + TaskID(u)
			if done[ut] {
				continue
			}
			for _, w := range d.Out(u) {
				wt := base + TaskID(w)
				if done[wt] {
					t.Fatalf("edge %d->%d: successor done before predecessor", ut, wt)
				}
				if res.Start[wt] <= res.Start[ut] {
					t.Fatalf("edge %d->%d: starts %d <= %d", ut, wt, res.Start[wt], res.Start[ut])
				}
			}
		}
	}
}

func TestListScheduleResidualInconsistentDoneErrors(t *testing.T) {
	inst := testInstance(t, 2, 4, 2, 5)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(6))
	if _, err := into(inst, assign, Rule{Done: make([]bool, 3)}); err == nil {
		t.Fatal("wrong-length done set accepted")
	}
}
