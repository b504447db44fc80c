package sched

import (
	"strings"
	"testing"

	"sweepsched/internal/rng"
)

// groupStepsRef is the map grouping the step table replaced, kept here
// as the reference the table is checked against.
func groupStepsRef(s *Schedule, assign Assignment, done []bool) []map[int32][]TaskID {
	inst := s.Inst
	if assign == nil {
		assign = s.Assign
	}
	byStep := make([]map[int32][]TaskID, inst.M)
	for p := range byStep {
		byStep[p] = map[int32][]TaskID{}
	}
	for t := 0; t < inst.NTasks(); t++ {
		if done != nil && done[t] {
			continue
		}
		v, _ := inst.Split(TaskID(t))
		p := assign[v]
		byStep[p][s.Start[t]] = append(byStep[p][s.Start[t]], TaskID(t))
	}
	return byStep
}

func sameTasks(a, b []TaskID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkAgainstRef(t *testing.T, g *StepTable, s *Schedule, assign Assignment, done []bool) {
	t.Helper()
	ref := groupStepsRef(s, assign, done)
	if int(g.Steps()) != s.Makespan {
		t.Fatalf("table covers %d steps, makespan %d", g.Steps(), s.Makespan)
	}
	for p := int32(0); p < int32(s.Inst.M); p++ {
		for st := int32(0); st < int32(s.Makespan); st++ {
			if got, want := g.Tasks(p, st), ref[p][st]; !sameTasks(got, want) {
				t.Fatalf("Tasks(%d, %d) = %v, reference grouping %v", p, st, got, want)
			}
		}
	}
	if g.Tasks(0, -1) != nil || g.Tasks(0, int32(s.Makespan)) != nil {
		t.Fatal("a step outside the table has tasks")
	}
}

func TestStepTableCases(t *testing.T) {
	inst := testInstance(t, 2, 4, 3, 1)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(2))
	s, err := ListSchedule(inst, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	nt := inst.NTasks()
	half := make([]bool, nt)
	for tsk := range half {
		half[tsk] = s.Start[tsk] < int32(s.Makespan/2)
	}
	all := make([]bool, nt)
	for tsk := range all {
		all[tsk] = true
	}
	moved := append(Assignment(nil), assign...)
	for v := range moved {
		if moved[v] == 0 {
			moved[v] = 1 // processor 0 died, its cells went to 1
		}
	}
	var g StepTable // one table rebuilt by every case: Build must fully reset it
	for _, tc := range []struct {
		name   string
		assign Assignment
		done   []bool
	}{
		{"everything", nil, nil},
		{"done mask", nil, half},
		{"all done", nil, all},
		{"assign override", moved, nil},
		{"override and mask", moved, half},
	} {
		if err := g.Build(s, tc.assign, tc.done); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkAgainstRef(t, &g, s, tc.assign, tc.done)
		if tc.assign != nil {
			for st := int32(0); st < int32(s.Makespan); st++ {
				if len(g.Tasks(0, st)) != 0 {
					t.Fatalf("%s: dead processor 0 still has tasks at step %d", tc.name, st)
				}
			}
		}
	}

	// An unscheduled not-done task is an error; masked out, it is not.
	bad := *s
	bad.Start = append([]int32(nil), s.Start...)
	bad.Start[5] = -1
	if err := g.Build(&bad, nil, nil); err == nil || !strings.Contains(err.Error(), "task 5 unscheduled") {
		t.Fatalf("unscheduled task: got %v", err)
	}
	only5 := make([]bool, nt)
	only5[5] = true
	if err := g.Build(&bad, nil, only5); err != nil {
		t.Fatalf("unscheduled but done task rejected: %v", err)
	}
	bad.Start[5] = int32(s.Makespan)
	if err := g.Build(&bad, nil, nil); err == nil || !strings.Contains(err.Error(), "makespan") {
		t.Fatalf("start beyond the makespan: got %v", err)
	}
}

// TestStepTableMatchesMapGrouping is the seeded property: on random
// feasible schedules and on residual schedules over a mutated assignment,
// Tasks(p, step) is the old map grouping, TaskID order within a group
// included.
func TestStepTableMatchesMapGrouping(t *testing.T) {
	var g StepTable
	for seed := uint64(1); seed <= 12; seed++ {
		r := rng.New(seed)
		m := 1 + int(seed%6)
		inst := testInstance(t, 2, 4, m, seed)
		assign := RandomAssignment(inst.N(), inst.M, r)
		prio := make(Priorities, inst.NTasks())
		for tsk := range prio {
			prio[tsk] = int64(r.Intn(1 << 20))
		}
		s, err := ListSchedule(inst, assign, prio)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Build(s, nil, nil); err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, &g, s, nil, nil)

		// A precedence-closed prefix is done, one processor is dead, and
		// the rest is rescheduled: what a recovery hands the executor.
		cut := int32(r.Intn(s.Makespan + 1))
		done := make([]bool, inst.NTasks())
		for tsk := range done {
			done[tsk] = s.Start[tsk] < cut
		}
		moved := append(Assignment(nil), assign...)
		if m > 1 {
			dead := int32(r.Intn(m))
			for v := range moved {
				if moved[v] == dead {
					moved[v] = (dead + 1) % int32(m)
				}
			}
		}
		resid, err := ListScheduleResidual(inst, moved, nil, done)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Build(resid, moved, done); err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, &g, resid, moved, done)
	}
}

func TestRecvTableDeliversOnlyWhatWasDelivered(t *testing.T) {
	inst := testInstance(t, 2, 4, 3, 3)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(4))
	var r RecvTable
	r.Build(inst, assign)
	if r.Slots() < 4 {
		t.Fatal("instance has too few cross edges")
	}
	readable := func() (slots []int32) {
		for s := int32(0); s < int32(r.Slots()); s++ {
			if _, ok := r.Load(s); ok {
				slots = append(slots, s)
			}
		}
		return slots
	}
	if got := readable(); got != nil {
		t.Fatalf("slots %v readable before any delivery", got)
	}
	r.Deliver(2, 1.5)
	r.Deliver(2, 1.5) // a duplicate is harmless
	if v, ok := r.Load(2); !ok || v != 1.5 {
		t.Fatalf("delivered flux reads (%v, %v)", v, ok)
	}
	if got := readable(); len(got) != 1 {
		t.Fatalf("slots %v readable though only slot 2 was delivered", got)
	}
	r.Reset()
	if got := readable(); got != nil {
		t.Fatalf("slots %v survived Reset", got)
	}
	// The stamp wrapping around must not resurrect old deliveries.
	r.Deliver(1, 2)
	r.cur = ^uint32(0)
	r.Reset()
	if got := readable(); got != nil || r.cur != 1 {
		t.Fatalf("stamp wrap: readable=%v cur=%d", got, r.cur)
	}
}
