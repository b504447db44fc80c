package sched

import (
	"math"
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
	for st := int32(0); st < int32(s.Makespan); st++ {
		checkSpan(t, g, st)
	}
}

// checkSpan holds Span(step) to the step's rows: from processor 0's row's
// start to processor m-1's row's end, every row between them adjacent.
func checkSpan(t *testing.T, g *StepTable, step int32) {
	t.Helper()
	lo, hi := g.Span(step)
	at := lo
	for p := int32(0); p < int32(g.m); p++ {
		rlo, rhi := g.Row(p, step)
		if rlo != at || rhi < rlo {
			t.Fatalf("step %d: processor %d's row is [%d, %d), the step's rows reach %d", step, p, rlo, rhi, at)
		}
		at = rhi
	}
	if at != hi {
		t.Fatalf("step %d: Span is [%d, %d), its rows end at %d", step, lo, hi, at)
	}
}

// TestStepTableOnAStretchedSchedule: a list schedule with its starts
// spread 10⁵ steps apart and a pair of tasks at the far end of the int32
// steps groups as the map grouping does — at every start step, either
// side of it, and at steps no task starts at — with a table of O(tasks +
// m) entries: an index over processors × steps would be billions of them.
func TestStepTableOnAStretchedSchedule(t *testing.T) {
	var g StepTable
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		m := []int{1, 5, 64}[seed%3]
		inst := testInstance(t, 2, 4, m, seed)
		s, err := into(inst, RandomAssignment(inst.N(), inst.M, r), Rule{})
		if err != nil {
			t.Fatal(err)
		}
		const spread = 100_000
		for tsk := range s.Start {
			s.Start[tsk] *= spread
		}
		if seed%2 == 0 { // and two tasks at the end of the int32 steps
			s.Start[0], s.Start[len(s.Start)-1] = math.MaxInt32-2, math.MaxInt32-1
		}
		s.computeMakespan()
		if err := g.Build(s, nil, nil); err != nil {
			t.Fatal(err)
		}
		ref := groupStepsRef(s, nil, nil)
		steps := map[int32]bool{0: true, int32(s.Makespan) - 1: true}
		for _, st := range s.Start {
			steps[st], steps[st-1], steps[st+1] = true, true, true
		}
		for range 50 {
			steps[int32(r.Intn(s.Makespan))] = true
		}
		for st := range steps {
			if st < 0 || int(st) >= s.Makespan {
				continue
			}
			for p := int32(0); p < int32(m); p++ {
				if got, want := g.Tasks(p, st), ref[p][st]; !sameTasks(got, want) {
					t.Fatalf("seed %d: Tasks(%d, %d) = %v, reference grouping %v", seed, p, st, got, want)
				}
			}
			checkSpan(t, &g, st)
		}
		if size := len(g.off) + len(g.keys) + len(g.tasks); size > 6*inst.NTasks()+m+2 {
			t.Fatalf("seed %d: %d table entries for %d tasks on m=%d over %d steps", seed, size, inst.NTasks(), m, s.Makespan)
		}
	}
}

func TestStepTableCases(t *testing.T) {
	inst := testInstance(t, 2, 4, 3, 1)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(2))
	s, err := into(inst, assign, Rule{})
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
		s, err := into(inst, assign, Rule{Prio: prio})
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
		resid, err := into(inst, moved, Rule{Done: done})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Build(resid, moved, done); err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, &g, resid, moved, done)
	}
}

// TestRecvTableDeliversOnlyWhatWasDelivered: a slot is readable only once
// a flux was handed over into it since the last Reset, and only from the
// step it was stamped visible from; Reset forgets everything in O(1), and
// stamps running out must not resurrect old deliveries.
func TestRecvTableDeliversOnlyWhatWasDelivered(t *testing.T) {
	inst := testInstance(t, 2, 4, 3, 3)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(4))
	s, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	var steps StepTable
	if err := steps.Build(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	var r RecvTable
	r.Build(inst, assign, &steps)
	if len(r.prod) < 4 {
		t.Fatal("instance has too few cross edges")
	}
	last := steps.Steps() - 1
	readable := func(step int32) (slots []int32) {
		for s := range int32(len(r.prod)) {
			if _, ok := r.Load(s, step); ok {
				slots = append(slots, s)
			}
		}
		return slots
	}
	r.Reset()
	if got := readable(last); got != nil {
		t.Fatalf("slots %v readable before any delivery", got)
	}
	r.Deliver(2, 1.5, 3)
	r.Deliver(2, 1.5, 3) // a duplicate is harmless
	if got := readable(2); got != nil {
		t.Fatalf("slots %v readable at step 2, before the step they are visible from", got)
	}
	if v, ok := r.Load(2, 3); !ok || v != 1.5 {
		t.Fatalf("delivered flux reads (%v, %v) at the step it is visible from", v, ok)
	}
	if got := readable(last); len(got) != 1 {
		t.Fatalf("slots %v readable though only slot 2 was delivered", got)
	}
	r.Deliver(1, 2, last+1) // what the last step hands over
	r.Reset()
	if got := readable(last); got != nil {
		t.Fatalf("slots %v survived Reset", got)
	}
	// The stamps running out must not resurrect old deliveries.
	r.Deliver(1, 2, 0)
	r.base = math.MaxUint32 - 3
	r.Reset()
	if got := readable(last); got != nil || r.base != 1 {
		t.Fatalf("stamp wrap: readable=%v base=%d", got, r.base)
	}
	r.Deliver(0, 4, last)
	if got := readable(last); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after the wrap, slots %v readable, want [0]", got)
	}
	// Without a step table a sweep may run any number of steps.
	r.Build(inst, assign, nil)
	r.Deliver(3, 1, math.MaxInt32)
	r.Reset()
	if got := readable(math.MaxInt32); got != nil {
		t.Fatalf("slots %v survived Reset on a table without steps", got)
	}
}
