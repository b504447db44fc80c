package sched

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"sweepsched/internal/dag"
	"sweepsched/internal/rng"
)

// validateRef is Schedule.Validate as it stood before the grouped
// exclusivity check: the same coverage and precedence loops and the
// map-based one-task-per-slot loop, kept verbatim as the differential
// reference. It never looks at Makespan.
func validateRef(s *Schedule) error {
	inst := s.Inst
	if err := s.Assign.Validate(inst.N(), inst.M); err != nil {
		return err
	}
	if len(s.Start) != inst.NTasks() {
		return fmt.Errorf("sched: schedule covers %d of %d tasks", len(s.Start), inst.NTasks())
	}
	for t, st := range s.Start {
		if st < 0 {
			return fmt.Errorf("sched: task %d unscheduled (start %d)", t, st)
		}
	}
	// Precedence.
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		base := TaskID(int32(i) * n)
		for u := int32(0); u < n; u++ {
			su := s.Start[base+TaskID(u)]
			for _, w := range d.Out(u) {
				if s.Start[base+TaskID(w)] <= su {
					return fmt.Errorf("sched: precedence violated in dir %d: (%d)@%d !< (%d)@%d",
						i, u, su, w, s.Start[base+TaskID(w)])
				}
			}
		}
	}
	// Processor exclusivity: no processor runs two tasks in one step.
	type slot struct {
		p int32
		t int32
	}
	seen := make(map[slot]TaskID, len(s.Start))
	for tid, st := range s.Start {
		v, _ := inst.Split(TaskID(tid))
		key := slot{s.Assign[v], st}
		if prev, ok := seen[key]; ok {
			return fmt.Errorf("sched: processor %d runs tasks %d and %d at step %d", key.p, prev, tid, st)
		}
		seen[key] = TaskID(tid)
	}
	return nil
}

// weightedValidateRef is WeightedSchedule.Validate as it stood before the
// grouped exclusivity check, insertion sort and all, kept verbatim as the
// differential reference. It never looks at Makespan.
func weightedValidateRef(s *WeightedSchedule) error {
	inst := s.Inst
	if err := s.Assign.Validate(inst.N(), inst.M); err != nil {
		return err
	}
	if err := s.Weights.Validate(inst.N()); err != nil {
		return err
	}
	if err := s.Model.Validate(inst.M); err != nil {
		return err
	}
	nt := inst.NTasks()
	if len(s.Start) != nt || len(s.Finish) != nt {
		return fmt.Errorf("sched: weighted schedule covers %d/%d starts and %d/%d finishes",
			len(s.Start), nt, len(s.Finish), nt)
	}
	n := int32(inst.N())
	for t := 0; t < nt; t++ {
		v, _ := inst.Split(TaskID(t))
		if s.Start[t] < 0 {
			return fmt.Errorf("sched: task %d unscheduled", t)
		}
		p := s.Assign[v]
		if d := durationOn(s.Weights[v], s.Model.SpeedOf(p)); s.Finish[t] != s.Start[t]+d {
			return fmt.Errorf("sched: task %d duration wrong: [%d,%d) want %d",
				t, s.Start[t], s.Finish[t], d)
		}
	}
	for i, d := range inst.DAGs {
		base := TaskID(int32(i) * n)
		for u := int32(0); u < n; u++ {
			fu := s.Finish[base+TaskID(u)]
			pu := s.Assign[u]
			for _, w := range d.Out(u) {
				gap := s.Model.DelayOf(pu, s.Assign[w])
				if s.Start[base+TaskID(w)] < fu+gap {
					return fmt.Errorf("sched: weighted precedence violated on (%d,%d)->(%d,%d)", u, i, w, i)
				}
			}
		}
	}
	// Per-processor intervals must not overlap: check via sorting by start.
	perProc := make([][]TaskID, inst.M)
	for t := 0; t < nt; t++ {
		v, _ := inst.Split(TaskID(t))
		p := s.Assign[v]
		perProc[p] = append(perProc[p], TaskID(t))
	}
	for p, tasks := range perProc {
		// Insertion sort by start (lists are built unsorted).
		for i := 1; i < len(tasks); i++ {
			for j := i; j > 0 && s.Start[tasks[j]] < s.Start[tasks[j-1]]; j-- {
				tasks[j], tasks[j-1] = tasks[j-1], tasks[j]
			}
		}
		for i := 1; i < len(tasks); i++ {
			if s.Start[tasks[i]] < s.Finish[tasks[i-1]] {
				return fmt.Errorf("sched: processor %d overlap between tasks %d and %d",
					p, tasks[i-1], tasks[i])
			}
		}
	}
	return nil
}

// sameVerdict requires the validator under test and its reference to
// agree on accept/reject and, when exact is set (the input has a single
// violation, or one of a kind both report in the same order), on the
// error text byte for byte.
func sameVerdict(t *testing.T, name string, got, want error, exact bool) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: Validate says %v, reference says %v", name, got, want)
	}
	if exact && got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: Validate says %q, reference says %q", name, got, want)
	}
}

// otherOnProc returns a task other than t whose cell sits on the same
// processor, or -1 when t is alone there.
func otherOnProc(inst *Instance, assign Assignment, t TaskID, r *rng.Source) TaskID {
	n := int32(inst.N())
	p := assign[int32(t)%n]
	var peers []TaskID
	for u := 0; u < inst.NTasks(); u++ {
		if TaskID(u) != t && assign[int32(u)%n] == p {
			peers = append(peers, TaskID(u))
		}
	}
	if len(peers) == 0 {
		return -1
	}
	return peers[r.Intn(len(peers))]
}

// randomEdge returns the endpoints (as tasks) of a random DAG edge.
func randomEdge(inst *Instance, r *rng.Source) (u, w TaskID, ok bool) {
	for try := 0; try < 64; try++ {
		i, c := int32(r.Intn(inst.K())), int32(r.Intn(inst.N()))
		if outs := inst.DAGs[i].Out(c); len(outs) > 0 {
			return inst.Task(c, i), inst.Task(outs[r.Intn(len(outs))], i), true
		}
	}
	return 0, 0, false
}

// TestValidateMatchesReference is the differential test of the unit
// validator against the parent's: 240 seeded random instances, each
// checked as produced and under one seeded corruption of every kind.
func TestValidateMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 240; seed++ {
		r := rng.New(seed)
		inst := randomDAGInstance(t, 6+r.Intn(24), 1+r.Intn(4), 1+r.Intn(6), seed)
		nt := inst.NTasks()
		assign := RandomAssignment(inst.N(), inst.M, r)
		var release []int32
		if seed%3 == 0 {
			release = releaseStream(nt, 40, r) // idle gaps: steps no longer dense
		}
		valid, err := ListScheduleWithRelease(inst, assign, randomPrio(nt, r), release)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := func(name string, exact bool, mutate func(s *Schedule) bool) {
			s := &Schedule{Inst: inst, Assign: assign, Start: append([]int32(nil), valid.Start...)}
			if !mutate(s) {
				return
			}
			s.computeMakespan()
			got := s.Validate()
			sameVerdict(t, fmt.Sprintf("seed %d %s", seed, name), got, validateRef(s), exact)
			if again := s.Validate(); (got == nil) != (again == nil) || (got != nil && got.Error() != again.Error()) {
				t.Fatalf("seed %d %s: Validate is not deterministic: %v then %v", seed, name, got, again)
			}
		}
		corrupt("valid", true, func(*Schedule) bool { return true })
		corrupt("doubleBooked", true, func(s *Schedule) bool {
			b := TaskID(r.Intn(nt))
			a := otherOnProc(inst, assign, b, r)
			if a < 0 {
				return false
			}
			s.Start[b] = s.Start[a] // exactly one slot now holds two tasks
			return true
		})
		corrupt("precedenceFlip", true, func(s *Schedule) bool {
			u, w, ok := randomEdge(inst, r)
			if ok {
				s.Start[u], s.Start[w] = s.Start[w], s.Start[u]
			}
			return ok
		})
		corrupt("unscheduled", true, func(s *Schedule) bool {
			s.Start[r.Intn(nt)] = -1
			return true
		})
		// Several double-booked slots: the verdicts agree, the reported
		// pair may differ (and is deterministic, checked above).
		corrupt("manyDoubleBooked", false, func(s *Schedule) bool {
			for j := 0; j < 3; j++ {
				b := TaskID(r.Intn(nt))
				if a := otherOnProc(inst, assign, b, r); a >= 0 {
					s.Start[b] = s.Start[a]
				}
			}
			return true
		})
	}
}

// TestWeightedValidateMatchesReference is the same differential test for
// the weighted validator, on the uniform and on a heterogeneous machine.
// Both validators scan processors in ascending order and each
// processor's tasks in (start, id) order, so the texts agree on every
// input, not only on single violations.
func TestWeightedValidateMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 240; seed++ {
		r := rng.New(seed ^ 0x5eed)
		inst := randomDAGInstance(t, 6+r.Intn(24), 1+r.Intn(4), 1+r.Intn(6), seed)
		nt := inst.NTasks()
		assign := RandomAssignment(inst.N(), inst.M, r)
		weights := randomWeights(inst.N(), r, 9)
		var model *MachineModel
		if seed%2 == 1 {
			model = &MachineModel{Speeds: make([]int32, inst.M), IntraDelay: 1, CrossDelay: 1}
			for p := range model.Speeds {
				model.Speeds[p] = int32(1 + r.Intn(3))
			}
		}
		valid, err := ListScheduleMachine(inst, assign, randomPrio(nt, r), weights, model)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := func(name string, mutate func(s *WeightedSchedule) bool) {
			s := &WeightedSchedule{Inst: inst, Assign: assign, Weights: weights, Model: model,
				Start: append([]int64(nil), valid.Start...), Finish: append([]int64(nil), valid.Finish...)}
			if !mutate(s) {
				return
			}
			for _, f := range s.Finish {
				s.Makespan = max(s.Makespan, f)
			}
			sameVerdict(t, fmt.Sprintf("seed %d %s", seed, name), s.Validate(), weightedValidateRef(s), true)
		}
		// moveTo restarts task b at time at, keeping its duration.
		moveTo := func(s *WeightedSchedule, b TaskID, at int64) {
			s.Finish[b] += at - s.Start[b]
			s.Start[b] = at
		}
		corrupt("valid", func(*WeightedSchedule) bool { return true })
		corrupt("overlap", func(s *WeightedSchedule) bool {
			b := TaskID(r.Intn(nt))
			a := otherOnProc(inst, assign, b, r)
			if a < 0 {
				return false
			}
			moveTo(s, b, s.Finish[a]-1) // b starts inside a's last time unit
			return true
		})
		corrupt("equalStarts", func(s *WeightedSchedule) bool {
			b := TaskID(r.Intn(nt))
			a := otherOnProc(inst, assign, b, r)
			if a < 0 {
				return false
			}
			moveTo(s, b, s.Start[a])
			return true
		})
		corrupt("precedenceFlip", func(s *WeightedSchedule) bool {
			u, w, ok := randomEdge(inst, r)
			if ok {
				su, sw := s.Start[u], s.Start[w]
				moveTo(s, u, sw)
				moveTo(s, w, su)
			}
			return ok
		})
		corrupt("unscheduled", func(s *WeightedSchedule) bool {
			s.Start[r.Intn(nt)] = -1
			return true
		})
		corrupt("wrongDuration", func(s *WeightedSchedule) bool {
			s.Finish[r.Intn(nt)]++
			return true
		})
	}
}

// TestValidateRejectsStaleMakespan: a Makespan that disagrees with the
// start (resp. finish) times used to pass Validate and then mis-size
// whatever trusted it — sched.C2 indexed its per-step table out of range.
func TestValidateRejectsStaleMakespan(t *testing.T) {
	inst := chainInstance(t, 3, 2)
	unit := &Schedule{Inst: inst, Assign: Assignment{0, 0, 1}, Start: []int32{0, 1, 2}, Makespan: 1}
	if err := unit.Validate(); err == nil || !strings.Contains(err.Error(), "makespan") {
		t.Fatalf("stale unit makespan: got %v, want a makespan error", err)
	}
	// C2 reads the steps from Start, not from the claim (this input used
	// to panic with "index out of range [2] with length 2").
	stale := C2(unit, 1)
	unit.computeMakespan()
	if err := unit.Validate(); err != nil {
		t.Fatalf("refreshed makespan: %v", err)
	}
	if want := C2(unit, 1); stale != want || want != 1 {
		t.Fatalf("C2 under a stale makespan = %d, under the true one %d, want 1", stale, want)
	}
	unit.Makespan++
	if err := unit.Validate(); err == nil || !strings.Contains(err.Error(), "makespan") {
		t.Fatalf("overlong unit makespan: got %v, want a makespan error", err)
	}

	for _, makespan := range []int64{4, 6} {
		w := &WeightedSchedule{
			Inst: inst, Assign: Assignment{0, 0, 1}, Weights: CellWeights{2, 1, 2},
			Start: []int64{0, 2, 3}, Finish: []int64{2, 3, 5}, Makespan: makespan,
		}
		if err := w.Validate(); err == nil || !strings.Contains(err.Error(), "makespan") {
			t.Fatalf("weighted makespan %d against max finish 5: got %v, want a makespan error", makespan, err)
		}
		w.Makespan = 5
		if err := w.Validate(); err != nil {
			t.Fatalf("weighted makespan 5: %v", err)
		}
	}
}

// TestValidateDoubleBookingAtLastStep: the last representable step is a
// step like any other (start+1 must not wrap around).
func TestValidateDoubleBookingAtLastStep(t *testing.T) {
	d, err := dag.FromEdges(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{Inst: inst, Assign: Assignment{0, 1}, Start: []int32{math.MaxInt32, math.MaxInt32}}
	s.computeMakespan()
	if err := s.Validate(); err != nil {
		t.Fatalf("one task per processor at step MaxInt32: %v", err)
	}
	s.Assign = Assignment{1, 1}
	want := fmt.Sprintf("sched: processor 1 runs tasks 0 and 1 at step %d", math.MaxInt32)
	if err := s.Validate(); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
	if ref := validateRef(s); ref == nil || ref.Error() != want {
		t.Fatalf("reference says %v, want %q", ref, want)
	}
}

// allocatedBytes returns the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFeasibilityTailBoundedOnSparseSchedules: Validate and Measure must
// cost O(tasks + m) memory however far apart the start steps are — no
// table sized from the start values. A per-step table would be 8 GB for
// the first schedule and 256 MB for the second; the budget is 2 MiB.
func TestFeasibilityTailBoundedOnSparseSchedules(t *testing.T) {
	const budget = 2 << 20

	// Two tasks, one at each end of the int32 step range, m = 1024.
	d, err := dag.FromEdges(2, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := FromDAGs([]*dag.DAG{d}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ends := &Schedule{Inst: inst, Assign: Assignment{1023, 7}, Start: []int32{0, math.MaxInt32 - 1}}
	ends.computeMakespan()

	// A list schedule stretched so that its makespan is 10⁶× its task
	// count, as release delays of that size would leave it.
	small := randomDAGInstance(t, 16, 4, 8, 3)
	r := rng.New(3)
	stretched, err := ListSchedule(small, RandomAssignment(small.N(), small.M, r), nil)
	if err != nil {
		t.Fatal(err)
	}
	dense := C2(stretched, 1)
	factor := int32(1_000_000*small.NTasks()/(stretched.Makespan-1) + 1)
	for i := range stretched.Start {
		stretched.Start[i] *= factor
	}
	stretched.computeMakespan()
	if stretched.Makespan < 1_000_000*small.NTasks() {
		t.Fatalf("makespan %d is not 10⁶× the %d tasks", stretched.Makespan, small.NTasks())
	}

	for name, s := range map[string]*Schedule{"twoEnds": ends, "stretched": stretched} {
		var verr error
		var met Metrics
		got := allocatedBytes(func() {
			verr = s.Validate()
			met = Measure(s, 2)
		})
		if verr != nil {
			t.Fatalf("%s: %v", name, verr)
		}
		if got > budget {
			t.Fatalf("%s: Validate+Measure allocated %d bytes for %d tasks on m=%d (budget %d)",
				name, got, s.Inst.NTasks(), s.Inst.M, budget)
		}
		if name == "twoEnds" && (met.C1 != 1 || met.C2 != 1) {
			t.Fatalf("twoEnds: C1 %d C2 %d, want 1 and 1", met.C1, met.C2)
		}
		if name == "stretched" && met.C2 != dense {
			t.Fatalf("stretched: C2 %d, the dense schedule's is %d", met.C2, dense)
		}
	}
}

// TestWeightedValidateSingleProcessorIsFast: 200k tasks on one processor
// is one 200k-long run to order. The insertion sort it replaces needs
// ~10¹⁰ moves here (tens of seconds); the bound is one second.
func TestWeightedValidateSingleProcessorIsFast(t *testing.T) {
	const n = 200_000
	d, err := dag.FromEdges(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := FromDAGs([]*dag.DAG{d}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	s := &WeightedSchedule{
		Inst: inst, Assign: make(Assignment, n), Weights: make(CellWeights, n),
		Start: make([]int64, n), Finish: make([]int64, n),
	}
	for v := range s.Weights {
		s.Weights[v] = int32(2 + r.Intn(8)) // >= 2: the overlap below never ties two starts
	}
	// No edges, so any serial order is feasible: run the cells back to
	// back in a random order.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, v := range order {
		s.Start[v] = s.Makespan
		s.Makespan += int64(s.Weights[v])
		s.Finish[v] = s.Makespan
	}
	begin := time.Now()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("Validate took %v for %d tasks on one processor", took, n)
	}
	// The check still sees through the volume: overlap the last two cells.
	last, prev := order[n-1], order[n-2]
	s.Start[last]--
	s.Finish[last]--
	s.Makespan--
	want := fmt.Sprintf("sched: processor 0 overlap between tasks %d and %d", prev, last)
	if err := s.Validate(); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %q", err, want)
	}
}
