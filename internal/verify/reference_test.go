package verify_test

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// tasksRef is verify.Tasks as it stood when exclusivity was a hash map
// keyed by (processor, step), kept verbatim (minus the angleset audit,
// which these tests do not use) as the differential reference.
func tasksRef(inst *sched.Instance, proc []int32, start []int32, opts verify.Opts) error {
	nt := inst.NTasks()
	n := int32(inst.N())
	if len(proc) != nt {
		return fmt.Errorf("verify: processor slice covers %d of %d tasks", len(proc), nt)
	}
	if len(start) != nt {
		return fmt.Errorf("verify: start slice covers %d of %d tasks", len(start), nt)
	}
	if opts.Release != nil && len(opts.Release) != nt {
		return fmt.Errorf("verify: release slice covers %d of %d tasks", len(opts.Release), nt)
	}
	if opts.CommDelay < 0 {
		return fmt.Errorf("verify: negative comm delay %d", opts.CommDelay)
	}
	for t := 0; t < nt; t++ {
		if start[t] < 0 {
			return fmt.Errorf("verify: task %d unscheduled (start %d)", t, start[t])
		}
		if proc[t] < 0 || int(proc[t]) >= inst.M {
			return fmt.Errorf("verify: task %d on processor %d (m=%d)", t, proc[t], inst.M)
		}
		if opts.Release != nil && start[t] < opts.Release[t] {
			return fmt.Errorf("verify: task %d starts at %d before release %d", t, start[t], opts.Release[t])
		}
	}
	// All k copies of a cell on one processor (§3, constraint 3).
	for v := int32(0); v < n; v++ {
		p0 := proc[v]
		for i := int32(1); i < int32(inst.K()); i++ {
			if p := proc[i*n+v]; p != p0 {
				return fmt.Errorf("verify: cell %d split across processors %d (dir 0) and %d (dir %d)", v, p0, p, i)
			}
		}
	}
	// Precedence within every direction DAG, with the comm-delay gap on
	// cross-processor edges.
	cd := int32(opts.CommDelay)
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			ut := base + u
			for _, w := range d.Out(u) {
				wt := base + w
				gap := int32(1)
				if cd > 0 && proc[ut] != proc[wt] {
					gap += cd
				}
				if start[wt] < start[ut]+gap {
					return fmt.Errorf("verify: precedence violated in dir %d: cell %d@%d -> cell %d@%d needs gap %d",
						i, u, start[ut], w, start[wt], gap)
				}
			}
		}
	}
	// Processor exclusivity: <= 1 task per processor per step.
	type slot struct{ p, step int32 }
	seen := make(map[slot]int, nt)
	for t := 0; t < nt; t++ {
		key := slot{proc[t], start[t]}
		if prev, ok := seen[key]; ok {
			return fmt.Errorf("verify: processor %d runs tasks %d and %d at step %d", key.p, prev, t, key.step)
		}
		seen[key] = t
	}
	return nil
}

// c2RefMaps is verify.C2Ref as it stood when it grouped tasks in a map by
// step and counted sends in a fresh map per step, kept verbatim as the
// differential reference.
func c2RefMaps(s *sched.Schedule) int64 {
	inst := s.Inst
	byStep := make(map[int32][]sched.TaskID)
	for t, st := range s.Start {
		byStep[st] = append(byStep[st], sched.TaskID(t))
	}
	var total int64
	for st := int32(0); st < int32(s.Makespan); st++ {
		sends := make(map[int32]int64)
		for _, t := range byStep[st] {
			v, i := inst.Split(t)
			p := s.Assign[v]
			for _, w := range inst.DAGs[i].Out(v) {
				if s.Assign[w] != p {
					sends[p]++
				}
			}
		}
		var max int64
		for _, c := range sends {
			if c > max {
				max = c
			}
		}
		total += max
	}
	return total
}

// taskProcs expands a cell assignment to the per-task processor slice
// verify.Tasks takes.
func taskProcs(inst *sched.Instance, assign sched.Assignment) []int32 {
	proc := make([]int32, inst.NTasks())
	for t := range proc {
		proc[t] = assign[t%inst.N()]
	}
	return proc
}

// TestTasksAndC2RefMatchReference is the differential test of the
// slice-based auditor against the map-based one: 240 seeded random
// instances, each audited as produced and under one seeded corruption of
// every kind. Verdicts must agree everywhere; on single-violation inputs
// the error text must agree byte for byte.
func TestTasksAndC2RefMatchReference(t *testing.T) {
	for seed := uint64(0); seed < 240; seed++ {
		r := rng.New(seed ^ 0xa0d17)
		inst := syntheticInstance(t, 6+r.Intn(24), 1+r.Intn(4), 1+r.Intn(6), seed)
		nt := inst.NTasks()
		assign := sched.RandomAssignment(inst.N(), inst.M, r)
		var opts verify.Opts
		if seed%3 == 0 {
			opts.Release = make([]int32, nt) // idle gaps: steps no longer dense
			for i := range opts.Release {
				opts.Release[i] = int32(r.Intn(41))
			}
		}
		valid, err := into(inst, assign, sched.Rule{Release: opts.Release})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := verify.C2Ref(valid), c2RefMaps(valid); got != want {
			t.Fatalf("seed %d: C2Ref %d, map-based reference %d", seed, got, want)
		}
		// A claim that cuts the schedule short: neither charges the steps
		// beyond it.
		short := *valid
		short.Makespan = valid.Makespan / 2
		if got, want := verify.C2Ref(&short), c2RefMaps(&short); got != want {
			t.Fatalf("seed %d: C2Ref %d under a halved makespan, map-based reference %d", seed, got, want)
		}

		proc := taskProcs(inst, assign)
		// otherOnProc picks a task other than b on b's processor.
		otherOnProc := func(b int) int {
			var peers []int
			for u := range proc {
				if u != b && proc[u] == proc[b] {
					peers = append(peers, u)
				}
			}
			if len(peers) == 0 {
				return -1
			}
			return peers[r.Intn(len(peers))]
		}
		audit := func(name string, exact bool, mutate func(start []int32) bool) {
			start := append([]int32(nil), valid.Start...)
			if !mutate(start) {
				return
			}
			got, want := verify.Tasks(inst, proc, start, opts), tasksRef(inst, proc, start, opts)
			if (got == nil) != (want == nil) {
				t.Fatalf("seed %d %s: Tasks says %v, reference says %v", seed, name, got, want)
			}
			if exact && got != nil && got.Error() != want.Error() {
				t.Fatalf("seed %d %s: Tasks says %q, reference says %q", seed, name, got, want)
			}
			if again := verify.Tasks(inst, proc, start, opts); got != nil && got.Error() != again.Error() {
				t.Fatalf("seed %d %s: Tasks is not deterministic: %v then %v", seed, name, got, again)
			}
		}
		audit("valid", true, func([]int32) bool { return true })
		audit("doubleBooked", true, func(start []int32) bool {
			b := r.Intn(nt)
			a := otherOnProc(b)
			if a < 0 {
				return false
			}
			start[b] = start[a] // exactly one slot now holds two tasks
			return true
		})
		audit("precedenceFlip", true, func(start []int32) bool {
			for try := 0; try < 64; try++ {
				i, u := r.Intn(inst.K()), r.Intn(inst.N())
				if outs := inst.DAGs[i].Out(int32(u)); len(outs) > 0 {
					ut, wt := i*inst.N()+u, i*inst.N()+int(outs[0])
					start[ut], start[wt] = start[wt], start[ut]
					return true
				}
			}
			return false
		})
		audit("unscheduled", true, func(start []int32) bool {
			start[r.Intn(nt)] = -1
			return true
		})
		audit("manyDoubleBooked", false, func(start []int32) bool {
			for j := 0; j < 3; j++ {
				b := r.Intn(nt)
				if a := otherOnProc(b); a >= 0 {
					start[b] = start[a]
				}
			}
			return true
		})
	}
}

// TestAuditBoundedOnSparseSchedules: a full audit (feasibility plus the
// C1/C2 recomputation) must cost O(tasks + m) memory however far apart
// the start steps are. A table with a slot per step would be gigabytes
// for the first schedule and 256 MB for the second; the budget is 2 MiB.
func TestAuditBoundedOnSparseSchedules(t *testing.T) {
	const budget = 2 << 20

	// Two tasks, one at each end of the int32 step range, m = 1024.
	d, err := dag.FromEdges(2, [][2]int32{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	ends := &sched.Schedule{Inst: inst, Assign: sched.Assignment{1023, 7},
		Start: []int32{0, math.MaxInt32 - 1}, Makespan: math.MaxInt32}

	// A list schedule stretched so that its makespan is 10⁶× its task
	// count, as release delays of that size would leave it.
	small := syntheticInstance(t, 16, 4, 8, 3)
	stretched := validSchedule(t, small, 3)
	factor := int32(1_000_000*small.NTasks()/(stretched.Makespan-1) + 1)
	for i := range stretched.Start {
		stretched.Start[i] *= factor
	}
	stretched.Makespan = int(stretched.Start[0])
	for _, st := range stretched.Start {
		stretched.Makespan = max(stretched.Makespan, int(st)+1)
	}
	if stretched.Makespan < 1_000_000*small.NTasks() {
		t.Fatalf("makespan %d is not 10⁶× the %d tasks", stretched.Makespan, small.NTasks())
	}

	for name, s := range map[string]*sched.Schedule{"twoEnds": ends, "stretched": stretched} {
		metrics := sched.Measure(s, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := verify.Schedule(s.Inst, s, verify.Opts{Metrics: &metrics})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("%s: the audit allocated %d bytes for %d tasks on m=%d (budget %d)",
				name, got, s.Inst.NTasks(), s.Inst.M, budget)
		}
	}
}

// TestResidualRejectsDoubleBooking: the audit of a residual run, under its
// rule's done set, walks the one exclusivity scan; done tasks (start -1)
// must not count as sharing a slot, and a surviving pair in one slot must
// be named.
func TestResidualRejectsDoubleBooking(t *testing.T) {
	inst := syntheticInstance(t, 40, 3, 4, 41)
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(6))
	full, err := into(inst, assign, sched.Rule{})
	if err != nil {
		t.Fatal(err)
	}
	done := make([]bool, inst.NTasks())
	for tt, st := range full.Start {
		done[tt] = st < int32(full.Makespan)/2
	}
	rule := sched.Rule{Done: done}
	resid, err := into(inst, assign, rule)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Schedule(inst, resid, verify.RuleOpts(rule)); err != nil {
		t.Fatalf("valid residual schedule rejected: %v", err)
	}
	// Move the last surviving task with no successors left to wait for
	// into the slot of another task of its processor.
	proc := taskProcs(inst, assign)
	for b := inst.NTasks() - 1; b >= 0; b-- {
		if done[b] || len(inst.DAGs[b/inst.N()].Out(int32(b%inst.N()))) > 0 {
			continue
		}
		for a := 0; a < b; a++ {
			if done[a] || proc[a] != proc[b] || resid.Start[a] <= resid.Start[b] {
				continue
			}
			resid.Start[b] = resid.Start[a]
			want := fmt.Sprintf("verify: processor %d runs tasks %d and %d at step %d", proc[a], a, b, resid.Start[a])
			if err := verify.Schedule(inst, resid, verify.RuleOpts(rule)); err == nil || err.Error() != want {
				t.Fatalf("got %v, want %q", err, want)
			}
			return
		}
	}
	t.Fatal("no surviving pair to double-book")
}

// c2Claims requires verify.Schedule to accept a reported C2 equal to
// C2Ref(s) — which must agree with c2RefMaps(s) — and to reject one off
// by one either way, naming C2.
func c2Claims(t *testing.T, name string, s *sched.Schedule, opts verify.Opts) {
	t.Helper()
	want := verify.C2Ref(s)
	if maps := c2RefMaps(s); maps != want {
		t.Fatalf("%s: C2Ref %d, map-based reference %d", name, want, maps)
	}
	for _, off := range []int64{0, -1, 1} {
		opts.Metrics = &sched.Metrics{Makespan: s.Makespan, C1: verify.C1Ref(s.Inst, s.Assign), C2: want + off}
		err := verify.Schedule(s.Inst, s, opts)
		if off == 0 && err != nil {
			t.Fatalf("%s: the reference C2 %d rejected: %v", name, want, err)
		}
		if off != 0 && (err == nil || !strings.Contains(err.Error(), "C2")) {
			t.Fatalf("%s: a reported C2 of %d against the reference %d: got %v, want a C2 mismatch", name, want+off, want, err)
		}
	}
}

// TestScheduleC2MatchesReference pins the audit's C2, recounted from its
// own precedence walk, to the standalone references on the seeded
// instances of TestTasksAndC2RefMatchReference, scheduled four ways:
// plain list, comm-delay, block-assigned and angleset-aggregated.
func TestScheduleC2MatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 240; seed++ {
		r := rng.New(seed ^ 0xa0d17)
		inst := syntheticInstance(t, 6+r.Intn(24), 1+r.Intn(4), 1+r.Intn(6), seed)
		assign := sched.RandomAssignment(inst.N(), inst.M, r)
		var (
			s    *sched.Schedule
			opts verify.Opts
			err  error
			kind string
		)
		switch seed % 4 {
		case 0:
			kind = "list"
			s, err = into(inst, assign, sched.Rule{})
		case 1:
			kind, opts.CommDelay = "comm", 1+r.Intn(3)
			s, err = into(inst, assign, sched.Rule{CommDelay: opts.CommDelay})
		case 2:
			kind = "blocks" // runs of four consecutive cells, each run on one processor
			part := make([]int32, inst.N())
			for v := range part {
				part[v] = int32(v / 4)
			}
			s, err = into(inst, sched.BlockAssignment(part, (inst.N()+3)/4, inst.M, r), sched.Rule{})
		case 3:
			kind, opts.Anglesets = "angleset", randomAnglesets(inst.K(), 3, r)
			s = aggSchedule(t, inst, opts.Anglesets, nil, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		c2Claims(t, fmt.Sprintf("seed %d %s", seed, kind), s, opts)
	}
}

// TestScheduleC2TiedStep plants a step whose largest send count is held
// by two processors at once: cells 0 (processor 0) and 1 (processor 1)
// both run at step 0 and each sends two messages off its processor. The
// step is charged 2, not 4, and the later steps send nothing, so C2 is 2.
func TestScheduleC2TiedStep(t *testing.T) {
	d, err := dag.FromEdges(6, [][2]int32{{0, 2}, {0, 3}, {1, 4}, {1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{Inst: inst, Assign: sched.Assignment{0, 1, 1, 2, 0, 2},
		Start: []int32{0, 0, 1, 1, 1, 2}, Makespan: 3}
	if got := verify.C2Ref(s); got != 2 {
		t.Fatalf("C2Ref %d, want 2", got)
	}
	c2Claims(t, "tied step", s, verify.Opts{})
}
