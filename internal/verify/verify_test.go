package verify_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

func meshInstance(t testing.TB, nx, k, m int, seed uint64) *sched.Instance {
	t.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: nx, NY: nx, NZ: nx, Jitter: 0.15, Seed: seed})
	dirs, err := quadrature.Octant(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func syntheticInstance(t testing.TB, n, k, m int, seed uint64) *sched.Instance {
	t.Helper()
	r := rng.New(seed)
	dags := make([]*dag.DAG, k)
	for i := range dags {
		var edges [][2]int32
		for u := int32(0); u < int32(n); u++ {
			for e := r.Intn(3); e > 0; e-- {
				w := u + 1 + int32(r.Intn(n-int(u)))
				if w < int32(n) {
					edges = append(edges, [2]int32{u, w})
				}
			}
		}
		d, err := dag.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		dags[i] = d
	}
	inst, err := sched.FromDAGs(dags, m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// into runs the step core under rule into a fresh schedule on a pooled
// workspace.
func into(inst *sched.Instance, assign sched.Assignment, rule sched.Rule) (*sched.Schedule, error) {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	dst := &sched.Schedule{}
	if err := ws.Schedule(dst, inst, assign, rule); err != nil {
		return nil, err
	}
	return dst, nil
}

// validSchedule builds a feasible list schedule for corruption tests.
func validSchedule(t *testing.T, inst *sched.Instance, seed uint64) *sched.Schedule {
	t.Helper()
	r := rng.New(seed)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	s, err := into(inst, assign, sched.Rule{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScheduleAcceptsAllSchedulers runs every registered scheduler over
// mesh families and checks the auditor passes each produced schedule,
// including the independent C1/C2 recomputation against the parallel
// production counters.
func TestScheduleAcceptsAllSchedulers(t *testing.T) {
	insts := []*sched.Instance{
		meshInstance(t, 3, 4, 4, 1),       // jittered Kuhn box
		syntheticInstance(t, 60, 3, 5, 2), // random layered DAGs
	}
	algs := []heuristics.Name{
		heuristics.RandomDelays, heuristics.RandomDelaysPriority, heuristics.ImprovedDelays,
		heuristics.Level, heuristics.LevelDelays,
		heuristics.Descendant, heuristics.DescendantDelays,
		heuristics.DFDS, heuristics.DFDSDelays,
	}
	if len(algs) != 9 {
		t.Fatalf("expected the nine schedulers, have %d", len(algs))
	}
	for ii, inst := range insts {
		for _, alg := range algs {
			r := rng.New(uint64(0xabc + ii))
			assign := sched.RandomAssignment(inst.N(), inst.M, r)
			s, err := heuristics.Run(alg, inst, assign, r, 2)
			if err != nil {
				t.Fatalf("inst %d %s: %v", ii, alg, err)
			}
			met := sched.Measure(s, 2)
			if err := verify.Schedule(inst, s, verify.Opts{Metrics: &met}); err != nil {
				t.Errorf("inst %d %s: auditor rejects a production schedule: %v", ii, alg, err)
			}
		}
	}
}

// TestScheduleRejectsCorruption seeds one violation of each audited
// invariant into a valid schedule and proves the auditor rejects it with
// a diagnostic naming the violation.
func TestScheduleRejectsCorruption(t *testing.T) {
	inst := syntheticInstance(t, 40, 3, 4, 7)
	nt := inst.NTasks()
	n := int32(inst.N())

	// Locate a DAG edge for precedence corruption.
	var edgeU, edgeW sched.TaskID = -1, -1
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n && edgeU < 0; u++ {
			if outs := d.Out(u); len(outs) > 0 {
				edgeU, edgeW = sched.TaskID(base+u), sched.TaskID(base+outs[0])
			}
		}
	}
	if edgeU < 0 {
		t.Fatal("instance has no edges")
	}

	cases := []struct {
		name    string
		corrupt func(s *sched.Schedule, opts *verify.Opts)
		want    string
	}{
		{"precedence", func(s *sched.Schedule, _ *verify.Opts) {
			s.Start[edgeW] = s.Start[edgeU] // successor no longer after predecessor
		}, "precedence"},
		{"unscheduledTask", func(s *sched.Schedule, _ *verify.Opts) {
			s.Start[0] = -1
		}, "unscheduled"},
		{"makespanClaim", func(s *sched.Schedule, _ *verify.Opts) {
			s.Makespan++
		}, "makespan"},
		{"assignmentRange", func(s *sched.Schedule, _ *verify.Opts) {
			s.Assign = append(sched.Assignment(nil), s.Assign...)
			s.Assign[0] = int32(inst.M)
		}, "processor"},
		{"c1Mismatch", func(s *sched.Schedule, opts *verify.Opts) {
			met := sched.Measure(s, 1)
			met.C1++
			opts.Metrics = &met
		}, "C1"},
		{"c2Mismatch", func(s *sched.Schedule, opts *verify.Opts) {
			met := sched.Measure(s, 1)
			met.C2++
			opts.Metrics = &met
		}, "C2"},
		{"releaseViolation", func(s *sched.Schedule, opts *verify.Opts) {
			rel := make([]int32, nt)
			rel[edgeU] = s.Start[edgeU] + 1 // claims the task started before its release
			opts.Release = rel
		}, "release"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSchedule(t, inst, 11)
			// Deep-copy starts so corruption does not leak across subtests.
			s = &sched.Schedule{Inst: s.Inst, Assign: s.Assign,
				Start: append([]int32(nil), s.Start...), Makespan: s.Makespan}
			opts := verify.Opts{}
			tc.corrupt(s, &opts)
			err := verify.Schedule(inst, s, opts)
			if err == nil {
				t.Fatalf("auditor accepted a schedule with seeded %s corruption", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostic %q does not name the %s violation (want substring %q)", err, tc.name, tc.want)
			}
		})
	}
}

// TestTasksRejectsProcessorConflictAndSplitCells covers the two
// violations a sched.Schedule cannot structurally express, via the
// per-task form: two tasks sharing a (processor, step) slot, and copies
// of one cell split across processors.
func TestTasksRejectsProcessorConflictAndSplitCells(t *testing.T) {
	inst := syntheticInstance(t, 30, 2, 3, 9)
	s := validSchedule(t, inst, 13)
	nt := inst.NTasks()
	n := int32(inst.N())

	expand := func() (proc, start []int32) {
		proc = make([]int32, nt)
		start = append([]int32(nil), s.Start...)
		for tt := 0; tt < nt; tt++ {
			proc[tt] = s.Assign[int32(tt)%n]
		}
		return proc, start
	}

	proc, start := expand()
	if err := verify.Tasks(inst, proc, start, verify.Opts{}); err != nil {
		t.Fatalf("valid expansion rejected: %v", err)
	}

	// Split-cell: move cell 0's copy in direction 1 to another processor,
	// parking it at a fresh step so no other check fires first.
	proc, start = expand()
	proc[n] = (proc[n] + 1) % int32(inst.M)
	start[n] = int32(s.Makespan)
	err := verify.Tasks(inst, proc, start, verify.Opts{})
	if err == nil || !strings.Contains(err.Error(), "split") {
		t.Fatalf("split-cell corruption not rejected: %v", err)
	}

	// Processor conflict: force task 1 into task 0's slot. Keep the cell
	// constraint intact by moving every copy of task 1's cell onto task
	// 0's processor.
	proc, start = expand()
	v1 := int32(1) % n
	for i := int32(0); i < int32(inst.K()); i++ {
		proc[i*n+v1] = proc[0]
	}
	start[1] = start[0]
	err = verify.Tasks(inst, proc, start, verify.Opts{})
	if err == nil || !strings.Contains(err.Error(), "runs tasks") {
		t.Fatalf("processor conflict not rejected: %v", err)
	}
}

// TestScheduleCommDelayFeasibility checks the comm-delay audit: a
// schedule produced under commDelay=3 passes with CommDelay 3 but a
// plain list schedule (no gaps) fails, proving the gap check is live.
func TestScheduleCommDelayFeasibility(t *testing.T) {
	inst := syntheticInstance(t, 50, 3, 4, 21)
	r := rng.New(5)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	const cd = 3
	s, err := into(inst, assign, sched.Rule{CommDelay: cd})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Schedule(inst, s, verify.Opts{CommDelay: cd}); err != nil {
		t.Fatalf("comm schedule rejected under its own delay: %v", err)
	}
	plain, err := into(inst, assign, sched.Rule{})
	if err != nil {
		t.Fatal(err)
	}
	if sched.C1(inst, assign, 1) == 0 {
		t.Skip("assignment has no cross edges; cannot exercise the gap check")
	}
	if err := verify.Schedule(inst, plain, verify.Opts{CommDelay: cd}); err == nil {
		t.Fatal("plain list schedule accepted under a comm-delay audit")
	}
}

// TestMetricRefsMatchProduction pins the auditor's serial C1/C2
// recomputations to the sched package's counters on random schedules
// (both conventions must agree exactly, C1 at every worker count).
func TestMetricRefsMatchProduction(t *testing.T) {
	r := rng.New(31)
	for round := 0; round < 5; round++ {
		inst := syntheticInstance(t, 30+round*17, 2+round%3, 2+round, uint64(100+round))
		assign := sched.RandomAssignment(inst.N(), inst.M, r)
		s, err := into(inst, assign, sched.Rule{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			if got, want := sched.C1(inst, assign, workers), verify.C1Ref(inst, assign); got != want {
				t.Fatalf("round %d workers %d: C1 %d, reference %d", round, workers, got, want)
			}
			if got, want := sched.C2(s), verify.C2Ref(s); got != want {
				t.Fatalf("round %d workers %d: C2 %d, reference %d", round, workers, got, want)
			}
		}
	}
}

// TestResidualAudit checks the audit of a residual run — verify.Schedule
// under the rule's done set — on a real residual schedule and on seeded
// violations.
func TestResidualAudit(t *testing.T) {
	inst := syntheticInstance(t, 40, 3, 4, 41)
	r := rng.New(6)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	full, err := into(inst, assign, sched.Rule{})
	if err != nil {
		t.Fatal(err)
	}
	cut := int32(full.Makespan) / 2
	done := make([]bool, inst.NTasks())
	for tt, st := range full.Start {
		if st < cut {
			done[tt] = true
		}
	}
	rule := sched.Rule{Done: done}
	resid, err := into(inst, assign, rule)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Schedule(inst, resid, verify.RuleOpts(rule)); err != nil {
		t.Fatalf("valid residual schedule rejected: %v", err)
	}
	// Done task rescheduled.
	tt := slices.Index(done, true)
	bad := &sched.Schedule{Inst: inst, Assign: assign,
		Start: append([]int32(nil), resid.Start...), Makespan: resid.Makespan}
	bad.Start[tt] = 0
	want := fmt.Sprintf("verify: done task %d rescheduled at step 0", tt)
	if err := verify.Schedule(inst, bad, verify.RuleOpts(rule)); err == nil || err.Error() != want {
		t.Fatalf("rescheduled done task: audit says %v, want %q", err, want)
	}
	// Makespan claim.
	bad.Start[tt], bad.Makespan = -1, resid.Makespan+1
	if err := verify.Schedule(inst, bad, verify.RuleOpts(rule)); err == nil {
		t.Fatal("wrong residual makespan not rejected")
	}
	// The same schedule audited as a complete one.
	if err := verify.Schedule(inst, resid, verify.Opts{}); err == nil {
		t.Fatal("a residual schedule passed as a complete one")
	}
}

// TestResidualAuditChecksCommGap: a residual run under a delay records it,
// and the audit under its rule holds every cross-processor edge between
// two not-done tasks to it. On the chain 0 -> 1 -> 2 with cell 0 done,
// cells 0 and 2 on processor 1 and cell 1 on processor 0, the rule runs
// task 1 at step 0 — a done predecessor owes no wait, across processors
// too — and task 2 a delay later, at 1+3. Moved into the gap, to step 2,
// task 2 still follows task 1 and has its processor to itself: only the
// gap is broken.
func TestResidualAuditChecksCommGap(t *testing.T) {
	d, err := dag.FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	assign := sched.Assignment{1, 0, 1}
	rule := sched.Rule{CommDelay: 3, Done: []bool{true, false, false}}
	s, err := into(inst, assign, rule)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{-1, 0, 4}; !slices.Equal(s.Start, want) || s.CommDelay != 3 {
		t.Fatalf("residual run: starts %v under delay %d, want %v under 3", s.Start, s.CommDelay, want)
	}
	if err := verify.Schedule(inst, s, verify.RuleOpts(rule)); err != nil {
		t.Fatalf("the rule's own residual schedule rejected: %v", err)
	}
	s.Start[2], s.Makespan = 2, 3
	if err := verify.Schedule(inst, s, verify.RuleOpts(rule)); err == nil || !strings.Contains(err.Error(), "needs gap 4") {
		t.Fatalf("a successor started inside the communication gap: audit says %v, want the gap violation", err)
	}
}

// TestRecoveryAudit checks the accounting auditor accepts plausible
// reports and rejects each inconsistency.
func TestRecoveryAudit(t *testing.T) {
	good := verify.RecoveryStats{
		Procs: 8, Crashes: 2, Epochs: 4, Recoveries: 2, TasksReplayed: 5,
		StepsExecuted: 120, StepsFaultFree: 100,
		MessagesSent: 900, CommRounds: 300, DeadProcs: []int32{1, 6},
	}
	if err := verify.Recovery(good); err != nil {
		t.Fatalf("plausible report rejected: %v", err)
	}
	faultFree := verify.RecoveryStats{
		Procs: 4, Epochs: 1, StepsExecuted: 50, StepsFaultFree: 50,
		MessagesSent: 10, CommRounds: 5,
	}
	if err := verify.Recovery(faultFree); err != nil {
		t.Fatalf("fault-free report rejected: %v", err)
	}

	bad := []struct {
		name   string
		mutate func(*verify.RecoveryStats)
	}{
		{"deadListMismatch", func(s *verify.RecoveryStats) { s.DeadProcs = s.DeadProcs[:1] }},
		{"noSurvivor", func(s *verify.RecoveryStats) {
			s.Procs = 2
			s.DeadProcs = []int32{0, 1}
		}},
		{"deadOutOfRange", func(s *verify.RecoveryStats) { s.DeadProcs = []int32{1, 99} }},
		{"doubleCrash", func(s *verify.RecoveryStats) { s.DeadProcs = []int32{1, 1} }},
		{"replayWithoutCrash", func(s *verify.RecoveryStats) {
			s.Crashes, s.DeadProcs, s.Recoveries = 0, nil, 0
		}},
		{"recoveriesEatEpochs", func(s *verify.RecoveryStats) { s.Recoveries = s.Epochs }},
		{"roundsExceedMessages", func(s *verify.RecoveryStats) { s.CommRounds = s.MessagesSent + 1 }},
		{"negativeCounter", func(s *verify.RecoveryStats) { s.TasksReplayed = -1 }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			st := good
			st.DeadProcs = append([]int32(nil), good.DeadProcs...)
			tc.mutate(&st)
			if err := verify.Recovery(st); err == nil {
				t.Fatalf("inconsistent report (%s) accepted", tc.name)
			}
		})
	}
}
