package faults

import (
	"context"
	"slices"
	"testing"

	"sweepsched/internal/machine"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// spyRanks is the engine's own modelled Ranks, watched: which local steps'
// bodies ran in each epoch, and the engine's account every time an epoch
// starts or a processor is killed. It can also report processor 0 lost
// during one local step of the first epoch, as a process backend does for
// a link that died with no plan saying so.
type spyRanks struct {
	Ranks
	e      *Engine
	loseAt int32     // local step of epoch 1 at which processor 0 is lost; -1 never
	ran    [][]int32 // per epoch: the local steps whose bodies ran
	snaps  []engineSnap
}

type engineSnap struct {
	at               string
	steps, remaining int // StepsExecuted and the engine's count of tasks to go
	notDone          int // what the done mask says is to go
}

func (r *spyRanks) snap(at string) {
	n := 0
	for _, d := range r.e.mc.Done {
		if !d {
			n++
		}
	}
	r.snaps = append(r.snaps, engineSnap{at, r.e.report.StepsExecuted, r.e.remaining, n})
}

func (r *spyRanks) Epoch(n int, cur *sched.Schedule, assign sched.Assignment) error {
	r.snap("epoch")
	r.ran = append(r.ran, nil)
	return r.Ranks.Epoch(n, cur, assign)
}

func (r *spyRanks) RunStep(ls, g int32, ckpt bool) ([]int32, error) {
	r.ran[len(r.ran)-1] = append(r.ran[len(r.ran)-1], ls)
	lost, err := r.Ranks.RunStep(ls, g, ckpt)
	if len(r.ran) == 1 && ls == r.loseAt {
		lost = append(lost, 0)
	}
	return lost, err
}

func (r *spyRanks) Kill(dying []int32, done []bool) int {
	r.snap("kill")
	return r.Ranks.Kill(dying, done)
}

// TestEngineEpochStopsAtExactlyThatStep: whatever ends an epoch early ends
// it at exactly that step. A planned crash fires at the barrier before its
// step — the bodies of that step do not run — and a processor lost during
// a step or a stall on a withheld flux ends the epoch at the barrier after
// it — they have run, and no later ones. Each at the first step it can
// happen at, mid-run and at the last; StepsExecuted and the engine's count
// of tasks to go (checked against the done mask every time an epoch starts
// or a processor is killed) must be right at that point, and the sweep
// must still complete.
func TestEngineEpochStopsAtExactlyThatStep(t *testing.T) {
	s := testSchedule(t, 4, 6)
	inst := s.Inst
	last := int32(s.Makespan) - 1

	// The step each cross message's absence stalls its destination at: its
	// earliest consumer's there.
	type msg struct {
		task sched.TaskID
		to   int32
	}
	var routes machine.Machine
	routes.Build(inst, s.Assign)
	stallAt := map[msg]int32{}
	for u := sched.TaskID(0); int(u) < inst.NTasks(); u++ {
		for _, o := range routes.Recv.Out(routes.Recv.Pos(u)) {
			k := msg{u, o.To}
			if at, ok := stallAt[k]; !ok || s.Start[o.Consumer] < at {
				stallAt[k] = s.Start[o.Consumer]
			}
		}
	}
	var stallSteps []int32
	for _, at := range stallAt {
		stallSteps = append(stallSteps, at)
	}
	slices.Sort(stallSteps)
	stallSteps = slices.Compact(stallSteps)
	withheld := func(at int32) Event {
		best := msg{task: -1}
		for k, st := range stallAt { // the lowest such message: map order must not pick
			if st == at && (best.task < 0 || k.task < best.task || k.task == best.task && k.to < best.to) {
				best = k
			}
		}
		return Event{Kind: Drop, Task: best.task, To: best.to}
	}

	type tc struct {
		name      string
		ev        *Event // the plan's one event, if any
		loseAt    int32
		bodiesRan int32 // local steps of epoch 1 whose bodies ran = StepsExecuted when it ended
		dead      []int32
	}
	var cases []tc
	for _, g := range []int32{0, last / 2, last} {
		cases = append(cases,
			tc{"planned crash before the bodies", &Event{Kind: Crash, Proc: 1, Step: g}, -1, g, []int32{1}},
			tc{"processor lost after the bodies", nil, g, g + 1, []int32{0}})
	}
	for _, g := range []int32{stallSteps[0], stallSteps[len(stallSteps)/2], stallSteps[len(stallSteps)-1]} {
		ev := withheld(g)
		cases = append(cases, tc{"stall after the bodies", &ev, -1, g + 1, nil})
	}

	for _, c := range cases {
		for _, noBatch := range []bool{false, true} {
			plan := &Plan{Seed: 1}
			if c.ev != nil {
				plan.Events = []Event{*c.ev}
			}
			eng, err := NewEngine(s, plan)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetNoBatch(noBatch)
			spy := &spyRanks{Ranks: eng.ranks, e: eng, loseAt: c.loseAt}
			eng.RunOn(spy, "faults", "crashes")
			psi := make([]float64, inst.NTasks())
			if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
				t.Fatalf("%s at %d (noBatch=%v): %v", c.name, c.bodiesRan, noBatch, err)
			}
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("%s, %d steps in (noBatch=%v): "+format,
					append([]any{c.name, c.bodiesRan, noBatch}, args...)...)
			}
			want := make([]int32, c.bodiesRan)
			for i := range want {
				want[i] = int32(i)
			}
			if !slices.Equal(spy.ran[0], want) {
				fail("epoch 1 ran the bodies of steps %v, want the first %d", spy.ran[0], c.bodiesRan)
			}
			for _, sn := range spy.snaps {
				if sn.remaining != sn.notDone {
					fail("at %s after %d steps the engine counts %d tasks to go, the done mask %d", sn.at, sn.steps, sn.remaining, sn.notDone)
				}
			}
			// snaps[0] opens epoch 1; the next is where it ended: the kill,
			// or for a stall the opening of epoch 2.
			if len(spy.snaps) < 2 {
				fail("the sweep never left its first epoch")
			}
			if sn := spy.snaps[1]; sn.steps != int(c.bodiesRan) {
				fail("epoch 1 ended (%s) after %d steps", sn.at, sn.steps)
			}
			rep := eng.Report()
			recoveries := 1
			if spy.snaps[1].remaining+rep.TasksReplayed == 0 {
				recoveries = 0 // lost at the last barrier with nothing to replay: a clean end
			}
			if rep.Recoveries != recoveries || rep.Epochs != 1+recoveries || !slices.Equal(rep.DeadProcs, c.dead) || rep.Crashes != len(c.dead) || rep.Drops != 1-len(c.dead) {
				fail("one fault, %d recoveries to make, dead %v, but %s", recoveries, c.dead, rep)
			}
			if eng.remaining != 0 || slices.Contains(eng.mc.Done, false) {
				fail("the sweep returned with %d tasks to go", eng.remaining)
			}
		}
	}
}

// TestEmptyPlanBuildsNoRecovery: a fault-free engine never reschedules,
// so eight sweeps leave the recovery core without its workspace, its rule
// and its empty done set.
func TestEmptyPlanBuildsNoRecovery(t *testing.T) {
	s := fuzzBox(t)
	eng, err := NewEngine(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	psi := make([]float64, s.Inst.NTasks())
	for range 8 {
		if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
			t.Fatal(err)
		}
	}
	if r := eng.rec; r.ws != nil || r.rule.Prio != nil || r.none != nil {
		t.Fatalf("eight fault-free sweeps built the recovery state: workspace %v, %d priorities, %d-task done set", r.ws != nil, len(r.rule.Prio), len(r.none))
	}
}

// TestRecoveryBuiltAtTheFirstFault: a plan crashing one processor in each
// of the first two sweeps builds the recovery core's workspace, level rule
// and empty done set at its first reschedule and reuses them for every one
// after — the second crash's and the post-crash rebuilds. Under the
// auditor every reschedule passes verify.Schedule under its rule, and the
// rebuild the third sweep runs is a complete schedule under the original
// delay.
func TestRecoveryBuiltAtTheFirstFault(t *testing.T) {
	s := fuzzBox(t)
	mk := int32(s.Makespan)
	plan := &Plan{Seed: 1, Events: []Event{
		{Kind: Crash, Proc: 1, Step: mk / 2},
		{Kind: Crash, Proc: 2, Step: mk + mk/2},
	}}
	eng, err := NewEngine(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetVerify(true)
	r := eng.rec
	if r.ws != nil {
		t.Fatal("the recovery workspace was built before the first fault")
	}
	psi := make([]float64, s.Inst.NTasks())
	var ws *sched.Workspace
	var prio *int64
	var none *bool
	for sweep := range 3 {
		if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
			t.Fatal(err)
		}
		if sweep == 0 {
			ws, prio, none = r.ws, &r.rule.Prio[0], &r.none[0]
		}
		if r.ws != ws || &r.rule.Prio[0] != prio || &r.none[0] != none {
			t.Fatalf("sweep %d built the recovery state again", sweep+1)
		}
	}
	if rep := eng.Report(); rep.Crashes != 2 || rep.Recoveries != 2 {
		t.Fatalf("%s, want two crashes and two recoveries", rep)
	}
	for tt, l := range r.rule.Prio {
		if v, i := s.Inst.Split(sched.TaskID(tt)); l != int64(s.Inst.DAGs[i].Level[v]) {
			t.Fatalf("task %d ranks at %d, its level is %d", tt, l, s.Inst.DAGs[i].Level[v])
		}
	}
	if err := verify.Schedule(s.Inst, eng.cur, verify.Opts{CommDelay: s.CommDelay}); err != nil || eng.cur == s {
		t.Fatalf("the post-crash rebuild (a new schedule: %v) as a complete schedule: %v", eng.cur != s, err)
	}
}
