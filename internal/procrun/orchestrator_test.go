package procrun

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"sweepsched/internal/comm"
	"sweepsched/internal/machine"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// TestAckFoldRefusesWhatIsNotTheRanksRow feeds the orchestrator's ack fold
// — no process, no socket — completions a worker must never report: the
// task ids in an ack are the worker's word and index the orchestrator's
// arrays, so anything but a prefix of the rank's row of the step has to
// come back as a *machine.AccountError, not an index panic (which is what
// an id outside [0, NTasks) was before the fold went through the machine)
// and not a silently recorded completion.
func TestAckFoldRefusesWhatIsNotTheRanksRow(t *testing.T) {
	s, _ := testSetup(t, testSpec())
	inst := s.Inst
	var steps sched.StepTable
	if err := steps.Build(s, nil, nil); err != nil {
		t.Fatal(err)
	}
	// A (rank, step) with a task to report, and a task that is not it.
	rank, step := int32(-1), int32(-1)
	for st := int32(0); st < steps.Steps() && rank < 0; st++ {
		for p := int32(0); p < int32(inst.M); p++ {
			if len(steps.Tasks(p, st)) > 0 {
				rank, step = p, st
				break
			}
		}
	}
	row := steps.Tasks(rank, step)
	other := sched.TaskID(0)
	for other == row[0] {
		other++
	}
	fresh := func() *orch {
		mc := &machine.Machine{
			Steps: &steps,
			Psi:   make([]float64, inst.NTasks()),
			Done:  make([]bool, inst.NTasks()),
		}
		mc.Build(inst, s.Assign)
		return &orch{mc: mc, sweepLog: make([][]sched.TaskID, inst.M)}
	}
	item := func(ts ...sched.TaskID) []comm.Item {
		var items []comm.Item
		for _, t := range ts {
			items = append(items, comm.Item{Task: t, Psi: 0.5})
		}
		return items
	}
	for _, tc := range []struct {
		name      string
		completed []comm.Item
		ok        bool
	}{
		{"nothing completed", nil, true},
		{"the row's own task", item(row[0]), true},
		{"negative task id", item(-1), false},
		{"task id = NTasks", item(sched.TaskID(inst.NTasks())), false},
		{"task id far out of range", item(1 << 30), false},
		{"another rank's task", item(other), false},
		{"more completions than the row has", item(append(append([]sched.TaskID(nil), row...), other)...), false},
	} {
		o := fresh()
		err := o.fold(rank, step, tc.completed, machine.Ack{StallTask: -1, StallMiss: -1})
		var ae *machine.AccountError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.ok && (int(o.mc.Acks[rank].Completed) != len(tc.completed) || len(o.sweepLog[rank]) != len(tc.completed)):
			t.Errorf("%s: %d completions folded as %d, logged as %d", tc.name, len(tc.completed), o.mc.Acks[rank].Completed, len(o.sweepLog[rank]))
		case !tc.ok && !errors.As(err, &ae):
			t.Errorf("%s: got %v, want a *machine.AccountError", tc.name, err)
		case !tc.ok && (ae.Proc != rank || ae.Step != step):
			t.Errorf("%s: error names (proc %d, step %d), want (%d, %d)", tc.name, ae.Proc, ae.Step, rank, step)
		}
	}
}

// TestRunRefusesWhatEverySolveRefuses: Run goes through the prelude of
// every transport solve, so a configuration or (under Verify) a schedule
// that SolveParallel refuses is refused by Run with the same error — and
// before any worker process exists: the worker binary named here does not,
// so a Run that got as far as spawning would fail differently.
func TestRunRefusesWhatEverySolveRefuses(t *testing.T) {
	spec := testSpec()
	s, good := testSetup(t, spec)
	inst := s.Inst
	with := func(edit func(*transport.Config)) transport.Config {
		cfg := good
		edit(&cfg)
		return cfg
	}
	ones := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	// A schedule only the audit refuses: a task moved to the step of one of
	// its own upwind tasks.
	broken := *s
	broken.Start = append([]int32(nil), s.Start...)
	for v := int32(0); v < int32(inst.N()); v++ {
		if in := inst.DAGs[0].In(v); len(in) > 0 {
			broken.Start[v] = broken.Start[in[0]]
			break
		}
	}
	for _, tc := range []struct {
		name string
		s    *sched.Schedule
		cfg  transport.Config
	}{
		{"SigmaT = 0", s, with(func(c *transport.Config) { c.SigmaT = 0 })},
		{"SigmaS = SigmaT", s, with(func(c *transport.Config) { c.SigmaS = c.SigmaT })},
		{"short Weights", s, with(func(c *transport.Config) { c.Weights = ones(inst.K() - 1) })},
		{"a zero weight", s, with(func(c *transport.Config) { c.Weights = ones(inst.K()); c.Weights[1] = 0 })},
		{"short SourceField", s, with(func(c *transport.Config) { c.SourceField = ones(inst.N() - 1) })},
		{"a negative source", s, with(func(c *transport.Config) { c.SourceField = ones(inst.N()); c.SourceField[0] = -1 })},
		{"a schedule that fails the audit", &broken, with(func(c *transport.Config) { c.Verify = true })},
	} {
		_, want := transport.SolveParallel(tc.s, tc.cfg)
		if want == nil {
			t.Fatalf("%s: SolveParallel accepted it", tc.name)
		}
		opts := Options{CkptDir: t.TempDir(), WorkerBinary: filepath.Join(t.TempDir(), "no-such-worker")}
		_, got := Run(context.Background(), tc.s, spec, tc.cfg, nil, opts)
		if got == nil || got.Error() != want.Error() {
			t.Errorf("%s:\n Run           %v\n SolveParallel %v", tc.name, got, want)
		}
		if n := workerProcCount(t); n != 0 {
			t.Errorf("%s: %d worker processes exist", tc.name, n)
		}
	}
}
