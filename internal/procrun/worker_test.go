package procrun

import (
	"errors"
	"testing"

	"sweepsched/internal/comm"
	"sweepsched/internal/machine"
	"sweepsched/internal/sched"
)

// TestWorkerRejectsUnroutableWireItems feeds the worker's two flux decode
// paths — standalone fFlux frames and the flux section of a step frame —
// items that name a task out of range or one with no edge into this rank:
// each must come back as a *machine.RouteError (the run's fatal-ack path),
// not an index panic and not a silently stored value. An item the epoch's
// routes do name is accepted on both paths.
func TestWorkerRejectsUnroutableWireItems(t *testing.T) {
	s, _ := testSetup(t, testSpec())
	inst := s.Inst
	const rank = 1
	n := int32(inst.N())
	routed, unrouted := sched.TaskID(-1), sched.TaskID(-1)
	for i, d := range inst.DAGs {
		for u := int32(0); u < n; u++ {
			into := false
			for _, w := range d.Out(u) {
				into = into || (s.Assign[u] != rank && s.Assign[w] == rank)
			}
			if tsk := sched.TaskID(int32(i)*n + u); into && routed < 0 {
				routed = tsk
			} else if !into && unrouted < 0 {
				unrouted = tsk
			}
		}
	}
	if routed < 0 || unrouted < 0 {
		t.Fatalf("test instance has no task with (%d) and without (%d) an edge into rank %d", routed, unrouted, rank)
	}

	w := &worker{inst: inst, rank: rank}
	var sweep enc
	sweep.i32(1)
	sweep.f64s(make([]float64, inst.N()))
	if _, err := w.onSweep(sweep.b); err != nil {
		t.Fatal(err)
	}
	epochFrame := func(assign sched.Assignment) []byte {
		var e enc
		e.i32(1)
		e.u32(uint32(s.Makespan))
		e.i32s(assign)
		e.i32s(s.Start)
		e.bools(make([]bool, inst.NTasks()))
		e.f64s(make([]float64, inst.NTasks()))
		return e.b
	}
	if _, err := w.onEpoch(epochFrame(s.Assign)); err != nil {
		t.Fatal(err)
	}
	stepFrame := func(it comm.Item) []byte {
		var e enc
		e.i32(0) // local step
		e.i32(0) // global step
		e.u8(0)  // no checkpoint
		appendFluxBatch(&e, []comm.Item{it})
		return e.b
	}
	for _, tc := range []struct {
		name string
		task sched.TaskID
		ok   bool
	}{
		{"routed task", routed, true},
		{"negative task id", -1, false},
		{"task id = NTasks", sched.TaskID(inst.NTasks()), false},
		{"task id far out of range", 1 << 30, false},
		{"task with no edge into this rank", unrouted, false},
	} {
		it := comm.Item{Task: tc.task, Psi: 0.5}
		_, fluxErr := w.onFlux(encodeFluxBatch(nil, []comm.Item{it}))
		_, stepErr := w.onStep(stepFrame(it))
		for path, err := range map[string]error{"onFlux": fluxErr, "onStep": stepErr} {
			var re *machine.RouteError
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s via %s: %v", tc.name, path, err)
			case !tc.ok && !errors.As(err, &re):
				t.Errorf("%s via %s: got %v, want a *machine.RouteError", tc.name, path, err)
			case !tc.ok && (re.Task != tc.task || re.To != rank):
				t.Errorf("%s via %s: error names (task %d, rank %d)", tc.name, path, re.Task, re.To)
			}
		}
	}

	// An assignment that names a processor the instance does not have is
	// refused before any table is sized by it.
	bad := append(sched.Assignment(nil), s.Assign...)
	bad[0] = int32(inst.M)
	if _, err := w.onEpoch(epochFrame(bad)); err == nil {
		t.Error("epoch frame assigning a cell to processor M accepted")
	}
}
