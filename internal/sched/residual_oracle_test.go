package sched_test

import (
	"testing"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/sched/refimpl"
)

// TestResidualMatchesReferenceReassigned is TestResidualMatchesReference's
// recovery case: after a cut, every cell of a dead processor moves to a
// survivor (as faults.Recovery's orphan reassignment does), so the
// residual kernel ranks and partitions the tasks under an assignment
// the done set was not produced with. One workspace serves every case,
// warm from the full schedule's different partition.
func TestResidualMatchesReferenceReassigned(t *testing.T) {
	inst := syntheticInstance(t, 80, 4, 5, 20)
	r := rng.New(22)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	prio := tiedPrio(inst.NTasks(), r)
	ws := sched.NewWorkspace()
	full := &sched.Schedule{}
	if err := sched.ListScheduleInto(ws, full, inst, assign, prio, nil); err != nil {
		t.Fatal(err)
	}
	for _, dead := range []int32{0, 3} {
		for _, cut := range []int32{1, int32(full.Makespan) / 2, int32(full.Makespan) - 1} {
			done := make([]bool, inst.NTasks())
			for tt, st := range full.Start {
				done[tt] = st < cut
			}
			moved := append(sched.Assignment(nil), assign...)
			for v, p := range moved {
				if p == dead {
					moved[v] = (dead + 1 + int32(v)%int32(inst.M-1)) % int32(inst.M)
				}
			}
			want, err := refimpl.ListScheduleResidual(inst, moved, prio, done)
			if err != nil {
				t.Fatal(err)
			}
			dst := &sched.Schedule{}
			if err := sched.ListScheduleResidualInto(ws, dst, inst, moved, prio, done); err != nil {
				t.Fatal(err)
			}
			if dst.Makespan != want.Makespan {
				t.Fatalf("dead %d cut %d: makespan %d, reference %d", dead, cut, dst.Makespan, want.Makespan)
			}
			for tt := range want.Start {
				if dst.Start[tt] != want.Start[tt] {
					t.Fatalf("dead %d cut %d: task %d starts at %d, reference %d", dead, cut, tt, dst.Start[tt], want.Start[tt])
				}
				if dst.Start[tt] >= 0 && moved[tt%inst.N()] == dead {
					t.Fatalf("dead %d cut %d: task %d scheduled on the dead processor", dead, cut, tt)
				}
			}
		}
	}
}
