package sched

import (
	"errors"
	"math"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
	"sweepsched/internal/rng"
)

func chainInstance(t *testing.T, cells, procs int) *Instance {
	t.Helper()
	msh := mesh.RegularHex(cells, 1, 1)
	d := dag.Build(msh, geom.Vec3{X: 1})
	inst, err := FromDAGs([]*dag.DAG{d}, procs)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestListScheduleCommZeroMatchesPlain(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 21)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(2))
	a, err := ListSchedule(inst, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ListScheduleComm(inst, assign, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("c=0 comm schedule makespan %d != plain %d", b.Makespan, a.Makespan)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			t.Fatalf("c=0 comm schedule diverges at task %d", i)
		}
	}
}

func TestListScheduleCommChainGaps(t *testing.T) {
	// Chain 0->1->2->3 alternating processors with c=2: starts 0,3,6,9.
	inst := chainInstance(t, 4, 2)
	assign := Assignment{0, 1, 0, 1}
	s, err := ListScheduleComm(inst, assign, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 3, 6, 9}
	for i, w := range want {
		if s.Start[i] != w {
			t.Fatalf("start[%d] = %d, want %d", i, s.Start[i], w)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ValidateComm(s, 2); err != nil {
		t.Fatal(err)
	}
	// Same chain on one processor: no gaps at all.
	s2, err := ListScheduleComm(inst, Assignment{0, 0, 0, 0}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Makespan != 4 {
		t.Fatalf("on-processor chain makespan %d, want 4", s2.Makespan)
	}
}

func TestListScheduleCommNegativeDelay(t *testing.T) {
	inst := chainInstance(t, 3, 2)
	if _, err := ListScheduleComm(inst, Assignment{0, 1, 0}, nil, -1); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestValidateCommCatchesViolation(t *testing.T) {
	inst := chainInstance(t, 3, 2)
	assign := Assignment{0, 1, 0}
	s := &Schedule{Inst: inst, Assign: assign, Start: []int32{0, 1, 2}}
	s.computeMakespan()
	if err := s.Validate(); err != nil {
		t.Fatalf("base schedule invalid: %v", err)
	}
	if err := ValidateComm(s, 0); err != nil {
		t.Fatalf("c=0 should accept: %v", err)
	}
	if err := ValidateComm(s, 1); err == nil {
		t.Fatal("c=1 accepted a gapless cross-processor edge")
	}
}

// TestStepRangeRejected: delays that could carry a start time past the
// int32 step counter are refused by every kernel and by ValidateComm
// with a StepRangeError — a truncated commDelay used to schedule, and
// validate, as a smaller one.
func TestStepRangeRejected(t *testing.T) {
	inst := chainInstance(t, 3, 2)
	assign := Assignment{0, 1, 0}
	ws, dst := NewWorkspace(), &Schedule{}
	fits := math.MaxInt32/inst.NTasks() - 1
	for name, err := range map[string]error{
		"comm 1<<32":      CommScheduleInto(ws, dst, inst, assign, nil, 1<<32),
		"comm MaxInt32":   CommScheduleInto(ws, dst, inst, assign, nil, math.MaxInt32),
		"comm fits+1":     CommScheduleInto(ws, dst, inst, assign, nil, fits+1),
		"angcomm 1<<32":   CommScheduleAnglesetInto(ws, dst, inst, assign, [][]int32{{0}}, nil, 1<<32),
		"release":         ListScheduleInto(ws, dst, inst, assign, nil, []int32{0, 0, math.MaxInt32 - 2}),
		"angleset floor":  ListScheduleAnglesetInto(ws, dst, inst, assign, [][]int32{{0}}, nil, []int32{math.MaxInt32}),
		"validate 1<<32":  ValidateComm(&Schedule{Inst: inst, Assign: assign, Start: []int32{0, 1, 2}}, 1<<32),
		"validate fits+1": ValidateComm(&Schedule{Inst: inst, Assign: assign, Start: []int32{0, 1, 2}}, fits+1),
	} {
		var rangeErr *StepRangeError
		if !errors.As(err, &rangeErr) {
			t.Errorf("%s: got %v, want a StepRangeError", name, err)
		}
	}
	// Just inside the bound ValidateComm checks the gaps again.
	wide := &Schedule{Inst: inst, Assign: assign, Start: []int32{0, int32(fits) + 1, 2*int32(fits) + 2}}
	if err := ValidateComm(wide, fits); err != nil {
		t.Fatalf("commDelay %d with gaps to match: %v", fits, err)
	}
}

func TestCommDelayMonotoneInC(t *testing.T) {
	inst := testInstance(t, 3, 8, 8, 22)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(5))
	prev := 0
	for _, c := range []int{0, 1, 2, 4, 8} {
		s, err := ListScheduleComm(inst, assign, nil, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateComm(s, c); err != nil {
			t.Fatal(err)
		}
		if s.Makespan < prev {
			t.Fatalf("makespan decreased from %d to %d as c grew to %d", prev, s.Makespan, c)
		}
		prev = s.Makespan
	}
}

func TestCommDelayFavorsBlockAssignment(t *testing.T) {
	// With a large comm delay, a clustered assignment (fewer cross edges)
	// should beat a per-cell random one; with c=0 it usually loses. This is
	// the §5.1 trade-off in miniature.
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 4, NY: 4, NZ: 4, Jitter: 0.15, Seed: 23})
	d := dag.BuildAll(msh, []geom.Vec3{
		{X: 1, Y: 0.3, Z: 0.2},
		{X: -0.5, Y: 1, Z: 0.4},
		{X: 0.2, Y: -0.6, Z: 1},
		{X: -1, Y: -0.4, Z: -0.7},
	})
	inst, err := FromDAGs(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	random := RandomAssignment(inst.N(), 4, rng.New(7))
	// Clustered: contiguous quarters of the cell range (cells are
	// lattice-ordered, so ranges are spatial slabs).
	clustered := make(Assignment, inst.N())
	for v := range clustered {
		clustered[v] = int32(v * 4 / inst.N())
	}
	const c = 8
	sRand, err := ListScheduleComm(inst, random, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	sClus, err := ListScheduleComm(inst, clustered, nil, c)
	if err != nil {
		t.Fatal(err)
	}
	if sClus.Makespan >= sRand.Makespan {
		t.Fatalf("clustered (%d) not better than random (%d) at c=%d", sClus.Makespan, sRand.Makespan, c)
	}
}
