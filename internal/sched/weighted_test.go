package sched

import (
	"testing"
	"testing/quick"

	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
)

// levelPrio builds the Algorithm 2-style priorities used in practice.
func levelPrio(inst *Instance, r *rng.Source) Priorities {
	n := int32(inst.N())
	prio := make(Priorities, inst.NTasks())
	for i, d := range inst.DAGs {
		delay := int64(r.Intn(inst.K()))
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			prio[base+v] = int64(d.Level[v]) + delay
		}
	}
	return prio
}

func randomWeights(n int, r *rng.Source, max int) CellWeights {
	w := make(CellWeights, n)
	for i := range w {
		w[i] = int32(r.Intn(max)) + 1
	}
	return w
}

// testLoadBound and testCriticalPath locally recompute the weighted
// bounds on the uniform machine (the canonical versions live in
// internal/lb, which this package cannot import).
func testLoadBound(inst *Instance, weights CellWeights) float64 {
	var total int64
	for _, w := range weights {
		total += int64(w)
	}
	return float64(total) * float64(inst.K()) / float64(inst.M)
}

func testCriticalPath(inst *Instance, weights CellWeights) int64 {
	best := int64(0)
	n := int32(inst.N())
	for _, d := range inst.DAGs {
		dist := make([]int64, n)
		for _, v := range d.TopoOrder() {
			dv := dist[v] + int64(weights[v])
			if dv > best {
				best = dv
			}
			for _, w := range d.Out(v) {
				if dv > dist[w] {
					dist[w] = dv
				}
			}
		}
	}
	return best
}

func TestCellWeightsValidate(t *testing.T) {
	if err := (CellWeights{1, 2}).Validate(3); err == nil {
		t.Fatal("short weights accepted")
	}
	if err := (CellWeights{1, 0}).Validate(2); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := (CellWeights{1, 1, 1, 1}).Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestMachineModelValidate(t *testing.T) {
	var nilModel *MachineModel
	if err := nilModel.Validate(4); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mm   MachineModel
	}{
		{"short speeds", MachineModel{Speeds: []int32{1, 2}}},
		{"zero speed", MachineModel{Speeds: []int32{1, 0, 1, 1}}},
		{"short groups", MachineModel{Group: []int32{0}}},
		{"negative group", MachineModel{Group: []int32{0, -1, 0, 0}}},
		{"negative intra", MachineModel{IntraDelay: -1}},
		{"cross below intra", MachineModel{IntraDelay: 5, CrossDelay: 2}},
	}
	for _, tc := range cases {
		if err := tc.mm.Validate(4); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	ok := MachineModel{Speeds: []int32{1, 2, 4, 8}, Group: []int32{0, 0, 1, 1}, IntraDelay: 1, CrossDelay: 3}
	if err := ok.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedUnitMatchesUnweighted(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 41)
	r := rng.New(3)
	assign := RandomAssignment(inst.N(), inst.M, r)
	prio := levelPrio(inst, r)
	unit, err := into(ListScheduleInto, inst, assign, prio, nil)
	if err != nil {
		t.Fatal(err)
	}
	ones := randomWeights(inst.N(), rng.New(0), 1) // every weight 1
	weighted, err := ListScheduleMachine(inst, assign, prio, ones, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := weighted.Validate(); err != nil {
		t.Fatal(err)
	}
	if weighted.Makespan != int64(unit.Makespan) {
		t.Fatalf("unit-weight makespan %d != step scheduler %d", weighted.Makespan, unit.Makespan)
	}
	for tid := range unit.Start {
		if int64(unit.Start[tid]) != weighted.Start[tid] {
			t.Fatalf("task %d: step start %d != weighted start %d",
				tid, unit.Start[tid], weighted.Start[tid])
		}
	}
}

func TestWeightedChain(t *testing.T) {
	inst := chainInstance(t, 3, 1)
	weights := CellWeights{5, 1, 2}
	s, err := ListScheduleMachine(inst, Assignment{0, 0, 0}, nil, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Serial chain: starts 0, 5, 6; makespan 8.
	wantStart := []int64{0, 5, 6}
	for i, w := range wantStart {
		if s.Start[i] != w {
			t.Fatalf("start[%d] = %d, want %d", i, s.Start[i], w)
		}
	}
	if s.Makespan != 8 {
		t.Fatalf("makespan %d, want 8", s.Makespan)
	}
}

func TestMachineSpeedsChain(t *testing.T) {
	inst := chainInstance(t, 3, 1)
	weights := CellWeights{5, 1, 2}
	model := &MachineModel{Speeds: []int32{2}}
	s, err := ListScheduleMachine(inst, Assignment{0, 0, 0}, nil, weights, model)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Durations ceil(5/2)=3, ceil(1/2)=1, ceil(2/2)=1: starts 0, 3, 4.
	wantStart := []int64{0, 3, 4}
	for i, w := range wantStart {
		if s.Start[i] != w {
			t.Fatalf("start[%d] = %d, want %d", i, s.Start[i], w)
		}
	}
	if s.Makespan != 5 {
		t.Fatalf("makespan %d, want 5", s.Makespan)
	}
}

func TestMachineHierarchicalDelays(t *testing.T) {
	// A 4-cell chain split over 3 processors in 2 groups: edges within a
	// processor are free, within a group cost IntraDelay, across groups
	// CrossDelay.
	inst := chainInstance(t, 4, 3)
	assign := Assignment{0, 0, 1, 2}
	weights := CellWeights{1, 2, 1, 1}
	model := &MachineModel{Group: []int32{0, 0, 1}, IntraDelay: 2, CrossDelay: 5}
	s, err := ListScheduleMachine(inst, assign, nil, weights, model)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// cell0 on p0: [0,1). cell1 on p0 (same proc, free): [1,3).
	// cell2 on p1 (same group, +2): [5,6). cell3 on p2 (cross group, +5): [11,12).
	wantStart := []int64{0, 1, 5, 11}
	for i, w := range wantStart {
		if s.Start[i] != w {
			t.Fatalf("start[%d] = %d, want %d (got %v)", i, s.Start[i], w, s.Start)
		}
	}
	if s.Makespan != 12 {
		t.Fatalf("makespan %d, want 12", s.Makespan)
	}
}

func TestMachineUniformModelBitwise(t *testing.T) {
	// An explicitly uniform model (all-ones speeds, one group, zero
	// delays) must reproduce the nil-model engine bit for bit.
	inst := testInstance(t, 3, 8, 4, 47)
	r := rng.New(9)
	assign := RandomAssignment(inst.N(), inst.M, r)
	prio := levelPrio(inst, r)
	weights := randomWeights(inst.N(), r, 9)
	plain, err := ListScheduleMachine(inst, assign, prio, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	speeds := make([]int32, inst.M)
	groups := make([]int32, inst.M)
	for p := range speeds {
		speeds[p] = 1
	}
	model := &MachineModel{Speeds: speeds, Group: groups}
	got, err := ListScheduleMachine(inst, assign, prio, weights, model)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != plain.Makespan {
		t.Fatalf("uniform model makespan %d != nil model %d", got.Makespan, plain.Makespan)
	}
	for tid := range plain.Start {
		if got.Start[tid] != plain.Start[tid] || got.Finish[tid] != plain.Finish[tid] {
			t.Fatalf("task %d: uniform model [%d,%d) != nil model [%d,%d)",
				tid, got.Start[tid], got.Finish[tid], plain.Start[tid], plain.Finish[tid])
		}
	}
}

func TestWeightedBoundsHold(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 42)
	r := rng.New(5)
	weights := randomWeights(inst.N(), r, 7)
	assign := RandomAssignment(inst.N(), inst.M, r)
	s, err := ListScheduleMachine(inst, assign, nil, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	load := testLoadBound(inst, weights)
	crit := testCriticalPath(inst, weights)
	if float64(s.Makespan) < load {
		t.Fatalf("makespan %d below weighted load bound %v", s.Makespan, load)
	}
	if s.Makespan < crit {
		t.Fatalf("makespan %d below weighted critical path %d", s.Makespan, crit)
	}
	// Graham's load+crit bound does NOT hold under pinning (a processor can
	// idle on an empty queue while other queues hold work); the sound upper
	// bounds are the serial one and, empirically on mesh instances, a small
	// multiple of the load bound.
	var serial int64
	for _, wv := range weights {
		serial += int64(wv) * int64(inst.K())
	}
	if s.Makespan > serial {
		t.Fatalf("makespan %d exceeds serial bound %d", s.Makespan, serial)
	}
	if float64(s.Makespan) > 4*load {
		t.Fatalf("makespan %d suspiciously far above the weighted load bound %v", s.Makespan, load)
	}
}

func TestWeightedValidateCatchesOverlap(t *testing.T) {
	inst := chainInstance(t, 2, 1)
	w := CellWeights{3, 3}
	s := &WeightedSchedule{
		Inst: inst, Assign: Assignment{0, 0}, Weights: w,
		Start:    []int64{0, 2}, // overlaps [0,3) and violates precedence
		Finish:   []int64{3, 5},
		Makespan: 5,
	}
	if err := s.Validate(); err == nil {
		t.Fatal("overlapping weighted schedule accepted")
	}
}

func TestWeightedValidateCatchesDelayViolation(t *testing.T) {
	inst := chainInstance(t, 2, 2)
	model := &MachineModel{IntraDelay: 4, CrossDelay: 4}
	s := &WeightedSchedule{
		Inst: inst, Assign: Assignment{0, 1}, Weights: CellWeights{1, 1}, Model: model,
		Start:    []int64{0, 2}, // needs start >= 1 + 4
		Finish:   []int64{1, 3},
		Makespan: 3,
	}
	if err := s.Validate(); err == nil {
		t.Fatal("delay-violating weighted schedule accepted")
	}
	s.Start[1], s.Finish[1], s.Makespan = 5, 6, 6
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedErrors(t *testing.T) {
	inst := chainInstance(t, 3, 2)
	if _, err := ListScheduleMachine(inst, Assignment{0, 1, 0}, nil, CellWeights{1, 1}, nil); err == nil {
		t.Fatal("short weights accepted")
	}
	if _, err := ListScheduleMachine(inst, Assignment{0, 9, 0}, nil, CellWeights{1, 1, 1}, nil); err == nil {
		t.Fatal("bad assignment accepted")
	}
	if _, err := ListScheduleMachine(inst, Assignment{0, 1, 0}, Priorities{1}, CellWeights{1, 1, 1}, nil); err == nil {
		t.Fatal("short priorities accepted")
	}
	bad := &MachineModel{Speeds: []int32{1}}
	if _, err := ListScheduleMachine(inst, Assignment{0, 1, 0}, nil, CellWeights{1, 1, 1}, bad); err == nil {
		t.Fatal("short speeds accepted")
	}
}

func TestEventHeapOrdered(t *testing.T) {
	// Push events in a scrambled order with heavy (time, slot)
	// collisions; pops must come out sorted by (time, slot).
	r := rng.New(77)
	var h eventHeap
	const count = 2000
	for i := 0; i < count; i++ {
		h.push(completionEvent{
			time: int64(r.Intn(17)), // small range forces time ties
			slot: int32(r.Intn(500)),
			proc: int32(r.Intn(8)),
		})
	}
	var prev completionEvent
	for i := 0; i < count; i++ {
		if len(h) != count-i {
			t.Fatalf("heap length %d after %d pops, want %d", len(h), i, count-i)
		}
		e := h.pop()
		if i > 0 {
			if e.time < prev.time || (e.time == prev.time && e.slot < prev.slot) {
				t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)",
					i, e.time, e.slot, prev.time, prev.slot)
			}
		}
		prev = e
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

func TestEventHeapTieBreak(t *testing.T) {
	// Exact-tie times must pop in ascending slot order regardless of
	// push order.
	var h eventHeap
	for _, s := range []int32{9, 3, 7, 1, 5} {
		h.push(completionEvent{time: 42, slot: s})
	}
	want := []int32{1, 3, 5, 7, 9}
	for i, w := range want {
		if e := h.pop(); e.slot != w {
			t.Fatalf("pop %d: slot %d, want %d", i, e.slot, w)
		}
	}
}

func TestWeightedIntoZeroAllocs(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 51)
	r := rng.New(11)
	assign := RandomAssignment(inst.N(), inst.M, r)
	prio := levelPrio(inst, r)
	weights := randomWeights(inst.N(), r, 9)
	speeds := make([]int32, inst.M)
	groups := make([]int32, inst.M)
	for p := range speeds {
		speeds[p] = int32(p%3) + 1
		groups[p] = int32(p % 2)
	}
	model := &MachineModel{Speeds: speeds, Group: groups, IntraDelay: 1, CrossDelay: 3}
	ws := NewWorkspace()
	dst := &WeightedSchedule{}
	for name, mm := range map[string]*MachineModel{"uniform": nil, "hetero": model} {
		// Warm the workspace and destination first.
		if err := ListScheduleWeightedInto(ws, dst, inst, assign, prio, weights, mm); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := ListScheduleWeightedInto(ws, dst, inst, assign, prio, weights, mm); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warm weighted kernel allocates %v times per run, want 0", name, allocs)
		}
	}
}

func TestQuickWeightedAlwaysValid(t *testing.T) {
	f := func(seed uint64, mRaw, wMax uint8) bool {
		m := int(mRaw%6) + 1
		msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.15, Seed: seed})
		dirs, _ := quadrature.Octant(4)
		inst, err := NewInstance(msh, dirs, m)
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0x33)
		assign := RandomAssignment(inst.N(), m, r)
		weights := randomWeights(inst.N(), r, int(wMax%9)+1)
		s, err := ListScheduleMachine(inst, assign, levelPrio(inst, r), weights, nil)
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMachineAlwaysValid(t *testing.T) {
	f := func(seed uint64, mRaw, wMax, sMax, delay uint8) bool {
		m := int(mRaw%6) + 1
		msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.15, Seed: seed})
		dirs, _ := quadrature.Octant(4)
		inst, err := NewInstance(msh, dirs, m)
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0x44)
		assign := RandomAssignment(inst.N(), m, r)
		weights := randomWeights(inst.N(), r, int(wMax%9)+1)
		speeds := make([]int32, m)
		groups := make([]int32, m)
		for p := range speeds {
			speeds[p] = int32(r.Intn(int(sMax%5)+1)) + 1
			groups[p] = int32(r.Intn(2))
		}
		intra := int32(delay % 4)
		model := &MachineModel{Speeds: speeds, Group: groups, IntraDelay: intra, CrossDelay: intra + int32(delay%3)}
		s, err := ListScheduleMachine(inst, assign, levelPrio(inst, r), weights, model)
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FuzzWeightedEquivalence enforces the two bitwise reductions of the
// machine-model engine: (a) with all-ones weights on the uniform machine
// it reproduces the unit step-driven ListScheduleInto exactly, and (b) an
// explicitly uniform model (all-ones speeds, single group, zero delays)
// reproduces the nil-model weighted engine exactly on arbitrary weights.
func FuzzWeightedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(5))
	f.Add(uint64(42), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(17), uint8(9))
	f.Fuzz(func(t *testing.T, seed uint64, mRaw, wMax uint8) {
		m := int(mRaw%8) + 1
		msh := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.2, Seed: seed})
		dirs, err := quadrature.Octant(4)
		if err != nil {
			t.Skip()
		}
		inst, err := NewInstance(msh, dirs, m)
		if err != nil {
			t.Skip()
		}
		r := rng.New(seed ^ 0x55)
		assign := RandomAssignment(inst.N(), m, r)
		prio := levelPrio(inst, r)

		// (a) all-ones weights + uniform machine == unit ListScheduleInto.
		unit, err := into(ListScheduleInto, inst, assign, prio, nil)
		if err != nil {
			t.Fatal(err)
		}
		ones, err := ListScheduleMachine(inst, assign, prio, randomWeights(inst.N(), rng.New(0), 1), nil) // every weight 1
		if err != nil {
			t.Fatal(err)
		}
		if ones.Makespan != int64(unit.Makespan) {
			t.Fatalf("all-ones weighted makespan %d != unit %d", ones.Makespan, unit.Makespan)
		}
		for tid := range unit.Start {
			if int64(unit.Start[tid]) != ones.Start[tid] {
				t.Fatalf("task %d: unit start %d != all-ones weighted start %d",
					tid, unit.Start[tid], ones.Start[tid])
			}
		}

		// (b) explicit uniform model == nil model on arbitrary weights.
		weights := randomWeights(inst.N(), r, int(wMax%9)+1)
		plain, err := ListScheduleMachine(inst, assign, prio, weights, nil)
		if err != nil {
			t.Fatal(err)
		}
		speeds := make([]int32, m)
		for p := range speeds {
			speeds[p] = 1
		}
		model := &MachineModel{Speeds: speeds, Group: make([]int32, m)}
		got, err := ListScheduleMachine(inst, assign, prio, weights, model)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != plain.Makespan {
			t.Fatalf("uniform model makespan %d != nil model %d", got.Makespan, plain.Makespan)
		}
		for tid := range plain.Start {
			if got.Start[tid] != plain.Start[tid] || got.Finish[tid] != plain.Finish[tid] {
				t.Fatalf("task %d: uniform model [%d,%d) != nil model [%d,%d)",
					tid, got.Start[tid], got.Finish[tid], plain.Start[tid], plain.Finish[tid])
			}
		}
	})
}

// BenchmarkWeightedKernel measures the warm Into kernel (recycled
// workspace and destination, with its 0 allocs/op contract) on the uniform machine and on a heterogeneous
// one with mixed speeds and two delay-charged locality groups.
func BenchmarkWeightedKernel(b *testing.B) {
	inst := testInstance(b, 6, 24, 32, 1)
	r := rng.New(1)
	assign := RandomAssignment(inst.N(), inst.M, r)
	weights := randomWeights(inst.N(), r, 10)
	prio := levelPrio(inst, r)
	speeds := make([]int32, inst.M)
	groups := make([]int32, inst.M)
	for p := range speeds {
		speeds[p] = int32(p%3) + 1
		groups[p] = int32(p % 4)
	}
	hetero := &MachineModel{Speeds: speeds, Group: groups, IntraDelay: 1, CrossDelay: 4}
	for _, bc := range []struct {
		name  string
		model *MachineModel
	}{{"uniform", nil}, {"hetero", hetero}} {
		b.Run(bc.name, func(b *testing.B) {
			ws := NewWorkspace()
			dst := &WeightedSchedule{}
			BenchWarm(b, func() {
				if err := ListScheduleWeightedInto(ws, dst, inst, assign, prio, weights, bc.model); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}
