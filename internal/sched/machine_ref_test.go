package sched

// A frozen reference for the weighted engine under a MachineModel.
// refimpl/weighted.go freezes the uniform machine only; speeds and
// hierarchical delays were pinned bit for bit by nothing but api_golden's
// hashes on one mesh. refMachineSchedule is the event loop as it stood
// before the engine moved onto rank bitmaps, task nodes and the flat task
// graph — one event queue of completions and releases ordered by
// (time, task), a ready heap per processor, Split and DAGs[i].Out(v) per
// edge — on container/heap throughout, so it shares no queue with the
// kernel. Do not optimize it.

import (
	"container/heap"
	"fmt"
	"slices"
	"testing"

	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
)

// refEvent is a completion on proc, or with proc < 0 the release of a task
// whose last communication delay elapses at time.
type refEvent struct {
	time int64
	task TaskID
	proc int32
}

type refEventQueue []refEvent

func (q refEventQueue) Len() int { return len(q) }
func (q refEventQueue) Less(a, b int) bool {
	if q[a].time != q[b].time {
		return q[a].time < q[b].time
	}
	return q[a].task < q[b].task
}
func (q refEventQueue) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *refEventQueue) Push(x interface{}) { *q = append(*q, x.(refEvent)) }
func (q *refEventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

func refMachineSchedule(inst *Instance, assign Assignment, prio Priorities, weights CellWeights, model *MachineModel) (start, finish []int64, makespan int64, err error) {
	nt := inst.NTasks()
	if prio == nil {
		prio = make(Priorities, nt)
	}
	n := int32(inst.N())
	indeg := make([]int32, nt)
	for i, d := range inst.DAGs {
		for v := int32(0); v < n; v++ {
			indeg[int32(i)*n+v] = int32(d.InDegree(v))
		}
	}
	ready := make([]refTaskHeap, inst.M)
	for p := range ready {
		ready[p].prio = prio
	}
	busy := make([]bool, inst.M)
	touched := make([]bool, inst.M)
	readyW := make([]int64, nt)
	delayed := model.hasDelays()
	start, finish = make([]int64, nt), make([]int64, nt)
	for i := range start {
		start[i] = -1
	}
	events := &refEventQueue{}
	remaining := nt

	tryStart := func(p int32, now int64) {
		if busy[p] || ready[p].Len() == 0 {
			return
		}
		t := heap.Pop(&ready[p]).(TaskID)
		v, _ := inst.Split(t)
		start[t] = now
		finish[t] = now + durationOn(weights[v], model.SpeedOf(p))
		busy[p] = true
		heap.Push(events, refEvent{time: finish[t], task: t, proc: p})
	}

	for t := 0; t < nt; t++ {
		if indeg[t] == 0 {
			heap.Push(&ready[assign[int32(t)%n]], TaskID(t))
		}
	}
	for p := int32(0); p < int32(inst.M); p++ {
		tryStart(p, 0)
	}
	for events.Len() > 0 {
		now := (*events)[0].time
		clear(touched)
		for events.Len() > 0 && (*events)[0].time == now {
			ev := heap.Pop(events).(refEvent)
			if ev.proc < 0 {
				v, _ := inst.Split(ev.task)
				p := assign[v]
				heap.Push(&ready[p], ev.task)
				touched[p] = true
				continue
			}
			remaining--
			busy[ev.proc] = false
			touched[ev.proc] = true
			v, i := inst.Split(ev.task)
			base := TaskID(i * n)
			for _, w := range inst.DAGs[i].Out(v) {
				wt := base + TaskID(w)
				if delayed {
					if cand := now + model.DelayOf(ev.proc, assign[w]); cand > readyW[wt] {
						readyW[wt] = cand
					}
				}
				indeg[wt]--
				if indeg[wt] == 0 {
					p := assign[w]
					if delayed && readyW[wt] > now {
						heap.Push(events, refEvent{time: readyW[wt], task: wt, proc: -1})
					} else {
						heap.Push(&ready[p], wt)
						touched[p] = true
					}
				}
			}
		}
		for p := int32(0); p < int32(inst.M); p++ {
			if touched[p] {
				tryStart(p, now)
			}
		}
	}
	if remaining != 0 {
		return nil, nil, 0, fmt.Errorf("reference: weighted deadlock with %d tasks unfinished", remaining)
	}
	return start, finish, slices.Max(finish), nil
}

// machineVariants are the corners of the model the differential walks:
// what the engine special-cases (no model, no delays, one group, a free
// intra-group hop) and what stresses its event queues (delays far longer
// than any task, weights far longer than any delay). model builds the
// variant from random per-processor speeds and group ids.
var machineVariants = []struct {
	name      string
	maxWeight int
	model     func(speeds, groups []int32) *MachineModel
}{
	{"nil model", 9, func(_, _ []int32) *MachineModel { return nil }},
	{"speeds only", 9, func(s, _ []int32) *MachineModel { return &MachineModel{Speeds: s} }},
	{"groups nil", 9, func(s, _ []int32) *MachineModel { return &MachineModel{Speeds: s, IntraDelay: 2, CrossDelay: 7} }},
	{"intra 0 < cross", 9, func(_, g []int32) *MachineModel { return &MachineModel{Group: g, CrossDelay: 3} }},
	{"large delays", 9, func(s, g []int32) *MachineModel {
		return &MachineModel{Speeds: s, Group: g, IntraDelay: 1 << 20, CrossDelay: 1 << 30}
	}},
	{"weights to 1<<20", 1 << 20, func(s, g []int32) *MachineModel {
		return &MachineModel{Speeds: s, Group: g, IntraDelay: 1, CrossDelay: 4}
	}},
}

// checkMachineAgainstReference schedules one seeded instance under one
// model variant on both engines and demands equal start, finish and
// makespan. ws is reused across calls, as a trial loop reuses it.
func checkMachineAgainstReference(t *testing.T, ws *Workspace, seed uint64, n, k, m, variant int) {
	t.Helper()
	checkMachineOn(t, ws, randomDAGInstance(t, n, k, m, seed), seed, variant)
}

// checkMachineOn is checkMachineAgainstReference on a given instance.
func checkMachineOn(t *testing.T, ws *Workspace, inst *Instance, seed uint64, variant int) {
	t.Helper()
	n, k, m := inst.N(), inst.K(), inst.M
	r := rng.New(seed ^ 0x77)
	assign := RandomAssignment(n, m, r)
	var prio Priorities
	if seed%5 != 0 {
		prio = randomPrio(inst.NTasks(), r)
	}
	speeds, groups := make([]int32, m), make([]int32, m)
	for p := range speeds {
		speeds[p], groups[p] = int32(r.Intn(4))+1, int32(r.Intn(3))
	}
	mv := machineVariants[variant]
	model := mv.model(speeds, groups)
	weights := randomWeights(n, r, mv.maxWeight)
	wantStart, wantFinish, wantMakespan, err := refMachineSchedule(inst, assign, prio, weights, model)
	if err != nil {
		t.Fatal(err)
	}
	got := &WeightedSchedule{}
	if err := ListScheduleWeightedInto(ws, got, inst, assign, prio, weights, model); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.Makespan != wantMakespan {
		t.Fatalf("%s, seed %d (n=%d k=%d m=%d): makespan %d, reference %d", mv.name, seed, n, k, m, got.Makespan, wantMakespan)
	}
	for tt := range wantStart {
		if got.Start[tt] != wantStart[tt] || got.Finish[tt] != wantFinish[tt] {
			t.Fatalf("%s, seed %d (n=%d k=%d m=%d): task %d runs [%d,%d), reference [%d,%d)",
				mv.name, seed, n, k, m, tt, got.Start[tt], got.Finish[tt], wantStart[tt], wantFinish[tt])
		}
	}
}

// TestWeightedMachineMatchesReference is the seeded differential: random
// instances of several shapes, and a mesh renumbered at random, under
// every model variant, one workspace throughout.
func TestWeightedMachineMatchesReference(t *testing.T) {
	ws := NewWorkspace()
	r := rng.New(2024)
	for round := 0; round < 12; round++ {
		n, k, m := 1+r.Intn(90), 1+r.Intn(5), 1+r.Intn(9)
		for variant := range machineVariants {
			checkMachineAgainstReference(t, ws, r.Uint64(), n, k, m, variant)
		}
	}
	box := mesh.KuhnBox(mesh.BoxSpec{NX: 4, NY: 4, NZ: 4, Jitter: 0.15, Seed: 8})
	dirs, err := quadrature.Octant(8)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, err := NewInstance(ShuffledMesh(box, 9), dirs, 6)
	if err != nil {
		t.Fatal(err)
	}
	for variant := range machineVariants {
		checkMachineOn(t, ws, shuffled, r.Uint64(), variant)
	}
}

// FuzzWeightedMachineDifferential lets the fuzzer pick the instance shape,
// its seed and the model variant for the same differential.
func FuzzWeightedMachineDifferential(f *testing.F) {
	for variant := range machineVariants {
		f.Add(uint64(variant+1), uint8(40), uint8(3), uint8(5), uint8(variant))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, mRaw, variantRaw uint8) {
		n, k, m := int(nRaw%120)+1, int(kRaw%6)+1, int(mRaw%12)+1
		checkMachineAgainstReference(t, NewWorkspace(), seed, n, k, m, int(variantRaw)%len(machineVariants))
	})
}
