// Package sched is the sweep-scheduling engine: problem instances (mesh +
// per-direction DAGs + processor count), cell-to-processor assignments,
// priority-driven list scheduling, layer-synchronous scheduling, schedule
// validation, and the paper's objective functions (makespan, C1, C2).
//
// A task is a (cell, direction) pair. The defining constraint of sweep
// scheduling — every copy of a cell runs on the same processor in every
// direction (§3, constraint 3) — is enforced structurally: assignments map
// cells (not tasks) to processors, so schedules cannot violate it.
package sched

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
	"sweepsched/internal/rng"
)

// TaskID identifies a (cell, direction) pair as i*n + v.
type TaskID int32

// Instance is a sweep-scheduling problem: n cells, k direction DAGs and m
// processors. Its DAGs are immutable once a schedule has been planned on
// it: the first list-scheduled plan (unit-step, weighted or greedy) derives
// the family-wide task graph from them and every later plan reads that,
// so a family rebuilt for other directions (dag.BuildAllInto over the
// same storage) needs a fresh Instance. Instances sharing DAGs (one family, several m) are fine. An
// Instance must not be copied.
type Instance struct {
	Mesh *mesh.Mesh
	Dirs []geom.Vec3
	DAGs []*dag.DAG
	M    int

	graph taskGraph
}

// taskGraph is the family's out-adjacency over task ids in one CSR:
// succ[off[t]:off[t+1]] are task t's successors, the k per-direction
// out-lists laid end to end with the direction's base already added. The
// list engines walk it instead of Split + DAGs[i].Out(v) + base: one
// sequential stream of 4·(nt+1) + 4·edges bytes per Instance. Built by the
// first plan (concurrent first plans share one build), read-only after.
type taskGraph struct {
	once sync.Once
	off  []int32 // nil when the family has more than MaxInt32 edges
	succ []TaskID
}

// taskGraph returns the instance's task graph, building it on first use.
// A family with more edges than an int32 offset can address has none, and
// every kernel refuses it with this error.
func (inst *Instance) taskGraph() (*taskGraph, error) {
	g := &inst.graph
	g.once.Do(func() {
		n, edges := inst.N(), 0
		for _, d := range inst.DAGs {
			edges += d.NumEdges()
		}
		if edges > math.MaxInt32 {
			return
		}
		off, succ := make([]int32, inst.NTasks()+1), make([]TaskID, 0, edges)
		for i, d := range inst.DAGs {
			base := TaskID(i * n)
			for v := 0; v < n; v++ {
				off[i*n+v] = int32(len(succ))
				for _, w := range d.Out(int32(v)) {
					succ = append(succ, base+TaskID(w))
				}
			}
		}
		off[len(off)-1] = int32(len(succ))
		g.off, g.succ = off, succ
	})
	if g.off == nil {
		return nil, fmt.Errorf("sched: the %d directions have more than %d edges between them", inst.K(), math.MaxInt32)
	}
	return g, nil
}

// NewInstance builds the per-direction DAGs for the mesh and wraps them in
// an Instance. It returns an error for invalid m, empty direction sets or
// a mesh without cells.
func NewInstance(m *mesh.Mesh, dirs []geom.Vec3, procs int) (*Instance, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("sched: need at least one processor, got %d", procs)
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("sched: need at least one direction")
	}
	if m.NCells() == 0 {
		return nil, fmt.Errorf("sched: need at least one cell, the mesh has none")
	}
	return &Instance{Mesh: m, Dirs: dirs, DAGs: dag.BuildAll(m, dirs), M: procs}, nil
}

// FromDAGs wraps pre-built DAGs (all over the same, non-empty cell set) in
// an Instance; used by synthetic/non-geometric tests. Mesh may be nil.
func FromDAGs(dags []*dag.DAG, procs int) (*Instance, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("sched: need at least one processor, got %d", procs)
	}
	if len(dags) == 0 {
		return nil, fmt.Errorf("sched: need at least one DAG")
	}
	n := dags[0].N
	if n == 0 {
		return nil, fmt.Errorf("sched: need at least one cell, the DAGs have none")
	}
	for i, d := range dags {
		if d.N != n {
			return nil, fmt.Errorf("sched: DAG %d has %d cells, want %d", i, d.N, n)
		}
	}
	return &Instance{DAGs: dags, M: procs}, nil
}

// N returns the number of cells.
func (inst *Instance) N() int { return inst.DAGs[0].N }

// K returns the number of directions.
func (inst *Instance) K() int { return len(inst.DAGs) }

// NTasks returns n·k.
func (inst *Instance) NTasks() int { return inst.N() * inst.K() }

// Task returns the TaskID of cell v in direction i.
func (inst *Instance) Task(v, i int32) TaskID { return TaskID(i*int32(inst.N()) + v) }

// Split decomposes a TaskID into (cell, direction).
func (inst *Instance) Split(t TaskID) (v, i int32) {
	n := int32(inst.N())
	return int32(t) % n, int32(t) / n
}

// Assignment maps every cell to a processor in [0, M).
type Assignment []int32

// RandomAssignment assigns each cell independently and uniformly at random
// to one of m processors — step 3 of Algorithms 1-3.
func RandomAssignment(n, m int, r *rng.Source) Assignment {
	a := make(Assignment, n)
	for v := range a {
		a[v] = int32(r.Intn(m))
	}
	return a
}

// BlockAssignment assigns each block a uniformly random processor and every
// cell its block's processor — the §5.1 block-partitioning variant. part
// maps cells to blocks 0..nBlocks-1.
func BlockAssignment(part []int32, nBlocks, m int, r *rng.Source) Assignment {
	blockProc := make([]int32, nBlocks)
	for b := range blockProc {
		blockProc[b] = int32(r.Intn(m))
	}
	a := make(Assignment, len(part))
	for v, b := range part {
		a[v] = blockProc[b]
	}
	return a
}

// Validate checks that the assignment covers every cell with a processor in
// range.
func (a Assignment) Validate(n, m int) error {
	if len(a) != n {
		return fmt.Errorf("sched: assignment covers %d of %d cells", len(a), n)
	}
	for v, p := range a {
		if p < 0 || int(p) >= m {
			return fmt.Errorf("sched: cell %d assigned to processor %d (m=%d)", v, p, m)
		}
	}
	return nil
}

// Schedule is a complete solution: an assignment plus a start timestep for
// every task (unit processing time, so the task occupies exactly its start
// step).
type Schedule struct {
	Inst     *Instance
	Assign   Assignment
	Start    []int32
	Makespan int
}

// computeMakespan refreshes Makespan from Start.
func (s *Schedule) computeMakespan() {
	max := int32(-1)
	for _, t := range s.Start {
		if t > max {
			max = t
		}
	}
	s.Makespan = int(max) + 1
}

// Validate checks the three feasibility constraints of §3: precedence
// within every direction DAG, one task per processor per step, and (by
// construction of Assignment) all copies of a cell on one processor. It
// also checks every task was scheduled and that Makespan is the last
// start step plus one.
func (s *Schedule) Validate() error {
	inst := s.Inst
	if err := s.Assign.Validate(inst.N(), inst.M); err != nil {
		return err
	}
	if len(s.Start) != inst.NTasks() {
		return fmt.Errorf("sched: schedule covers %d of %d tasks", len(s.Start), inst.NTasks())
	}
	maxStart := int32(-1)
	for t, st := range s.Start {
		if st < 0 {
			return fmt.Errorf("sched: task %d unscheduled (start %d)", t, st)
		}
		maxStart = max(maxStart, st)
	}
	// Precedence.
	if i, u, w, _, tight := s.tightEdge(0); tight {
		return fmt.Errorf("sched: precedence violated in dir %d: (%d)@%d !< (%d)@%d",
			i, u, s.Start[inst.Task(u, i)], w, s.Start[inst.Task(w, i)])
	}
	// Processor exclusivity: no processor runs two tasks in one step.
	if p, a, b, found := overlap(inst, s.Assign, s.Start, maxStart, func(t TaskID) int64 { return int64(s.Start[t]) + 1 }); found {
		return fmt.Errorf("sched: processor %d runs tasks %d and %d at step %d", p, a, b, s.Start[a])
	}
	// A stale Makespan would mis-size everything downstream that trusts it.
	if s.Makespan != int(maxStart)+1 {
		return fmt.Errorf("sched: makespan %d inconsistent with max start %d", s.Makespan, maxStart)
	}
	return nil
}

// tightEdge is the edge walk Validate and ValidateComm share. It returns
// the first edge (u,i)->(w,i), in direction then cell then successor
// order, whose successor starts fewer than gap steps after its
// predecessor: gap is 1, plus commDelay when the two cells sit on
// different processors. tight is false when every edge has its gap.
func (s *Schedule) tightEdge(commDelay int32) (i, u, w, gap int32, tight bool) {
	inst := s.Inst
	n := int32(inst.N())
	for i, d := range inst.DAGs {
		starts := s.Start[i*int(n):]
		for u := int32(0); u < n; u++ {
			su, pu := int64(starts[u]), s.Assign[u]
			for _, w := range d.Out(u) {
				gap := int32(1)
				if commDelay > 0 && s.Assign[w] != pu {
					gap += commDelay
				}
				if int64(starts[w]) < su+int64(gap) {
					return int32(i), u, w, gap, true
				}
			}
		}
	}
	return 0, 0, 0, 0, false
}

// startOrder is the scratch of one sortByStart: the two task-long id
// arrays and the digit table. Validate and C2 run after every plan and
// neither has a Workspace to draw from, so the scratch is pooled on its
// own; a warm plan's feasibility tail then allocates nothing per task.
type startOrder struct {
	ids, spare []TaskID
	counts     []int32
}

var startOrderPool = sync.Pool{New: func() any { return new(startOrder) }}

// sortByStart returns the task ids 0..len(start)-1 in (start, id) order,
// plus a second id array of the same length for the caller to scatter
// into; both live in sc and are valid until it goes back to the pool.
// Starts must lie in [0, bound]. The sort is a stable LSD radix sort
// over the bits of bound, in the fewest passes whose digits stay
// within 16 bits: a schedule of up to 65,536 steps — every practical one
// — takes a single counting pass over a table no larger than twice its
// step count, and one whose steps are spread far beyond its task count
// takes at most four, over the two id arrays and a 65,536-entry table
// whatever the start values are.
func sortByStart[T int32 | int64](sc *startOrder, start []T, bound T) (ids, spare []TaskID) {
	if cap(sc.ids) < len(start) {
		sc.ids, sc.spare = make([]TaskID, len(start)), make([]TaskID, len(start))
	}
	ids, spare = sc.ids[:len(start)], sc.spare[:len(start)]
	for t := range ids {
		ids[t] = TaskID(t)
	}
	width := bits.Len64(uint64(max(bound, 0)))
	passes := (width + 15) / 16
	if passes == 0 {
		return ids, spare
	}
	dbits := (width + passes - 1) / passes
	mask := uint64(1)<<dbits - 1
	if cap(sc.counts) < 1<<dbits {
		sc.counts = make([]int32, 1<<dbits)
	}
	counts := sc.counts[:1<<dbits]
	for shift := 0; shift < width; shift += dbits {
		clear(counts)
		for _, st := range start {
			counts[(uint64(st)>>shift)&mask]++
		}
		var sum int32
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for _, t := range ids {
			d := (uint64(start[t]) >> shift) & mask
			spare[counts[d]] = t
			counts[d]++
		}
		ids, spare = spare, ids
	}
	return ids, spare
}

// overlap is the one exclusivity check behind both schedule kinds: task t
// occupies processor assign[t mod n] over [start[t], end(t)) — end is
// start+1 for unit schedules, the finish time for weighted ones — and no
// two intervals on a processor may intersect. start must cover
// inst.NTasks() tasks with values in [0, bound], and assign be valid.
//
// The ids come from sortByStart in (start, id) order; one more stable
// counting pass groups them by processor (m+1 offsets), and neighbours
// within a processor's run are compared: O(nt + m) memory whatever the
// start values are.
//
// When several pairs overlap, the one reported is the first neighbouring
// pair in (start, id) order on the lowest-numbered processor that has
// one: a deterministic function of the schedule.
func overlap[T int32 | int64](inst *Instance, assign Assignment, start []T, bound T, end func(TaskID) int64) (p int32, a, b TaskID, found bool) {
	sc := startOrderPool.Get().(*startOrder)
	defer startOrderPool.Put(sc)
	byStart, ids := sortByStart(sc, start, bound)
	n := int32(inst.N())
	off := make([]int32, inst.M+1)
	for _, q := range assign {
		off[q+1] += int32(inst.K())
	}
	for q := 0; q < inst.M; q++ {
		off[q+1] += off[q]
	}
	for _, t := range byStart {
		q := assign[int32(t)%n]
		ids[off[q]] = t
		off[q]++
	}
	// The scatter advanced off[q] to the end of q's run, the start of q+1's.
	lo := int32(0)
	for q := 0; q < inst.M; q++ {
		run := ids[lo:off[q]]
		lo = off[q]
		for i := 1; i < len(run); i++ {
			if int64(start[run[i]]) < end(run[i-1]) {
				return int32(q), run[i-1], run[i], true
			}
		}
	}
	return 0, 0, 0, false
}
