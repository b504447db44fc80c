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
	"sweepsched/internal/par"
	"sweepsched/internal/rng"
)

// TaskID identifies a (cell, direction) pair as i*n + v.
type TaskID int32

// Instance is a sweep-scheduling problem: n cells, k direction DAGs and m
// processors. Its DAGs are immutable once a schedule has been planned on
// it: the first list-scheduled plan (unit-step, weighted or greedy) derives
// the family-wide task graph from them, laid out in sweep-plane slots, the
// first Algorithm 3 plan its greedy levels, and every later plan reads
// those, so a family rebuilt for other directions (dag.BuildAllInto over
// the same storage) needs a fresh Instance. Instances sharing DAGs (one
// family, several m) are fine. An Instance must not be copied.
type Instance struct {
	Mesh *mesh.Mesh
	Dirs []geom.Vec3
	DAGs []*dag.DAG
	M    int

	graph  taskGraph
	greedy greedyLevels
}

// taskGraph is the family's out-adjacency in one CSR over slots, the
// order a sweep reaches the tasks in: direction i's tasks fill the block
// of slots [i·n, (i+1)·n) as TaskIDs do, and within the block its cells
// follow the DAG's TopoOrder, by (level, cell), so slot i·n+j holds cell
// order[i][j]. succ[off[s]:off[s+1]] are slot s's successors, all later
// slots of the same block. The list engines keep their per-task state in
// slot order too, so a step's successor loads land near one another on
// one sweep plane or the next, whatever order the mesh numbers its cells
// in; only the prelude (priorities, the done mask), the release floors'
// way in (toSlots) and the result's way out (fromSlots) see TaskIDs.
// Built by the first plan (concurrent first plans share one build),
// read-only after.
type taskGraph struct {
	once  sync.Once
	off   []int32 // nil when the family has more than MaxInt32 edges
	succ  []int32
	slot  []int32   // TaskID -> slot
	order [][]int32 // direction -> its DAG's TopoOrder, the block's cells in slot order
}

// taskGraph returns the instance's task graph, building it on first use.
// A family with more edges than an int32 offset can address has none, and
// every kernel refuses it with this error.
func (inst *Instance) taskGraph() (*taskGraph, error) {
	g := &inst.graph
	g.once.Do(func() { g.build(inst.DAGs) })
	if g.off == nil {
		return nil, fmt.Errorf("sched: the %d directions have more than %d edges between them", inst.K(), math.MaxInt32)
	}
	return g, nil
}

// build lays the directions' DAGs out in slots. It leaves g empty when
// they have more edges between them than an int32 offset can address.
// Per direction, one pass over the TopoOrder gives every cell its slot
// and every slot its list's start, and one pass over the cells in id
// order, reading the DAG's out-lists as they are stored, copies each list
// to its slot's place with the successors' slots in it.
func (g *taskGraph) build(dags []*dag.DAG) {
	n, edges := dags[0].N, 0
	for _, d := range dags {
		edges += d.NumEdges()
	}
	if edges > math.MaxInt32 {
		return
	}
	// One allocation holds all three arrays.
	nt := n * len(dags)
	buf := make([]int32, 2*nt+1+edges)
	off, slot, succ := buf[:nt+1:nt+1], buf[nt+1:2*nt+1:2*nt+1], buf[2*nt+1:]
	order := make([][]int32, len(dags))
	e := int32(0)
	for i, d := range dags {
		base := int32(i * n)
		ord, sl, first := d.TopoOrder(), slot[base:int(base)+n], off[base:int(base)+n]
		for j, v := range ord {
			sl[v], first[j] = base+int32(j), e
			e += int32(d.OutDegree(v))
		}
		for v := range int32(n) {
			out := d.Out(v)
			at := off[sl[v]]
			dst := succ[at : int(at)+len(out)]
			for k, w := range out {
				dst[k] = sl[w]
			}
		}
		order[i] = ord
	}
	off[nt] = e
	g.off, g.succ, g.slot, g.order = off, succ, slot, order
}

// toSlots writes src, one value per task in TaskID order, into dst in
// slot order.
func toSlots[T int32 | int64](g *taskGraph, dst, src []T) {
	n := len(g.order[0])
	for i, ord := range g.order {
		d, s := dst[i*n:(i+1)*n], src[i*n:(i+1)*n]
		for j, v := range ord {
			d[j] = s[v]
		}
	}
}

// fromSlots writes src, one value per slot, into dst in TaskID order: the
// one write-back of a run's result.
func fromSlots[T int32 | int64](g *taskGraph, dst, src []T) {
	n := len(g.order[0])
	for i, ord := range g.order {
		d, s := dst[i*n:(i+1)*n], src[i*n:(i+1)*n]
		for j, v := range ord {
			d[v] = s[j]
		}
	}
}

// greedyLevels are Algorithm 3's preprocessing levels L' of an instance.
// They depend on its DAGs and M alone, so the first plan that needs them
// builds them (concurrent first plans share one build) and every later
// plan reads them; nothing writes them after.
type greedyLevels struct {
	once  sync.Once
	level []int32
	err   error
}

// GreedyLevels returns the instance's L' levels: every task's completion
// step in GreedyScheduleInto's Graham list schedule of the union DAG H on
// M machines, with no priorities. The first call builds them on ws (nil
// draws a pooled workspace), so that build's sched.greedy series goes to
// ws's observer; later calls return the same slice. It is shared and
// read-only: a caller that adds delays to it copies it first.
func (inst *Instance) GreedyLevels(ws *Workspace) ([]int32, error) {
	g := &inst.greedy
	g.once.Do(func() {
		if ws == nil {
			ws = GetWorkspace(inst)
			defer ws.Release()
		}
		level := make([]int32, inst.NTasks())
		if _, g.err = GreedyScheduleInto(ws, level, inst, nil); g.err == nil {
			g.level = level
		}
	})
	return g.level, g.err
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
// start step plus one. It is ValidateWorkers(0).
func (s *Schedule) Validate() error { return s.ValidateWorkers(0) }

// ValidateWorkers is Validate with its precedence and exclusivity checks
// on up to TailWorkers(workers) goroutines. The verdict and the error are
// the same for every workers value.
func (s *Schedule) ValidateWorkers(workers int) error {
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
	err := splitChecks(inst, s.Assign, s.Start, maxStart, func(_ TaskID, st int64) int64 { return st + 1 }, workers,
		func(i int32) error {
			if u, w, _, tight := s.tightEdge(i, 0); tight {
				return fmt.Errorf("sched: precedence violated in dir %d: (%d)@%d !< (%d)@%d",
					i, u, s.Start[inst.Task(u, i)], w, s.Start[inst.Task(w, i)])
			}
			return nil
		},
		func(q int32, a, b TaskID) error {
			return fmt.Errorf("sched: processor %d runs tasks %d and %d at step %d", q, a, b, s.Start[a])
		})
	if err != nil {
		return err
	}
	// A stale Makespan would mis-size everything downstream that trusts it.
	if s.Makespan != int(maxStart)+1 {
		return fmt.Errorf("sched: makespan %d inconsistent with max start %d", s.Makespan, maxStart)
	}
	return nil
}

// tightEdge is the edge walk Validate and ValidateComm share. It returns
// the first edge (u,i)->(w,i) of direction i, in cell then successor
// order, whose successor starts fewer than gap steps after its
// predecessor: gap is 1, plus commDelay when the two cells sit on
// different processors. tight is false when every edge has its gap.
func (s *Schedule) tightEdge(i, commDelay int32) (u, w, gap int32, tight bool) {
	n := int32(s.Inst.N())
	d, starts := s.Inst.DAGs[i], s.Start[i*n:]
	for u := int32(0); u < n; u++ {
		su, pu := int64(starts[u]), s.Assign[u]
		for _, w := range d.Out(u) {
			gap := int32(1)
			if commDelay > 0 && s.Assign[w] != pu {
				gap += commDelay
			}
			if int64(starts[w]) < su+int64(gap) {
				return u, w, gap, true
			}
		}
	}
	return 0, 0, 0, false
}

// tailCrossover is the instance size, in tasks plus DAG edges, from which
// a plan's feasibility tail is split across goroutines: below it the
// cross-CPU hand-off costs more than the split saves (DESIGN.md §9,
// "Feasibility tail", has the measurement).
const tailCrossover = 200_000

// TailWorkers is how many goroutines the feasibility tail of a plan on
// inst may use under a Workers knob (<= 0 selects GOMAXPROCS): one below
// tailCrossover tasks plus edges, par.Workers(workers) from there up.
func (inst *Instance) TailWorkers(workers int) int {
	if workers == 1 {
		return 1
	}
	size := inst.NTasks()
	for _, d := range inst.DAGs {
		size += d.NumEdges()
	}
	if size < tailCrossover {
		return 1
	}
	return par.Workers(workers)
}

// splitChecks runs the checks Validate and WeightedSchedule.Validate split
// by direction and by processor as one index range [0, k+m) on up to
// TailWorkers(workers) goroutines: index i < k is direction i's
// precedence (prec), index k+q is processor q's exclusivity (overlap,
// whose first conflicting pair clash turns into an error). par.ForEach
// returns the error of the lowest failing index, so the result is the
// serial loop's: precedence in direction order first, then the
// lowest-numbered processor with an overlap.
func splitChecks[T int32 | int64](inst *Instance, assign Assignment, start []T, bound T, end func(t TaskID, start int64) int64, workers int,
	prec func(i int32) error, clash func(q int32, a, b TaskID) error) error {
	k := inst.K()
	byProc := procCellsPool.Get().(*procCells)
	defer procCellsPool.Put(byProc)
	off, cells := byProc.group(assign, inst.M)
	return par.ForEach(k+inst.M, inst.TailWorkers(workers), func(i int) error {
		if i < k {
			return prec(int32(i))
		}
		q := int32(i - k)
		sc := keyOrderPool.Get().(*keyOrder)
		defer keyOrderPool.Put(sc)
		if a, b, found := overlap(sc, inst, cells[off[q]:off[q+1]], start, bound, end); found {
			return clash(q, a, b)
		}
		return nil
	})
}

// keyOrder is the scratch of one sortByKey: two arrays each of ids and
// of their keys, and the digit table. The ids are task ids for Validate
// and C2 and slots of the task graph for rankq. procCells is
// splitChecks' cells grouped by processor. The list engines' rankq keeps a keyOrder of its
// own in the Workspace; Validate and C2 run after every plan and have no
// Workspace to draw from, so both are pooled on their own and a warm
// plan's feasibility tail then allocates nothing per task.
type keyOrder struct {
	ids, spareIDs   []int32
	keys, spareKeys []uint64
	counts          []int32
}

type procCells struct{ off, cells []int32 }

var (
	keyOrderPool  = sync.Pool{New: func() any { return new(keyOrder) }}
	procCellsPool = sync.Pool{New: func() any { return new(procCells) }}
)

// take returns sc's first id and key arrays at length n, for the caller
// to fill — ids ascending, each with its key — before sortByKey. They
// grow with half again as much room: a processor's task count moves a
// little from one assignment to the next, and a warm plan should not pay
// for that.
func (sc *keyOrder) take(n int) ([]int32, []uint64) {
	if cap(sc.ids) < n {
		c := n + n/2
		sc.ids, sc.spareIDs = make([]int32, c), make([]int32, c)
		sc.keys, sc.spareKeys = make([]uint64, c), make([]uint64, c)
	}
	return sc.ids[:n], sc.keys[:n]
}

// group groups the cells by processor in one stable counting pass:
// cells[off[q]:off[q+1]] are processor q's cells in ascending order.
func (pc *procCells) group(assign Assignment, m int) (off, cells []int32) {
	if cap(pc.off) < m+1 {
		pc.off = make([]int32, m+1)
	}
	if cap(pc.cells) < len(assign) {
		pc.cells = make([]int32, len(assign))
	}
	off, cells = pc.off[:m+1], pc.cells[:len(assign)]
	clear(off)
	for _, q := range assign {
		off[q+1]++
	}
	for q := 0; q < m; q++ {
		off[q+1] += off[q]
	}
	for v, q := range assign {
		cells[off[q]] = int32(v)
		off[q]++
	}
	// The scatter advanced off[q] to the start of q+1's cells.
	copy(off[1:], off[:m])
	off[0] = 0
	return off, cells
}

// sortByKey orders the tasks of sc.take's arrays — ids ascending, keys
// in [0, bound] beside them — by key, and returns both in (key, id)
// order in one of sc's two pairs of arrays, valid until sc is reused.
// The keys are start steps for Validate and C2 and priority offsets from
// the smallest priority for rankq. Carrying the keys along keeps every
// pass a sequential read of the scratch rather than a lookup into the
// schedule or the priorities. The sort is a stable LSD radix sort over
// the bits of bound, in the fewest passes whose digits stay within as
// many bits as the task count has (at least 8, at most 16): a bound of up
// to 65,536 — every practical schedule length — takes a single counting
// pass over a table no larger than twice the bound or the task count, and
// any wider one, up to the full 64 bits, takes at most four, over the two
// pairs of arrays and a table of at most 65,536 entries whatever the key
// values are.
func (sc *keyOrder) sortByKey(ids []int32, keys []uint64, bound uint64) ([]int32, []uint64) {
	spareIDs, spareKeys := sc.spareIDs[:len(ids)], sc.spareKeys[:len(ids)]
	width := bits.Len64(bound)
	digit := min(16, max(8, bits.Len(uint(len(ids)))))
	passes := (width + digit - 1) / digit
	if passes == 0 {
		return ids, keys
	}
	dbits := (width + passes - 1) / passes
	mask := uint64(1)<<dbits - 1
	if cap(sc.counts) < 1<<dbits {
		sc.counts = make([]int32, 1<<dbits)
	}
	counts := sc.counts[:1<<dbits]
	for shift := 0; shift < width; shift += dbits {
		clear(counts)
		for _, key := range keys {
			counts[key>>shift&mask]++
		}
		var sum int32
		for d, c := range counts {
			counts[d] = sum
			sum += c
		}
		for j, key := range keys {
			d := key >> shift & mask
			spareIDs[counts[d]], spareKeys[counts[d]] = ids[j], key
			counts[d]++
		}
		ids, spareIDs = spareIDs, ids
		keys, spareKeys = spareKeys, keys
	}
	return ids, keys
}

// overlap is the one exclusivity check behind both schedule kinds, run on
// one processor: task t occupies its cell's processor over
// [start[t], end(t, start[t])) — end is start+1 for unit schedules, the
// finish time for weighted ones — and no two intervals on a processor may
// intersect. cells are the processor's cells in ascending order, start
// covers inst.NTasks() tasks with values in [0, bound].
//
// The processor's tasks — its cells in every direction, gathered in id
// order with their starts — are put in (start, id) order by sortByKey
// and neighbours are compared: O(tasks of the processor) memory whatever
// the start values are. When several pairs overlap, the one reported is
// the first neighbouring pair in (start, id) order, a deterministic
// function of the schedule.
func overlap[T int32 | int64](sc *keyOrder, inst *Instance, cells []int32, start []T, bound T, end func(t TaskID, start int64) int64) (a, b TaskID, found bool) {
	n := int32(inst.N())
	ids, keys := sc.take(len(cells) * inst.K())
	j := 0
	for base := int32(0); j < len(ids); base += n {
		for _, v := range cells {
			ids[j], keys[j] = base+v, uint64(start[base+v])
			j++
		}
	}
	ids, keys = sc.sortByKey(ids, keys, uint64(bound))
	for i := 1; i < len(ids); i++ {
		if int64(keys[i]) < end(TaskID(ids[i-1]), int64(keys[i-1])) {
			return TaskID(ids[i-1]), TaskID(ids[i]), true
		}
	}
	return 0, 0, false
}
