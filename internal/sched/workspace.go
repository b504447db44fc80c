package sched

import (
	"fmt"
	"sync"

	"sweepsched/internal/obs"
)

// Workspace is the reusable scratch arena of the scheduling kernels:
// the rank-bitmap ready sets and per-task nodes every list engine runs on
// (the unit-step core, the weighted event core, the greedy preprocessing),
// the release calendar, the per-step completion buffer, the weighted
// engine's event heaps, and caller-visible priority/release scratch. One
// warm workspace makes every Into entry point allocate nothing — the
// paper's experiments run the list scheduler thousands of times per
// instance shape (once per heuristic × delay draw × seed), and the
// per-call make/map/boxing traffic of the original kernel was the
// dominant cost of those trial loops.
//
// A Workspace is not safe for concurrent use; parallel trial loops draw
// one each from the shape-keyed pool (GetWorkspace/Release).
type Workspace struct {
	// readyAt and start are per slot of the task graph: the step core's
	// release times, and the start steps (greedy levels) a run writes
	// before they go back to the caller in TaskID order; start also holds
	// the layered kernel's per-step maxima.
	readyAt []int32
	start   []int32
	// The layered kernel's (layered.go): the tasks in (layer, TaskID)
	// order, each beside its processor, a slot per layer (its place in
	// that order, then its floor), one counter per processor, each task's
	// rank within its (layer, processor), and what they were counted for.
	layerOrder                    []uint64
	layerAt, procCount, layerRank []int32
	layers                        layerWalk
	rq                            rankq
	cal                           calendar
	completed                     []popped
	// zeroPrio backs nil-priority runs. The kernel never writes
	// priorities, so it stays all-zero across reuses.
	zeroPrio Priorities
	// zeroAssign puts every cell on processor 0: the greedy scheduler's one
	// ready-set partition. Never written either.
	zeroAssign Assignment
	// prioBuf and int32Buf are caller scratch (PrioBuf/Int32Buf) for
	// building priorities and release times without per-trial allocation.
	prioBuf  Priorities
	int32Buf []int32
	// The angleset kernels' inputs, expanded per task (expandAngleset):
	// dirGroup maps direction -> angleset, filled by fillDirGroup per run.
	dirGroup []int32
	expPrio  Priorities
	expRel   []int32
	// Weighted-engine scratch (weighted.go): the completion and release
	// event heaps, per-processor busy and touched flags with the list of
	// processors touched at the current timestamp, and per-slot int64
	// release times for the hierarchical-delay machine model and finish
	// times.
	completions eventHeap
	releases    eventHeap
	busyBuf     []bool
	touchBuf    []bool
	woken       []int32
	readyW      []int64
	finishW     []int64

	// metrics are the last step-core run's, read off its edge walk; see
	// Metrics.
	metrics    Metrics
	hasMetrics bool

	// col receives the kernels' stage timers and run/step counters
	// (SetObserver). nil disables collection; the nil-safe obs calls cost
	// one branch each, and warm metric updates allocate nothing, so the
	// zero-allocation contract holds with or without a collector.
	col *obs.Collector

	key wsKey
}

// SetObserver attaches an obs collector: every kernel run through this
// workspace records a stage span and run/step counters under its own
// series (sched.{list,comm,residual,anglist,angcomm,greedy,weighted}.
// {time,runs,steps}); a step-core run's series is named by its rule —
// residual with a done set, anglist/angcomm with anglesets, comm under a
// delay, list otherwise — and an angleset run's span leaves out the
// expansion. A nil
// collector detaches. Release detaches automatically so pooled
// workspaces never leak a collector to an unrelated caller.
func (ws *Workspace) SetObserver(col *obs.Collector) { ws.col = col }

// Metrics returns the makespan, C1 and C2 of the schedule the step core
// or the layered kernel last wrote through this workspace, counted on its
// own edge walk — what Measure would compute, without a second walk. ok
// is false when there is none to report: no such run since the workspace
// was drawn, a run that failed, or a residual run (a Rule with Done),
// which schedules only part of the graph.
func (ws *Workspace) Metrics() (met Metrics, ok bool) { return ws.metrics, ws.hasMetrics }

// NewWorkspace returns an empty workspace; it grows to fit the first
// instance it schedules and is warm from the second call on. Callers
// running trial loops should prefer GetWorkspace, which recycles
// workspaces across goroutines per instance shape.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsKey identifies an instance shape for workspace pooling.
type wsKey struct {
	nt, m int
}

// wsPools holds one sync.Pool of warm workspaces per instance shape
// (task count, processor count). Keying by shape keeps every pooled
// workspace exactly warm for its instance: a trial loop's Get returns
// scratch already sized for the loop's instance, never scratch inflated
// by an unrelated larger run.
var wsPools sync.Map // wsKey -> *sync.Pool

// GetWorkspace draws a workspace warm for the instance's shape from the
// pool. Pair it with Release.
func GetWorkspace(inst *Instance) *Workspace {
	key := wsKey{inst.NTasks(), inst.M}
	p, ok := wsPools.Load(key)
	if !ok {
		p, _ = wsPools.LoadOrStore(key, &sync.Pool{})
	}
	ws, _ := p.(*sync.Pool).Get().(*Workspace)
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.key = key
	return ws
}

// Release returns the workspace to its shape's pool. The workspace must
// not be used afterwards; schedules it produced remain valid (they never
// alias workspace memory).
func (ws *Workspace) Release() {
	ws.col, ws.hasMetrics, ws.layers = nil, false, layerWalk{}
	if ws.key == (wsKey{}) {
		return // not pool-managed (NewWorkspace)
	}
	if p, ok := wsPools.Load(ws.key); ok {
		p.(*sync.Pool).Put(ws)
	}
}

// PrioBuf returns a length-nt priority scratch slice owned by the
// workspace, for callers that build per-trial priorities (e.g. level +
// random delay) without allocating. Contents are unspecified; the caller
// overwrites every entry. The kernel only reads priorities, so the buffer
// may be passed straight to the Into entry points.
func (ws *Workspace) PrioBuf(nt int) Priorities {
	ws.prioBuf = grow(ws.prioBuf, nt)
	return ws.prioBuf
}

// Int32Buf returns a length-n int32 scratch slice owned by the workspace,
// for per-trial release times or layer indices. Contents are unspecified.
func (ws *Workspace) Int32Buf(n int) []int32 {
	ws.int32Buf = grow(ws.int32Buf, n)
	return ws.int32Buf
}

// ensure grows the kernel scratch to the instance's shape. After the
// first call for a shape, subsequent calls for the same (or smaller)
// shape allocate nothing.
func (ws *Workspace) ensure(inst *Instance) {
	nt, m := inst.NTasks(), inst.M
	ws.readyAt = grow(ws.readyAt, nt)
	ws.start = grow(ws.start, nt)
	ws.zeroPrio, ws.zeroAssign = grow(ws.zeroPrio, nt), grow(ws.zeroAssign, inst.N())
	if cap(ws.completed) < m {
		ws.completed = make([]popped, 0, m)
	}
}

// ensureWeighted grows the weighted engine's extra scratch (event heaps,
// busy/touched flags, release times) to the instance's shape. Like
// ensure, it allocates nothing once warm for a shape.
func (ws *Workspace) ensureWeighted(inst *Instance) {
	nt, m := inst.NTasks(), inst.M
	ws.busyBuf, ws.touchBuf = grow(ws.busyBuf, m), grow(ws.touchBuf, m)
	if cap(ws.woken) < m {
		ws.woken = make([]int32, 0, m)
	}
	ws.readyW = grow(ws.readyW, nt)
	ws.finishW = grow(ws.finishW, nt)
	if cap(ws.completions) < m {
		ws.completions = make(eventHeap, 0, m) // at most one per processor
	}
	// ws.releases grows by append inside the run and keeps its capacity.
}

// checkListArgs validates the shared argument contract of the kernels
// and resolves a nil priority slice to the workspace's all-zero scratch.
func (ws *Workspace) checkListArgs(inst *Instance, assign Assignment, prio Priorities) (Priorities, error) {
	if err := assign.Validate(inst.N(), inst.M); err != nil {
		return nil, err
	}
	ws.ensure(inst)
	if prio == nil {
		return ws.zeroPrio, nil
	}
	if len(prio) != inst.NTasks() {
		return nil, fmt.Errorf("sched: %d priorities for %d tasks", len(prio), inst.NTasks())
	}
	return prio, nil
}

// ensureStart sizes dst.Start for nt tasks, reusing its backing array
// when the destination schedule is recycled across trials.
func ensureStart(dst *Schedule, nt int) []int32 {
	dst.Start = grow(dst.Start, nt)
	return dst.Start
}

// grow returns s resliced to length n, or a fresh slice when its
// capacity falls short; the contents are unspecified.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}
