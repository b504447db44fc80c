// Package heuristics implements the comparison schedulers of §5.2:
//
//   - Level priorities: task (v,i) gets its level in G_i; smaller first.
//   - Descendant priorities (after Plimpton et al. [15]): a task's priority
//     is its number of descendants in G_i; larger first.
//   - Depth-First Descendant-Seeking priorities (Pautz [14]): b-level-based
//     priorities steering each processor towards tasks whose descendants
//     leave the processor soon; larger first.
//
// Each heuristic can be combined with the paper's random-delays technique
// (§5.2 studies exactly these combinations): direction i is held back by a
// uniform random X_i ∈ {0..k-1} steps, implemented as task release times.
//
// Every priority function fans its per-direction work over a bounded worker
// pool (internal/par): direction i computes into the slice segment
// [i·n, (i+1)·n), so the result is byte-identical for every worker count.
// All randomness is drawn before the fan-out, from per-direction substreams
// (see core.Delays), never inside a parallel region.
//
// What a priority starts from that depends on the DAG alone — the level
// order, b-levels and descendant counts — is a fact of the dag.DAG, built
// on its first use and shared by every later plan of the family: a fill
// here reads those and writes its n-entry segment, with no scratch of its
// own.
package heuristics

import (
	"fmt"

	"sweepsched/internal/core"
	"sweepsched/internal/dag"
	"sweepsched/internal/par"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// segmentFill writes one DAG's priorities (smaller runs first) into the
// n-entry priority segment seg.
type segmentFill func(seg sched.Priorities, d *dag.DAG, assign sched.Assignment)

// fillSegments fills every n-entry segment of prio on up to workers
// goroutines (<= 0 selects GOMAXPROCS; the result is identical for every
// worker count): segment i from direction i's DAG or, with an angleset
// partition, segment a from angleset a's representative DAG (its first
// member direction's).
func fillSegments(prio sched.Priorities, inst *sched.Instance, assign sched.Assignment, groups [][]int32, workers int, fill segmentFill) {
	n, segs := inst.N(), inst.K()
	if groups != nil {
		segs = len(groups)
	}
	_ = par.ForEach(segs, workers, func(s int) error {
		rep := s
		if groups != nil {
			rep = int(groups[s][0])
		}
		fill(prio[s*n:(s+1)*n], inst.DAGs[rep], assign)
		return nil
	})
}

// LevelPriorities returns Γ(v,i) = level_i(v); list scheduling prefers
// smaller values, matching the paper's "smaller priorities preferred".
func LevelPriorities(inst *sched.Instance, workers int) sched.Priorities {
	prio := make(sched.Priorities, inst.NTasks())
	LevelPrioritiesInto(prio, inst, workers)
	return prio
}

// LevelPrioritiesInto fills a caller-provided priority slice (len =
// NTasks) instead of allocating one; trial loops pass the workspace's
// PrioBuf.
func LevelPrioritiesInto(prio sched.Priorities, inst *sched.Instance, workers int) {
	fillSegments(prio, inst, nil, nil, workers, levelFill)
}

func levelFill(seg sched.Priorities, d *dag.DAG, _ sched.Assignment) {
	for v, l := range d.Level {
		seg[v] = int64(l)
	}
}

// ExactDescendantThreshold is the cell count up to which descendant
// priorities use the exact bitset reachability computation; larger meshes
// use the linear-time path-multiplicity estimate (see
// dag.DescendantsApprox), whose ordering is near-identical on mesh DAGs.
const ExactDescendantThreshold = 20000

// DescendantPriorities returns the Plimpton-style priorities: the number of
// descendants of (v,i) in G_i, negated so that the smallest-first list
// scheduler runs high-descendant tasks first. The counts are the most
// expensive numbers in the lineup to compute, once per DAG; every later
// call copies them.
func DescendantPriorities(inst *sched.Instance, workers int) sched.Priorities {
	prio := make(sched.Priorities, inst.NTasks())
	DescendantPrioritiesInto(prio, inst, workers)
	return prio
}

// DescendantPrioritiesInto fills a caller-provided priority slice (len =
// NTasks) instead of allocating one.
func DescendantPrioritiesInto(prio sched.Priorities, inst *sched.Instance, workers int) {
	fillSegments(prio, inst, nil, nil, workers, descendantFill)
}

func descendantFill(seg sched.Priorities, d *dag.DAG, _ sched.Assignment) {
	if d.N <= ExactDescendantThreshold {
		for v, c := range d.DescendantsExact() {
			seg[v] = -int64(c)
		}
	} else {
		for v, c := range d.DescendantsApprox() {
			seg[v] = -c
		}
	}
}

// DFDSPriorities returns Pautz's Depth-First Descendant-Seeking priorities
// for a given processor assignment. Per direction DAG, with b(v) the
// b-level (longest node count to a sink) and Δ ≥ number of levels:
//
//   - a task with at least one child on another processor gets
//     max(child b-level) + Δ;
//   - a task whose children are all on-processor but that still has some
//     off-processor descendant gets max(child priority) − 1;
//   - a task with no off-processor descendants gets 0.
//
// Higher priority is better, so values are negated for the
// smallest-first list scheduler.
func DFDSPriorities(inst *sched.Instance, assign sched.Assignment, workers int) sched.Priorities {
	prio := make(sched.Priorities, inst.NTasks())
	DFDSPrioritiesInto(prio, inst, assign, workers)
	return prio
}

// DFDSPrioritiesInto fills a caller-provided priority slice (len =
// NTasks) instead of allocating one.
func DFDSPrioritiesInto(prio sched.Priorities, inst *sched.Instance, assign sched.Assignment, workers int) {
	fillSegments(prio, inst, assign, nil, workers, dfdsFill)
}

func dfdsFill(seg sched.Priorities, d *dag.DAG, assign sched.Assignment) {
	b := d.BLevels()
	delta := int64(d.NumLevels) + 1
	order := d.TopoOrder()
	// Children come later in the order, so walking it backwards finds every
	// child's (negated) priority already in seg.
	for idx := len(order) - 1; idx >= 0; idx-- {
		v := order[idx]
		var maxChildB int64 = -1
		var maxChildPrio int64 // > 0 exactly when v has an off-processor descendant
		offChild := false
		for _, w := range d.Out(v) {
			if assign[w] != assign[v] {
				offChild = true
				maxChildB = max(maxChildB, int64(b[w]))
			}
			maxChildPrio = max(maxChildPrio, -seg[w])
		}
		switch {
		case offChild:
			seg[v] = -(maxChildB + delta)
		case maxChildPrio > 0:
			// At least 1: keep "has off-processor descendant" visible.
			seg[v] = -max(maxChildPrio-1, 1)
		default:
			seg[v] = 0
		}
	}
}

// Name identifies a heuristic scheduler in experiment tables.
type Name string

// The scheduler lineup compared in §5.2, plus the provable algorithms of §4
// under the names the experiments use.
const (
	RandomDelays         Name = "random_delays"          // Algorithm 1
	RandomDelaysPriority Name = "random_delays_priority" // Algorithm 2
	ImprovedDelays       Name = "improved_delays"        // Algorithm 3
	Level                Name = "level"
	LevelDelays          Name = "level_delays"
	Descendant           Name = "descendant"
	DescendantDelays     Name = "descendant_delays"
	DFDS                 Name = "dfds"
	DFDSDelays           Name = "dfds_delays"
)

// AllNames lists every scheduler in presentation order.
func AllNames() []Name {
	return []Name{
		RandomDelays, RandomDelaysPriority, ImprovedDelays,
		Level, LevelDelays,
		Descendant, DescendantDelays,
		DFDS, DFDSDelays,
	}
}

// delayUse says what a scheduler does with its random delays X_s, one
// per direction (per angleset when aggregated).
type delayUse int

const (
	noDelays      delayUse = iota
	delayPriority          // folded into the priority: Γ = base + X_s (§4)
	delayRelease           // tasks of segment s are released at step X_s (§5.2)
)

// recipes is the scheduler lineup as data: every list-scheduling
// algorithm is a base priority per task plus a use for the delays. A nil
// fill stands for Algorithm 3's Graham preprocessing levels, which are
// global to all k directions and so have no per-angleset form.
// RandomDelays, the layer-synchronous Algorithm 1, is no list scheduler
// and has no recipe.
var recipes = map[Name]struct {
	fill   segmentFill
	delays delayUse
}{
	RandomDelaysPriority: {levelFill, delayPriority},
	ImprovedDelays:       {nil, delayPriority},
	Level:                {levelFill, noDelays},
	LevelDelays:          {levelFill, delayRelease},
	Descendant:           {descendantFill, noDelays},
	DescendantDelays:     {descendantFill, delayRelease},
	DFDS:                 {dfdsFill, noDelays},
	DFDSDelays:           {dfdsFill, delayRelease},
}

// Inputs computes what the named scheduler feeds a list kernel, in the
// workspace's scratch buffers: one priority per task — or, with an
// angleset partition, one per (angleset, cell), computed on each
// angleset's representative DAG — and, for the *_delays schedulers, the
// release delay of every direction (angleset); release is nil for the
// rest. The delays are the only draw from r, one core.Delays call over
// the segments, made after the priorities are filled.
func Inputs(ws *sched.Workspace, name Name, inst *sched.Instance, assign sched.Assignment, groups [][]int32, r *rng.Source, workers int) (prio sched.Priorities, release []int32, err error) {
	rec, ok := recipes[name]
	switch {
	case name == RandomDelays:
		return nil, nil, fmt.Errorf("heuristics: %s is layer-synchronous, not a list scheduler", name)
	case !ok:
		return nil, nil, errUnknown(name)
	case rec.fill == nil && groups != nil:
		return nil, nil, fmt.Errorf("heuristics: %s ranks tasks by one schedule of all directions and cannot run angleset-aggregated", name)
	}
	n, segs := inst.N(), inst.K()
	if groups != nil {
		segs = len(groups)
	}
	prio = ws.PrioBuf(n * segs)
	if rec.fill != nil {
		fillSegments(prio, inst, assign, groups, workers, rec.fill)
	} else if err := core.GreedyLevelPrioritiesInto(ws, prio, inst); err != nil {
		return nil, nil, err
	}
	switch rec.delays {
	case delayPriority:
		core.DelayPrioritiesInto(prio, n, core.Delays(segs, r))
	case delayRelease:
		release = core.Delays(segs, r)
	}
	return prio, release, nil
}

// Run executes the named scheduler on the instance with the given
// assignment and randomness source, computing priorities on up to workers
// goroutines (<= 0 selects GOMAXPROCS; the schedule is identical for every
// worker count). Every scheduler uses the same assignment, so C1 is
// identical across them (as in §5.2, which compares makespans only for
// that reason).
func Run(name Name, inst *sched.Instance, assign sched.Assignment, r *rng.Source, workers int) (*sched.Schedule, error) {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	dst := &sched.Schedule{}
	if err := RunInto(ws, dst, name, inst, assign, r, workers); err != nil {
		return nil, err
	}
	return dst, nil
}

// RunInto is the trial-loop form of Run: priorities and release times are
// built in the workspace's scratch buffers and the schedule lands in dst,
// so repeated runs on one instance shape allocate the k delays and the
// priority fan-out's goroutines, nothing per task. The layer-synchronous
// RandomDelays still builds its schedule afresh and copies the header
// into dst.
func RunInto(ws *sched.Workspace, dst *sched.Schedule, name Name, inst *sched.Instance, assign sched.Assignment, r *rng.Source, workers int) error {
	// Spans/counters no-op when no collector is attached (ws.SetObserver).
	col := ws.Observer()
	defer col.Span("heuristics.run.time").End()
	col.Counter("heuristics.runs").Inc()
	if name == RandomDelays {
		s, err := core.RandomDelayWithAssignment(inst, assign, r)
		if err != nil {
			return err
		}
		*dst = *s
		return nil
	}
	prio, delays, err := Inputs(ws, name, inst, assign, nil, r, workers)
	if err != nil {
		return err
	}
	var release []int32
	if delays != nil {
		release = ws.Int32Buf(inst.NTasks())
		for i, x := range delays {
			seg := release[i*inst.N() : (i+1)*inst.N()]
			for v := range seg {
				seg[v] = x
			}
		}
	}
	return sched.ListScheduleInto(ws, dst, inst, assign, prio, release)
}

type errUnknown Name

func (e errUnknown) Error() string { return "heuristics: unknown scheduler " + string(e) }
