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
	"errors"
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
// member direction's). One worker fills them in a plain loop, without
// the closure par.ForEach takes, which is a heap allocation.
func fillSegments(prio sched.Priorities, inst *sched.Instance, assign sched.Assignment, groups [][]int32, workers int, fill segmentFill) {
	segs := inst.K()
	if groups != nil {
		segs = len(groups)
	}
	if par.Workers(workers) == 1 {
		for s := range segs {
			fillSegment(prio, inst, assign, groups, s, fill)
		}
		return
	}
	_ = par.ForEach(segs, workers, func(s int) error {
		fillSegment(prio, inst, assign, groups, s, fill)
		return nil
	})
}

// fillSegment fills segment s of prio, as fillSegments says.
func fillSegment(prio sched.Priorities, inst *sched.Instance, assign sched.Assignment, groups [][]int32, s int, fill segmentFill) {
	n, rep := inst.N(), s
	if groups != nil {
		rep = int(groups[s][0])
	}
	fill(prio[s*n:(s+1)*n], inst.DAGs[rep], assign)
}

// LevelPrioritiesInto fills a caller-provided priority slice (len =
// NTasks) with Γ(v,i) = level_i(v); list scheduling prefers smaller
// values, matching the paper's "smaller priorities preferred". Trial
// loops pass the workspace's PrioBuf.
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

// recipes is the scheduler lineup as data: every algorithm is a base
// priority per task plus a use for the delays. A nil fill stands for
// Algorithm 3's Graham preprocessing levels, which are global to all k
// directions and so have no per-angleset form. A layered recipe is
// Algorithm 1: its priorities are the tasks' layers, and its rule carries
// their floors and is sched.Rule.Layered, which the layered kernel runs.
var recipes = map[Name]struct {
	fill    segmentFill
	delays  delayUse
	layered bool
}{
	RandomDelays:         {levelFill, delayPriority, true},
	RandomDelaysPriority: {levelFill, delayPriority, false},
	ImprovedDelays:       {nil, delayPriority, false},
	Level:                {levelFill, noDelays, false},
	LevelDelays:          {levelFill, delayRelease, false},
	Descendant:           {descendantFill, noDelays, false},
	DescendantDelays:     {descendantFill, delayRelease, false},
	DFDS:                 {dfdsFill, noDelays, false},
	DFDSDelays:           {dfdsFill, delayRelease, false},
}

// Model is what a plan is asked to run under, as far as it is known
// before anything is built. The zero Model is the paper's: unit tasks, no
// communication delay, per-direction priorities, cells assigned one by
// one, on a mesh.
type Model struct {
	Anglesets    bool // priorities once per angleset (ScheduleOptions.Anglesets > 0)
	CommDelay    bool // the uniform communication-delay model of §3
	Weighted     bool // heterogeneous cell costs on the weighted engine
	Blocks       bool // cells assigned by block partition (BlockSize > 1)
	NonGeometric bool // no mesh and no direction set (synthetic DAGs)
}

// Check refuses a scheduler under a model it cannot run under; it is the
// one place that says which scheduler runs under which model, read off
// the recipe columns. Algorithm 1 (a layered recipe) is layer-synchronous
// and analysed at c = 0, so it has no comm-delay, weighted or angleset
// form; Algorithm 3's Graham levels (a nil fill) rank all k directions at
// once, so it has no angleset form; the weighted engine has its own
// machine model and no angleset form; and blocks and anglesets need a
// mesh and its directions. Check builds nothing, so a caller runs it
// before any assignment, partition or priority.
func Check(name Name, mdl Model) error {
	rec, ok := recipes[name]
	switch {
	case !ok:
		return errUnknown(name)
	case mdl.Blocks && mdl.NonGeometric:
		return errors.New("heuristics: block partitioning requires a mesh; this problem is non-geometric (use block size <= 1)")
	case mdl.Anglesets && mdl.NonGeometric:
		return errors.New("heuristics: angleset aggregation requires a direction set; this problem is non-geometric (use anglesets = 0)")
	case mdl.Weighted && mdl.CommDelay:
		return errors.New("heuristics: the weighted engine models communication through its machine, not a comm delay")
	case mdl.Weighted && mdl.Anglesets:
		return errors.New("heuristics: the weighted engine has no angleset-aggregated form (use anglesets = 0)")
	case rec.layered && mdl.CommDelay:
		return fmt.Errorf("heuristics: %s is layer-synchronous and does not support comm delays; use %s", name, RandomDelaysPriority)
	case rec.layered && mdl.Weighted:
		return fmt.Errorf("heuristics: %s is layer-synchronous and has no weighted form; use %s", name, RandomDelaysPriority)
	case rec.layered && mdl.Anglesets:
		return fmt.Errorf("heuristics: %s runs layer by layer on each direction's own levels and cannot run angleset-aggregated; use %s", name, RandomDelaysPriority)
	case rec.fill == nil && mdl.Anglesets:
		return fmt.Errorf("heuristics: %s ranks tasks by one Graham schedule of all directions and cannot run angleset-aggregated; use %s", name, RandomDelaysPriority)
	}
	return nil
}

// Rule is what the named scheduler feeds its kernel, in the workspace's
// scratch buffers (valid until its next run or Release): one priority
// per task — or, with an angleset partition, one per (angleset, cell),
// computed on each angleset's representative DAG — and release floors,
// one per task (one per angleset with the partition): the delays of the
// *_delays schedulers, random_delays' layer floors, nil for the rest. The
// delays are the only draw from r, one core.Delays call over the
// segments, made after the priorities are filled. A scheduler Check
// refuses angleset-aggregated gets no rule with groups.
func Rule(ws *sched.Workspace, name Name, inst *sched.Instance, assign sched.Assignment, groups [][]int32, r *rng.Source, workers int) (sched.Rule, error) {
	if err := Check(name, Model{Anglesets: groups != nil}); err != nil {
		return sched.Rule{}, err
	}
	rec := recipes[name]
	n, segs := inst.N(), inst.K()
	if groups != nil {
		if err := sched.ValidateAnglesets(groups, segs); err != nil {
			return sched.Rule{}, err
		}
		segs = len(groups)
	}
	rule := sched.Rule{Prio: ws.PrioBuf(n * segs), Anglesets: groups}
	if rec.fill != nil {
		fillSegments(rule.Prio, inst, assign, groups, workers, rec.fill)
	} else if err := core.GreedyLevelPrioritiesInto(ws, rule.Prio, inst); err != nil {
		return sched.Rule{}, err
	}
	switch rec.delays {
	case delayPriority:
		core.DelayPrioritiesInto(rule.Prio, n, core.Delays(segs, r))
	case delayRelease:
		rule.Release = core.Delays(segs, r)
		if groups == nil {
			rule.Release = expandDelays(ws.Int32Buf(inst.NTasks()), rule.Release, n)
		}
	}
	if rec.layered {
		return layerFloors(ws, rule, inst, assign)
	}
	return rule, nil
}

// layerFloors makes rule Layered: the floors of rule.Prio's layers go in
// rule.Release.
func layerFloors(ws *sched.Workspace, rule sched.Rule, inst *sched.Instance, assign sched.Assignment) (sched.Rule, error) {
	rule.Release, rule.Layered = ws.Int32Buf(inst.NTasks()), true
	if err := sched.LayerFloorsInto(ws, rule.Release, inst, assign, rule.Prio); err != nil {
		return sched.Rule{}, err
	}
	return rule, nil
}

// expandDelays writes direction i's delay into its n floors of release.
func expandDelays(release, delays []int32, n int) []int32 {
	for i, x := range delays {
		seg := release[i*n : (i+1)*n]
		for v := range seg {
			seg[v] = x
		}
	}
	return release
}

// Run executes the named scheduler on the instance with the given
// assignment and randomness source, computing priorities on up to workers
// goroutines (<= 0 selects GOMAXPROCS; the schedule is identical for every
// worker count). Every scheduler uses the same assignment, so C1 is
// identical across them (as in §5.2, which compares makespans only for
// that reason).
func Run(name Name, inst *sched.Instance, assign sched.Assignment, r *rng.Source, workers int) (*sched.Schedule, error) {
	return run(name, false, inst, assign, r, workers)
}

// RunLayered runs the named scheduler's priorities as layers: its rule
// with each task's layer floor, on the layered kernel. Layered Algorithm 3
// is improved_delays run so, as random_delays is random_delays_priority.
func RunLayered(name Name, inst *sched.Instance, assign sched.Assignment, r *rng.Source, workers int) (*sched.Schedule, error) {
	return run(name, true, inst, assign, r, workers)
}

func run(name Name, layered bool, inst *sched.Instance, assign sched.Assignment, r *rng.Source, workers int) (*sched.Schedule, error) {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	rule, err := Rule(ws, name, inst, assign, nil, r, workers)
	if err == nil && layered && !rule.Layered {
		rule, err = layerFloors(ws, rule, inst, assign)
	}
	if err != nil {
		return nil, err
	}
	dst := &sched.Schedule{}
	if err := ws.Schedule(dst, inst, assign, rule); err != nil {
		return nil, err
	}
	return dst, nil
}

type errUnknown Name

func (e errUnknown) Error() string {
	return fmt.Sprintf("heuristics: unknown scheduler %q (want one of %v)", string(e), AllNames())
}
