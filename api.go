// Package sweepsched is a Go implementation of provable parallel sweep
// scheduling on unstructured meshes, after V.S. Anil Kumar, M.V. Marathe,
// S. Parthasarathy, A. Srinivasan and S. Zust, "Provable Algorithms for
// Parallel Sweep Scheduling on Unstructured Meshes" (IPDPS 2005).
//
// A sweep processes every cell of a mesh once per direction, respecting the
// upwind precedence each direction induces, with every copy of a cell
// pinned to one processor. This package exposes the full pipeline:
//
//	p, _ := sweepsched.NewProblemFromFamily("tetonly", 0.1, 24, 64, 1)
//	res, _ := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{
//		BlockSize: 64,
//		Seed:      7,
//	})
//	fmt.Println(res.Metrics.Makespan, res.Ratio, res.Metrics.C1)
//
// The schedulers include the paper's provable randomized algorithms
// (Random Delay, Random Delays with Priorities, Improved Random Delay) and
// the comparison heuristics (level, descendant, and Pautz's DFDS
// priorities, each optionally combined with random delays). Substrates —
// synthetic unstructured tetrahedral meshes, S_N-style direction sets, DAG
// induction with cycle breaking, a multilevel graph partitioner, and a
// barrier-step message-passing executor — live in internal packages and
// are reached through this API.
package sweepsched

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/lb"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/opt"
	"sweepsched/internal/partition"
	"sweepsched/internal/procrun"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/simulate"
	"sweepsched/internal/synth"
	"sweepsched/internal/trace"
	"sweepsched/internal/transport"
	"sweepsched/internal/verify"
)

// StatsCollector aggregates counters, gauges and timers from scheduling
// runs and solves; attach one via ScheduleOptions.Collector (or the
// corresponding experiment/transport config fields) and render it with
// Snapshot().WriteText or WriteJSON. See internal/obs.
type StatsCollector = obs.Collector

// NewStatsCollector returns an empty collector, safe for concurrent use.
func NewStatsCollector() *StatsCollector { return obs.New() }

// Scheduler names a scheduling algorithm. The zero value is invalid; use
// the exported constants.
type Scheduler = heuristics.Name

// The available schedulers. The first three are the paper's provable
// algorithms (§4); the rest are the §5.2 comparison heuristics.
const (
	RandomDelays         = heuristics.RandomDelays         // Algorithm 1
	RandomDelaysPriority = heuristics.RandomDelaysPriority // Algorithm 2
	ImprovedDelays       = heuristics.ImprovedDelays       // Algorithm 3 (priority form)
	Level                = heuristics.Level
	LevelDelays          = heuristics.LevelDelays
	Descendant           = heuristics.Descendant
	DescendantDelays     = heuristics.DescendantDelays
	DFDS                 = heuristics.DFDS
	DFDSDelays           = heuristics.DFDSDelays
)

// Schedulers lists every available scheduler in presentation order.
func Schedulers() []Scheduler { return heuristics.AllNames() }

// Vec3 is re-exported for custom direction sets.
type Vec3 = geom.Vec3

// Mesh is the cell-adjacency mesh consumed by the schedulers.
type Mesh = mesh.Mesh

// Problem is an immutable sweep-scheduling instance: a mesh, a direction
// set with its induced DAGs, and a processor count.
type Problem struct {
	inst *sched.Instance

	// recipe is the deterministic construction spec for family-built
	// problems (nil otherwise); the multi-process executor requires it.
	recipe *procrun.ProblemSpec

	// verifySeq numbers the audited-schedule runs on this problem for
	// ScheduleOptions.VerifyEvery sampling. It never influences scheduling
	// output, only which runs pay for the audit.
	verifySeq atomic.Uint64

	// cellGraph is the mesh's cell-adjacency graph with unit weights, what
	// every BlockSize > 1 plan partitions; the first one builds it.
	cellGraphOnce sync.Once
	cellGraph     *partition.Graph
}

// blockGraph returns the graph a block plan partitions. It is shared and
// read-only: the partitioner coarsens into graphs of its own, and a
// weight-aware plan takes a shallow copy carrying its weights (balance
// work, not cell counts).
func (p *Problem) blockGraph(weights CellWeights) *partition.Graph {
	p.cellGraphOnce.Do(func() { p.cellGraph = partition.FromMesh(p.inst.Mesh) })
	if weights == nil {
		return p.cellGraph
	}
	g := *p.cellGraph
	g.VWeight = weights
	return &g
}

// MeshFamilies lists the built-in synthetic analogues of the paper's
// meshes: tetonly, well_logging, long, prismtet.
func MeshFamilies() []string { return mesh.FamilyNames() }

// NewProblemFromFamily generates a synthetic mesh of the named family at
// scale × its paper cell count, an S_N-style direction set with k
// directions, and wraps them for m processors.
func NewProblemFromFamily(family string, scale float64, k, m int, seed uint64) (*Problem, error) {
	msh, err := mesh.Family(family, scale, seed)
	if err != nil {
		return nil, err
	}
	p, err := NewProblemFromMesh(msh, k, m)
	if err != nil {
		return nil, err
	}
	// Family-built problems remember their construction recipe, so the
	// multi-process executor can ship it to worker processes instead of
	// the mesh itself (SolveTransportProcs).
	p.recipe = &procrun.ProblemSpec{Family: family, Scale: scale, MeshSeed: seed, K: k, M: m}
	return p, nil
}

// NewProblemFromMesh builds a problem over a caller-provided mesh with a k
// direction S_N-style set.
func NewProblemFromMesh(msh *Mesh, k, m int) (*Problem, error) {
	dirs, err := quadrature.Octant(k)
	if err != nil {
		return nil, err
	}
	return NewProblemFromDirections(msh, dirs, m)
}

// NewProblemFromDirections builds a problem with explicit directions.
func NewProblemFromDirections(msh *Mesh, dirs []Vec3, m int) (*Problem, error) {
	inst, err := sched.NewInstance(msh, dirs, m)
	if err != nil {
		return nil, err
	}
	return &Problem{inst: inst}, nil
}

// NewProblemFromPrebuiltDAGs wraps a mesh, its direction set and the
// already-induced per-direction DAGs in a Problem without rebuilding
// them. This is the cache hook of internal/service: the daemon's
// DAG-family tier keeps immutable DAG sets (induced over a cached
// dag.Skeleton) and turns them into ready-to-schedule Problems here.
// dags[i] must be the DAG induced on msh by dirs[i]; all DAGs must
// cover the same cell set. msh may be nil for non-geometric families
// (block partitioning is then rejected at Schedule time, as usual).
func NewProblemFromPrebuiltDAGs(msh *Mesh, dirs []Vec3, dags []*dag.DAG, procs int) (*Problem, error) {
	if len(dirs) != len(dags) {
		return nil, fmt.Errorf("sweepsched: %d directions but %d DAGs", len(dirs), len(dags))
	}
	inst, err := sched.FromDAGs(dags, procs)
	if err != nil {
		return nil, err
	}
	if msh != nil && msh.NCells() != inst.N() {
		return nil, fmt.Errorf("sweepsched: mesh has %d cells but DAGs cover %d", msh.NCells(), inst.N())
	}
	inst.Mesh = msh
	inst.Dirs = dirs
	return &Problem{inst: inst}, nil
}

// NonGeometricKind names a synthetic DAG-family generator for instances
// with no underlying mesh (§2: the algorithms "are applicable even to
// non-geometric instances").
type NonGeometricKind string

// The available non-geometric instance families.
const (
	// RandomChains: every direction is a Hamiltonian chain over the cells
	// in an independent random order.
	RandomChains NonGeometricKind = "random_chains"
	// LayeredRandom: independent random layered DAGs of bounded width.
	LayeredRandom NonGeometricKind = "layered_random"
	// HeuristicTrap: chained cell groups that deterministic priority
	// schedulers collide on unless directions are staggered.
	HeuristicTrap NonGeometricKind = "heuristic_trap"
)

// NewProblemNonGeometric builds a mesh-free instance of the named kind with
// n cells, k directions and m processors. Block-based ScheduleOptions are
// rejected at Schedule time for such problems (there is no mesh to
// partition); use BlockSize ≤ 1.
func NewProblemNonGeometric(kind NonGeometricKind, n, k, m int, seed uint64) (*Problem, error) {
	var (
		dags []*dag.DAG
		err  error
	)
	switch kind {
	case RandomChains:
		dags, err = synth.RandomChains(n, k, seed)
	case LayeredRandom:
		dags, err = synth.LayeredRandom(n, k, 8, seed)
	case HeuristicTrap:
		g := n / 10
		if g < 1 {
			g = 1
		}
		dags, err = synth.HeuristicTrap(g, 10, k, seed)
	default:
		return nil, fmt.Errorf("sweepsched: unknown non-geometric kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	inst, err := sched.FromDAGs(dags, m)
	if err != nil {
		return nil, err
	}
	return &Problem{inst: inst}, nil
}

// N returns the number of cells.
func (p *Problem) N() int { return p.inst.N() }

// K returns the number of directions.
func (p *Problem) K() int { return p.inst.K() }

// M returns the number of processors.
func (p *Problem) M() int { return p.inst.M }

// Tasks returns n·k, the total number of unit tasks.
func (p *Problem) Tasks() int { return p.inst.NTasks() }

// Bounds returns the lower bounds on the optimal makespan.
func (p *Problem) Bounds() Bounds { return lb.Compute(p.inst) }

// Bounds aggregates the §4 lower-bound terms (nk/m, k, D).
type Bounds = lb.Bounds

// ScheduleOptions tunes one scheduling run.
type ScheduleOptions struct {
	// BlockSize ≤ 1 assigns each cell to a random processor independently;
	// larger values first partition the mesh into blocks of about this many
	// cells (multilevel partitioner, §5.1) and randomly assign blocks.
	BlockSize int
	// Seed drives all random choices (delays and assignment); runs with the
	// same seed are identical.
	Seed uint64
	// Workers bounds the goroutines used for the embarrassingly parallel
	// per-direction stages of a run — priority computation and C1/C2 metric
	// accumulation (0 = GOMAXPROCS, 1 = serial). The result is bit-for-bit
	// identical for every value: parallel stages write into slots indexed
	// by direction and all randomness is drawn from per-direction
	// substreams before any fan-out (see DESIGN.md, "Parallel execution &
	// determinism").
	Workers int
	// Verify runs the internal/verify auditor over the produced schedule —
	// an independent recomputation of every feasibility constraint and of
	// the reported metrics — and fails the run if any invariant is
	// violated. Off by default (it costs O(tasks+edges) extra per run);
	// the SWEEPSCHED_VERIFY environment variable forces it on everywhere.
	Verify bool
	// VerifyEvery samples the audit when verification is on: only every
	// Nth scheduling run on this Problem is audited (the first run always
	// is), so sustained run loops can keep the audit enabled at a
	// fraction of its cost. 0 or 1 audits every run (the historical
	// behavior). Skipped audits are counted in the Collector as
	// "api.verify_skipped". Sampling never changes scheduling output.
	VerifyEvery int
	// Collector, when non-nil, receives counters and stage timings from
	// the run (assignment, scheduling, metrics, verification and the
	// kernel-level sched.* series). A nil collector costs nothing on the
	// hot path.
	Collector *obs.Collector
	// Anglesets > 0 aggregates the per-direction pipeline: directions are
	// partitioned into about this many sign-homogeneous anglesets (octant
	// grouping, split largest-first toward the requested count, capped at
	// one direction per set), priorities and release delays are computed
	// once per angleset on its representative DAG, and the aggregated
	// kernel expands them back to per-direction task placements —
	// precedence is always enforced with every direction's own DAG.
	// Requires a problem built with an explicit direction set (geometric
	// problems); the layer-synchronous RandomDelays and ImprovedDelays
	// schedulers do not support aggregation. 0 disables aggregation (the
	// per-direction pipeline); negative values are rejected.
	Anglesets int
}

// anglesets resolves the option's requested aggregation into a direction
// partition, or nil when aggregation is off.
func (p *Problem) anglesets(opts ScheduleOptions) ([][]int32, error) {
	if opts.Anglesets == 0 {
		return nil, nil
	}
	if opts.Anglesets < 0 {
		return nil, fmt.Errorf("sweepsched: Anglesets must be >= 1, got %d", opts.Anglesets)
	}
	if len(p.inst.Dirs) != p.inst.K() {
		return nil, fmt.Errorf("sweepsched: angleset aggregation requires a problem with a direction set; this problem is non-geometric")
	}
	return quadrature.AnglesetsFor(p.inst.Dirs, opts.Anglesets)
}

// verifyOn reports whether this run has verification enabled at all.
func (o ScheduleOptions) verifyOn() bool { return o.Verify || verify.ForcedByEnv() }

// shouldVerify reports whether this particular run is audited,
// advancing the problem's VerifyEvery sampling sequence. With
// VerifyEvery ≤ 1 every verified run is audited and the sequence is
// untouched.
func (p *Problem) shouldVerify(o ScheduleOptions) bool {
	if !o.verifyOn() {
		return false
	}
	if o.VerifyEvery <= 1 {
		return true
	}
	return (p.verifySeq.Add(1)-1)%uint64(o.VerifyEvery) == 0
}

// Result is a completed scheduling run.
type Result struct {
	Schedule *sched.Schedule
	Metrics  sched.Metrics
	// Ratio is makespan / (nk/m), the paper's empirical guarantee measure.
	Ratio float64
}

// Schedule runs the named scheduler and measures the outcome. The returned
// schedule is validated; an invalid schedule is reported as an error (it
// would indicate a bug, not bad luck). ScheduleCtx adds cooperative
// cancellation between the pipeline stages.
func (p *Problem) Schedule(alg Scheduler, opts ScheduleOptions) (*Result, error) {
	return p.ScheduleCtx(context.Background(), alg, opts)
}

// ScheduleCtx is Schedule with cooperative cancellation: the context is
// observed between the pipeline's stages (assignment, scheduling,
// validation, metrics), so a cancelled run returns ctx.Err() without
// finishing the remaining stages.
func (p *Problem) ScheduleCtx(ctx context.Context, alg Scheduler, opts ScheduleOptions) (*Result, error) {
	pl, err := p.plan(ctx, alg, opts, planModel{})
	if err != nil {
		return nil, err
	}
	return pl.result(p), nil
}

// ScheduleComm runs the named scheduler under the uniform
// communication-delay model of §3: an edge whose endpoints sit on
// different processors delays the successor by commDelay extra steps.
// Only the list-scheduling algorithms support this model; the layered
// Algorithm 1 does not (its analysis assumes c = 0), so RandomDelays is
// rejected here. The *_delays schedulers contribute their priorities
// only: under this model no release delay is applied, so LevelDelays
// schedules exactly as Level does (and likewise for the other two).
func (p *Problem) ScheduleComm(alg Scheduler, opts ScheduleOptions, commDelay int) (*Result, error) {
	if alg == RandomDelays {
		return nil, fmt.Errorf("sweepsched: %s is layer-synchronous and does not support comm delays; use %s",
			RandomDelays, RandomDelaysPriority)
	}
	pl, err := p.plan(context.Background(), alg, opts, planModel{comm: true, commDelay: commDelay})
	if err != nil {
		return nil, err
	}
	return pl.result(p), nil
}

// planModel selects the machine a plan is made for: the paper's
// unit-time model (the zero value), its uniform communication-delay
// variant, or — with weights — the weighted event engine on machine.
type planModel struct {
	comm      bool
	commDelay int
	weights   CellWeights
	machine   *MachineModel
}

// planned is what the plan path produces: a unit-time schedule with its
// metrics, or a weighted schedule with its bounds.
type planned struct {
	schedule *sched.Schedule
	metrics  sched.Metrics
	weighted *sched.WeightedSchedule
	bounds   lb.WeightedBounds
}

func (pl *planned) result(p *Problem) *Result {
	return &Result{Schedule: pl.schedule, Metrics: pl.metrics, Ratio: lb.Ratio(pl.schedule.Makespan, p.inst)}
}

// plan is the one pipeline behind every scheduling entry point: assign
// cells to processors, derive the scheduler's priorities, run the
// model's kernel, validate, measure and (when sampled) audit. ctx is
// observed between the stages, and each stage reports an api.* span to
// opts.Collector.
func (p *Problem) plan(ctx context.Context, alg Scheduler, opts ScheduleOptions, mdl planModel) (*planned, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	groups, err := p.anglesets(opts)
	if err != nil {
		return nil, err
	}
	inst, col := p.inst, opts.Collector
	r := rng.New(opts.Seed)
	span := col.Span("api.assign.time")
	var assign sched.Assignment
	if opts.BlockSize <= 1 {
		assign = sched.RandomAssignment(inst.N(), inst.M, r)
	} else {
		if inst.Mesh == nil {
			return nil, fmt.Errorf("sweepsched: block partitioning requires a mesh; this problem is non-geometric (use BlockSize <= 1)")
		}
		part, nBlocks, err := partition.Blocks(p.blockGraph(mdl.weights), opts.BlockSize, opts.Seed)
		if err != nil {
			return nil, err
		}
		assign = sched.BlockAssignment(part, nBlocks, inst.M, r)
	}
	span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// The kernel's transient state comes from the shape-keyed pool; the
	// collector rides on the workspace so the sched.* kernel series lands
	// in the same snapshot as the api.* stage timings.
	ws := sched.GetWorkspace(inst)
	ws.SetObserver(col)
	defer ws.Release()
	pl := &planned{}
	span = col.Span("api.schedule.time")
	err = func() error {
		if mdl.weights == nil {
			pl.schedule = &sched.Schedule{}
		}
		if mdl.weights == nil && !mdl.comm {
			if groups != nil {
				return heuristics.RunAnglesetInto(ws, pl.schedule, alg, inst, assign, groups, r, opts.Workers)
			}
			return heuristics.RunInto(ws, pl.schedule, alg, inst, assign, r, opts.Workers)
		}
		// Neither model applies the release delays of the *_delays schedulers.
		prio, _, err := heuristics.Inputs(ws, alg, inst, assign, groups, r, opts.Workers)
		switch {
		case err != nil:
			return err
		case mdl.weights != nil:
			pl.weighted = &sched.WeightedSchedule{}
			return sched.ListScheduleWeightedInto(ws, pl.weighted, inst, assign, prio, mdl.weights, mdl.machine)
		case groups != nil:
			return sched.CommScheduleAnglesetInto(ws, pl.schedule, inst, assign, groups, prio, mdl.commDelay)
		}
		return sched.CommScheduleInto(ws, pl.schedule, inst, assign, prio, mdl.commDelay)
	}()
	if err != nil {
		return nil, err
	}
	span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if pl.weighted != nil {
		err = pl.weighted.Validate()
	} else if err = pl.schedule.Validate(); err == nil && mdl.comm {
		err = sched.ValidateComm(pl.schedule, mdl.commDelay)
	}
	if err != nil {
		return nil, fmt.Errorf("sweepsched: scheduler %s produced an invalid schedule: %w", alg, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	span = col.Span("api.metrics.time")
	if pl.weighted != nil {
		pl.bounds = lb.ComputeWeighted(inst, mdl.weights, mdl.machine)
	} else if met, ok := ws.Metrics(); ok {
		pl.metrics = met // counted on the step core's own edge walk
	} else {
		// The layer-synchronous random_delays never runs the step core.
		pl.metrics = sched.Measure(pl.schedule, opts.Workers)
	}
	span.End()

	if !p.shouldVerify(opts) {
		if opts.verifyOn() {
			col.Counter("api.verify_skipped").Inc()
		}
		return pl, nil
	}
	span = col.Span("api.verify.time")
	if pl.weighted != nil {
		err = verify.Weighted(inst, pl.weighted)
	} else {
		err = verify.Schedule(inst, pl.schedule, verify.Opts{CommDelay: mdl.commDelay, Metrics: &pl.metrics, Anglesets: groups})
	}
	span.End()
	if err != nil {
		return nil, fmt.Errorf("sweepsched: scheduler %s failed the schedule audit: %w", alg, err)
	}
	col.Counter("api.verified").Inc()
	return pl, nil
}

// RenderGantt writes a text Gantt chart of the result's schedule.
func (r *Result) RenderGantt(w io.Writer, maxProcs, maxCols int) error {
	return trace.RenderGantt(w, r.Schedule, maxProcs, maxCols)
}

// Utilization returns mean processor utilization (tasks / (m·makespan)),
// the reciprocal of the ratio to the nk/m bound.
func (r *Result) Utilization() float64 {
	return trace.Compute(r.Schedule).MeanUtilization
}

// CellWeights re-exports per-cell processing costs for weighted runs.
type CellWeights = sched.CellWeights

// MachineModel re-exports the weighted engine's machine description:
// per-processor speeds and two-level hierarchical communication delays.
// A nil model is the paper's uniform machine.
type MachineModel = sched.MachineModel

// WeightedResult is a completed weighted scheduling run.
type WeightedResult struct {
	Schedule *sched.WeightedSchedule
	Makespan int64
	// Ratio is makespan over the speed-aware load bound Σ k·w / Σ speed —
	// the weighted analogue of the paper's plotted nk/m baseline.
	Ratio float64
	// Bounds carries every weighted lower-bound term (load, per-cell,
	// critical path); StrongRatio is makespan over Bounds.Max(), the
	// tightest empirical approximation factor.
	Bounds      lb.WeightedBounds
	StrongRatio float64
}

// ScheduleWeighted runs the named scheduler with per-cell processing costs
// on the uniform machine (the paper's model is the all-ones special case).
// RandomDelays (the layer-synchronous Algorithm 1) is not supported; use
// the priority form.
func (p *Problem) ScheduleWeighted(alg Scheduler, opts ScheduleOptions, weights CellWeights) (*WeightedResult, error) {
	return p.ScheduleWeightedMachine(alg, opts, weights, nil)
}

// ScheduleWeightedMachine is ScheduleWeighted under a machine model:
// per-processor integer speeds (duration = ceil(w/speed)) and two-level
// hierarchical communication delays. A nil model is the uniform machine.
func (p *Problem) ScheduleWeightedMachine(alg Scheduler, opts ScheduleOptions, weights CellWeights, model *MachineModel) (*WeightedResult, error) {
	if alg == RandomDelays {
		return nil, fmt.Errorf("sweepsched: %s is layer-synchronous and has no weighted form; use %s",
			RandomDelays, RandomDelaysPriority)
	}
	if opts.Anglesets != 0 {
		return nil, fmt.Errorf("sweepsched: the weighted scheduler has no angleset-aggregated form")
	}
	if err := weights.Validate(p.inst.N()); err != nil {
		return nil, err
	}
	if err := model.Validate(p.inst.M); err != nil {
		return nil, err
	}
	pl, err := p.plan(context.Background(), alg, opts, planModel{weights: weights, machine: model})
	if err != nil {
		return nil, err
	}
	s := pl.weighted
	return &WeightedResult{
		Schedule:    s,
		Makespan:    s.Makespan,
		Ratio:       float64(s.Makespan) / pl.bounds.Load,
		Bounds:      pl.bounds,
		StrongRatio: lb.WeightedRatio(s.Makespan, pl.bounds),
	}, nil
}

// LogNormalWeights draws reproducible heterogeneous cell costs: weight ≈
// round(median · exp(sigma·N(0,1))) + 1, saturating at math.MaxInt32.
// Useful for exercising the weighted engine on realistic skewed cost
// distributions.
func LogNormalWeights(n int, median, sigma float64, seed uint64) CellWeights {
	r := rng.New(seed)
	w := make(CellWeights, n)
	for v := range w {
		switch x := median * math.Exp(sigma*r.NormFloat64()); {
		case x < 0:
			w[v] = 1
		case x < math.MaxInt32:
			w[v] = int32(x) + 1
		default: // past int32, +Inf or NaN
			w[v] = math.MaxInt32
		}
	}
	return w
}

// ExactOptimal computes the true optimal makespan by exhaustive search
// over assignments and schedules. It only works for tiny instances
// (n·k ≤ 20 tasks) and errors otherwise; use it to measure real
// approximation ratios where the paper could only compare against nk/m.
func (p *Problem) ExactOptimal() (int, error) {
	return opt.Exact(p.inst)
}

// TransportConfig sets the physics and iteration controls of the built-in
// discrete-ordinates transport solver.
type TransportConfig = transport.Config

// TransportResult is a converged (or iteration-capped) transport solve.
type TransportResult = transport.Result

// SolveTransport runs the S_N transport source iteration serially, sweeping
// the mesh in the result's schedule order. This is the application the
// schedules exist to drive (paper §1).
func (p *Problem) SolveTransport(res *Result, cfg TransportConfig) (*TransportResult, error) {
	return transport.Solve(res.Schedule, cfg)
}

// SolveTransportParallel runs the same solve on the machine the schedule
// was made for: its m processors are modelled — each owns its cells'
// fluxes and sees another processor's only through the interconnect —
// and stepped barrier-synchronously by one shared driver, a loop on the
// caller's goroutine that runs a step's processors in ascending order
// (no goroutine per processor; what is modelled is the machine's data
// flow and traffic, not its speed). Fluxes cross through the batched
// interconnect (deadline-driven per-destination envelopes; set
// TransportConfig.NoBatch for one delivery per message), handed over at
// the barrier between steps, where every per-processor count is also
// folded in processor order — so the result is bitwise-identical to
// SolveTransport, and TransportResult.Comm (the observed traffic) is the
// same on either interconnect but for the transmissions.
func (p *Problem) SolveTransportParallel(res *Result, cfg TransportConfig) (*TransportResult, error) {
	return transport.SolveParallel(res.Schedule, cfg)
}

// MultigroupConfig couples several energy groups through downscatter; see
// the transport package documentation.
type MultigroupConfig = transport.MultigroupConfig

// GroupSpec is one energy group's physics in a multigroup solve.
type GroupSpec = transport.GroupSpec

// MultigroupResult collects per-group fluxes and iteration counts.
type MultigroupResult = transport.MultigroupResult

// SolveMultigroup solves a downscatter-coupled multigroup transport
// problem, reusing the result's sweep schedule for every energy group (as
// production S_N codes do — the schedule's cost is amortized G times).
func (p *Problem) SolveMultigroup(res *Result, cfg MultigroupConfig) (*MultigroupResult, error) {
	return transport.SolveMultigroup(res.Schedule, cfg)
}

// Simulate executes a result's schedule on the message-passing machine
// simulator — the same barrier-step driver as SolveTransportParallel,
// with one delivery per message and no arithmetic: a task runs only if
// every upwind flux was completed locally or delivered — and returns its
// independent accounting (steps, total messages = C1, communication
// rounds = C2).
func (p *Problem) Simulate(res *Result) (*SimulationResult, error) {
	return simulate.Run(res.Schedule)
}

// SimulationResult reports a distributed execution.
type SimulationResult = simulate.Result

// DirectionLevels returns the number of precedence levels in each
// direction's DAG; the maximum is the critical-path lower bound D.
func (p *Problem) DirectionLevels() []int {
	out := make([]int, p.inst.K())
	for i, d := range p.inst.DAGs {
		out[i] = d.NumLevels
	}
	return out
}

// BrokenCycleEdges reports how many dependence edges were discarded per
// direction to acyclify the induced digraphs (§3 assumes broken cycles).
func (p *Problem) BrokenCycleEdges() []int {
	out := make([]int, p.inst.K())
	for i, d := range p.inst.DAGs {
		out[i] = d.RemovedEdges
	}
	return out
}

// GenerateFamilyMesh exposes the synthetic mesh generator directly for
// callers that want to inspect the mesh (cmd/meshgen, examples).
func GenerateFamilyMesh(family string, scale float64, seed uint64) (*Mesh, error) {
	return mesh.Family(family, scale, seed)
}

// RegularGrid returns a structured nx×ny×nz hexahedral mesh, the substrate
// for KBA-style comparisons.
func RegularGrid(nx, ny, nz int) *Mesh { return mesh.RegularHex(nx, ny, nz) }

// EncodeTrace writes the result's schedule as a plain-text trace viewable
// with cmd/sweepview.
func EncodeTrace(w io.Writer, r *Result) error { return sched.EncodeTrace(w, r.Schedule) }

// EncodeMesh writes a tetrahedral mesh in the plain-text sweepmesh format.
func EncodeMesh(w io.Writer, m *Mesh) error { return mesh.Encode(w, m) }

// DecodeMesh reads a sweepmesh stream and rebuilds the mesh (faces,
// normals, adjacency).
func DecodeMesh(r io.Reader) (*Mesh, error) { return mesh.Decode(r) }

// Task identifies one unit of sweep work: cell Cell processed in direction
// Dir.
type Task struct {
	Cell, Dir int
	// Start is the schedule step at which the task runs (set by
	// ExecutionOrder).
	Start int
}

// ExecutionOrder returns every task sorted by scheduled start step (ties by
// direction, then cell). Processing tasks in this order is a valid
// execution of all sweeps: each task appears after all of its upwind
// predecessors, which is what a solver consuming the schedule needs.
func (r *Result) ExecutionOrder() []Task {
	inst := r.Schedule.Inst
	tasks := make([]Task, inst.NTasks())
	for t := range tasks {
		v, i := inst.Split(sched.TaskID(t))
		tasks[t] = Task{Cell: int(v), Dir: int(i), Start: int(r.Schedule.Start[t])}
	}
	sort.Slice(tasks, func(a, b int) bool {
		ta, tb := tasks[a], tasks[b]
		if ta.Start != tb.Start {
			return ta.Start < tb.Start
		}
		if ta.Dir != tb.Dir {
			return ta.Dir < tb.Dir
		}
		return ta.Cell < tb.Cell
	})
	return tasks
}

// Upwind returns the cells immediately upwind of cell in the given
// direction — the predecessors whose angular flux a transport solver needs
// before solving this cell. The returned slice aliases internal storage and
// must not be modified.
func (p *Problem) Upwind(cell, dir int) []int32 {
	return p.inst.DAGs[dir].In(int32(cell))
}

// Downwind returns the cells immediately downwind of cell in the given
// direction. The returned slice aliases internal storage and must not be
// modified.
func (p *Problem) Downwind(cell, dir int) []int32 {
	return p.inst.DAGs[dir].Out(int32(cell))
}

// Processor returns the processor a result assigned to the given cell.
func (r *Result) Processor(cell int) int { return int(r.Schedule.Assign[cell]) }
