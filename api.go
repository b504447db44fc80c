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
// are reached through this API. The package's Examples (quickstart,
// transport, scaling, partitioning, nongeometric) are its worked uses;
// go test runs each and checks its output.
//
// Each operation has one exported form. Only planning has a context-free
// twin: Schedule beside ScheduleCtx, which the daemon uses to cancel plans.
package sweepsched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

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

	// cellGraph is the mesh's cell-adjacency graph with unit weights, what
	// every BlockSize > 1 plan partitions; the first one builds it.
	cellGraphOnce sync.Once
	cellGraph     *partition.Graph

	// blocks is the last unit-weight block partition a plan drew, which
	// the next plan with its block size and seed assigns from (blocksFor).
	blocksMu sync.Mutex
	blocks   blockPartition
}

// blockPartition is a partition of the cell graph into blocks, and what
// drew it: the block size and the seed. Plans only read it.
type blockPartition struct {
	size    int
	seed    uint64
	part    []int32
	nBlocks int
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

// blocksFor returns the block partition a plan with the block size, seed
// and cell weights assigns from. The last one drawn with unit weights is
// kept: the columns of one (row, trial) of a figure plan on one seed, so
// their block plans partition once. A weighted plan balances the caller's
// weights, which may change between plans, and always partitions afresh.
// Two plans that miss at once both partition; the later one is kept.
func (p *Problem) blocksFor(blockSize int, seed uint64, weights CellWeights) ([]int32, int, error) {
	if weights != nil {
		return partition.Blocks(p.blockGraph(weights), blockSize, seed)
	}
	p.blocksMu.Lock()
	last := p.blocks
	p.blocksMu.Unlock()
	if last.part != nil && last.size == blockSize && last.seed == seed {
		return last.part, last.nBlocks, nil
	}
	part, nBlocks, err := partition.Blocks(p.blockGraph(nil), blockSize, seed)
	if err != nil {
		return nil, 0, err
	}
	p.blocksMu.Lock()
	p.blocks = blockPartition{size: blockSize, seed: seed, part: part, nBlocks: nBlocks}
	p.blocksMu.Unlock()
	return part, nBlocks, nil
}

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
	// stages of a run (0 = GOMAXPROCS, 1 = serial): the per-direction
	// priority computation, and the feasibility tail — Validate split by
	// direction and by processor, with the audit on a goroutine
	// beside it — once the instance is large enough to pay for the
	// hand-off. The result is bit-for-bit identical for every value:
	// parallel stages write into slots indexed by direction or processor,
	// all randomness is drawn from per-direction substreams before any
	// fan-out, and the tail reports the error a serial run would (see
	// DESIGN.md, "Determinism").
	Workers int
	// Verify runs the internal/verify auditor over the produced schedule —
	// an independent recomputation of every feasibility constraint and of
	// the reported metrics — and fails the run if any invariant is
	// violated. Off by default (it costs O(tasks+edges) extra per run);
	// the SWEEPSCHED_VERIFY environment variable forces it on everywhere.
	Verify bool
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
	// kernel expands them to per-direction inputs for the per-direction
	// kernel — precedence is always enforced with every direction's own
	// DAG.
	// Which schedulers and problems aggregate is heuristics.Check's to
	// say. 0 disables aggregation (the per-direction pipeline); negative
	// values are rejected.
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
	return quadrature.AnglesetsFor(p.inst.Dirs, opts.Anglesets)
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
// metrics, validation), so a cancelled run returns ctx.Err() without
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
// heuristics.Check says which schedulers run under this model. The
// *_delays schedulers contribute their priorities only: under this model
// no release delay is applied, so LevelDelays schedules exactly as Level
// does (and likewise for the other two).
//
// The schedule records commDelay (Schedule.CommDelay): Validate holds its
// edges to it, and a fault-injected run of it (SimulateFaulty,
// SolveTransportFaultTolerant) reschedules after a crash or stall under
// the same delay, ranking the residual tasks by level instead of the
// scheduler's priorities. At the cut a done predecessor owes no wait, so
// such a run can take fewer steps than the fault-free one.
func (p *Problem) ScheduleComm(alg Scheduler, opts ScheduleOptions, commDelay int) (*Result, error) {
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

// kernelFault, when a test sets it, edits each unit-step plan's schedule
// and metrics after its kernel run, before validation and the audit,
// given the rule the kernel ran — standing in for a faulty kernel the
// feasibility tail must catch.
var kernelFault func(s *sched.Schedule, met *sched.Metrics, rule sched.Rule)

// plan is the one pipeline behind every scheduling entry point: refuse a
// scheduler the model does not run (heuristics.Check), assign cells to
// processors, derive the scheduler's priorities, run the model's kernel,
// measure, then validate and (under Verify) audit. ctx is observed
// between the stages, and each stage but validation reports an api.*
// span to opts.Collector.
func (p *Problem) plan(ctx context.Context, alg Scheduler, opts ScheduleOptions, mdl planModel) (*planned, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	inst, col := p.inst, opts.Collector
	err := heuristics.Check(alg, heuristics.Model{
		Anglesets:    opts.Anglesets > 0,
		CommDelay:    mdl.comm,
		Weighted:     mdl.weights != nil,
		Blocks:       opts.BlockSize > 1,
		NonGeometric: inst.Mesh == nil,
	})
	if err != nil {
		return nil, err
	}
	groups, err := p.anglesets(opts)
	if err != nil {
		return nil, err
	}
	r := rng.New(opts.Seed)
	span := col.Span("api.assign.time")
	var assign sched.Assignment
	if opts.BlockSize <= 1 {
		assign = sched.RandomAssignment(inst.N(), inst.M, r)
	} else {
		part, nBlocks, err := p.blocksFor(opts.BlockSize, opts.Seed, mdl.weights)
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
	// rule is what the kernel runs: the scheduler's priorities and floors
	// (per task, or per angleset with groups) in ws's scratch, and the
	// model's delay. Neither the comm model nor the weighted engine applies
	// the floors of the *_delays schedulers.
	var rule sched.Rule
	span = col.Span("api.schedule.time")
	err = func() (err error) {
		if rule, err = heuristics.Rule(ws, alg, inst, assign, groups, r, opts.Workers); err != nil {
			return err
		}
		if mdl.weights != nil {
			pl.weighted = &sched.WeightedSchedule{}
			return sched.ListScheduleWeightedInto(ws, pl.weighted, inst, assign, rule.Prio, mdl.weights, mdl.machine)
		}
		if mdl.comm {
			rule.Release, rule.CommDelay = nil, mdl.commDelay
		}
		pl.schedule = &sched.Schedule{}
		return ws.Schedule(pl.schedule, inst, assign, rule)
	}()
	if err != nil {
		return nil, err
	}
	span.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	span = col.Span("api.metrics.time")
	if pl.weighted != nil {
		pl.bounds = lb.ComputeWeighted(inst, mdl.weights, mdl.machine)
	} else {
		pl.metrics, _ = ws.Metrics() // counted on the kernel's own edge walk
	}
	span.End()
	if kernelFault != nil && pl.schedule != nil {
		kernelFault(pl.schedule, &pl.metrics, rule)
	}

	// The feasibility tail: Validate always, the audit when verification
	// is on. On an instance large enough to pay for the hand-off the audit
	// runs on a goroutine of its own beside Validate; either way an
	// invalid schedule outranks cancellation, which outranks a failed
	// audit.
	audited := opts.Verify || verify.ForcedByEnv()
	var auditErr error
	audit := func() {
		span := col.Span("api.verify.time")
		if pl.weighted != nil {
			auditErr = verify.Weighted(inst, pl.weighted)
		} else {
			vo := verify.RuleOpts(rule)
			vo.Metrics = &pl.metrics
			auditErr = verify.Schedule(inst, pl.schedule, vo)
		}
		span.End()
	}
	workers := inst.TailWorkers(opts.Workers)
	var beside chan struct{}
	if audited && workers > 1 {
		beside = make(chan struct{})
		go func() {
			defer close(beside)
			audit()
		}()
		workers--
	}
	if pl.weighted != nil {
		err = pl.weighted.ValidateWorkers(workers)
	} else {
		err = pl.schedule.ValidateWorkers(workers)
	}
	if beside != nil {
		<-beside
	}
	if err != nil {
		return nil, fmt.Errorf("sweepsched: scheduler %s produced an invalid schedule: %w", alg, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !audited {
		return pl, nil
	}
	if beside == nil {
		audit()
	}
	if auditErr != nil {
		return nil, fmt.Errorf("sweepsched: scheduler %s failed the schedule audit: %w", alg, auditErr)
	}
	col.Counter("api.verified").Inc()
	return pl, nil
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

// ScheduleWeightedMachine runs the named scheduler with per-cell
// processing costs (the paper's model is the all-ones special case) on a
// machine model: per-processor integer speeds (duration = ceil(w/speed))
// and two-level hierarchical communication delays. A nil model is the
// uniform machine. heuristics.Check says which schedulers have a weighted
// form.
func (p *Problem) ScheduleWeightedMachine(alg Scheduler, opts ScheduleOptions, weights CellWeights, model *MachineModel) (*WeightedResult, error) {
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

// scheduleOf returns the schedule of res, refused when another problem
// produced it: every method that executes a result runs the schedule's own
// instance, so a foreign result would silently sweep the other mesh.
func (p *Problem) scheduleOf(res *Result) (*sched.Schedule, error) {
	if res.Schedule.Inst != p.inst {
		return nil, errors.New("sweepsched: the result was scheduled on another problem")
	}
	return res.Schedule, nil
}

// SolveTransport runs the S_N transport source iteration serially, sweeping
// the mesh in the result's schedule order. This is the application the
// schedules exist to drive (paper §1).
func (p *Problem) SolveTransport(res *Result, cfg TransportConfig) (*TransportResult, error) {
	s, err := p.scheduleOf(res)
	if err != nil {
		return nil, err
	}
	return transport.SolveCtx(context.Background(), s, cfg)
}

// SolveTransportParallel runs the same solve on the machine the schedule
// was made for: its m processors are modelled — each owns its cells'
// fluxes and sees another processor's only through the interconnect —
// and stepped barrier-synchronously by the fault engine with an empty
// plan (SolveTransportFaultTolerant with a nil plan, its report dropped),
// a loop on the caller's goroutine that runs a step's processors in
// ascending order (no goroutine per processor; what is modelled is the
// machine's data flow and traffic, not its speed). The first sweep steps
// the machine and counts its traffic; every later one has nothing left to
// decide and runs flat, a large one with its directions split into
// blocks that run side by side on up to GOMAXPROCS goroutines, since a
// direction reads no other's fluxes. Fluxes cross through the batched
// interconnect (deadline-driven per-destination envelopes; set
// TransportConfig.NoBatch for one delivery per message), handed over at
// the barrier between steps, where every per-processor count is also
// folded in processor order — so the result is bitwise-identical to
// SolveTransport, at every GOMAXPROCS, and
// TransportResult.Comm (the observed traffic) is the same on either
// interconnect but for the transmissions. An infeasible schedule is
// refused with the engine's error.
func (p *Problem) SolveTransportParallel(res *Result, cfg TransportConfig) (*TransportResult, error) {
	s, err := p.scheduleOf(res)
	if err != nil {
		return nil, err
	}
	tr, _, err := transport.SolveFaultTolerant(context.Background(), s, cfg, nil)
	return tr, err
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
	s, err := p.scheduleOf(res)
	if err != nil {
		return nil, err
	}
	return transport.SolveMultigroup(s, cfg)
}

// Simulate executes a result's schedule on the modelled machine — the
// same barrier-step machine as SolveTransportParallel, the fault engine
// with an empty plan, with one delivery per message and every flux zero
// (transport.DependencyOnly): a task runs only if every upwind flux was
// completed locally or delivered — and returns its independent accounting
// (steps executed, total messages = C1, communication rounds = C2). It is
// SimulateFaulty with no fault plan.
func (p *Problem) Simulate(res *Result) (*SimulationResult, error) {
	sim, _, err := p.SimulateFaulty(context.Background(), res, nil)
	return sim, err
}

// SimulationResult reports a distributed execution.
type SimulationResult struct {
	Steps         int   // barrier steps executed (== schedule makespan when fault-free)
	TotalMessages int64 // messages sent across processors (== C1)
	CommRounds    int64 // Σ_step max_p (messages sent by p at that step) == C2
}

// EncodeTrace writes the result's schedule as a plain-text trace viewable
// with cmd/sweepview.
func EncodeTrace(w io.Writer, r *Result) error { return sched.EncodeTrace(w, r.Schedule) }

// DecodeMesh reads a sweepmesh stream and rebuilds the mesh (faces,
// normals, adjacency).
func DecodeMesh(r io.Reader) (*Mesh, error) { return mesh.Decode(r) }
