package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sweepsched"
	"sweepsched/internal/core"
	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/lb"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/partition"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// rung is one way of using the scheduling layer: a scheduler with its
// assignment and machine-model options.
type rung struct {
	alg       sweepsched.Scheduler
	block     int  // cells per block; <= 1 assigns every cell at random
	anglesets int  // > 0 aggregates directions into about this many sets
	comm      int  // > 0 schedules under this uniform communication delay
	weighted  bool // log-normal cell weights on the heterogeneous machine
}

// planParams sizes a plan workload. One warm pass plans every rung once;
// a cold plan builds a fresh Problem from the mesh in hand and runs the
// first rung audited.
type planParams struct {
	family     string
	scale      float64
	k, m       int
	rungs      []rung
	coldPlans  int // cold plans per round
	warmPasses int // warm passes per round
}

func planCellParams(smoke bool) planParams {
	p := planParams{
		family: "tetonly", scale: 1.0, k: 24, m: 64, coldPlans: 1, warmPasses: 3,
		rungs: []rung{{alg: sweepsched.RandomDelaysPriority}},
	}
	if smoke {
		p.scale, p.k, p.m, p.warmPasses = 0.02, 8, 8, 1
	}
	return p
}

func planLadderParams(smoke bool) planParams {
	p := planParams{
		family: "well_logging", scale: 0.1, k: 24, m: 8, coldPlans: 3, warmPasses: 2,
		rungs: []rung{
			{alg: sweepsched.DescendantDelays, block: 8},
			{alg: sweepsched.DFDSDelays, block: 8, comm: 4},
			{alg: sweepsched.DescendantDelays, block: 8, anglesets: 8},
			{alg: sweepsched.ImprovedDelays, block: 8},
			{alg: sweepsched.DescendantDelays, block: 8, weighted: true},
		},
	}
	if smoke {
		p.scale, p.k, p.m, p.coldPlans, p.warmPasses = 0.02, 8, 16, 1, 1
		for i := range p.rungs {
			p.rungs[i].block = 8
		}
	}
	return p
}

// planState is what a plan workload's set-up leaves resident.
type planState struct {
	msh     *mesh.Mesh
	dirs    []geom.Vec3
	p       *sweepsched.Problem
	weights sweepsched.CellWeights
	model   *sweepsched.MachineModel

	// The traced run builds the instance stage by stage; p wraps the
	// same DAGs, so the API and the staged pipeline plan one problem.
	skel *dag.Skeleton
	dags []*dag.DAG
	inst *sched.Instance
}

// machineFor is the ladder's heterogeneous machine: speeds 1,2,4 cycled
// over the processors, groups of 16 with a cheap intra-group and a
// dearer cross-group delay.
func machineFor(m int) *sweepsched.MachineModel {
	mm := &sweepsched.MachineModel{
		Speeds: make([]int32, m), Group: make([]int32, m),
		IntraDelay: 1, CrossDelay: 4,
	}
	for p := 0; p < m; p++ {
		mm.Speeds[p] = []int32{1, 2, 4}[p%3]
		mm.Group[p] = int32(p / 16)
	}
	return mm
}

// planOut is one plan's paper metrics, plus its encoded schedule when
// the caller asked for the byte-identity check.
type planOut struct {
	ratio   float64
	c1, c2  int64
	hasComm bool // C1 and C2 are unit-task notions: the weighted rung has none
	enc     []byte
}

// planAPI plans one rung through the package's public entry points.
func planAPI(p *sweepsched.Problem, st *planState, rg rung, seed uint64, audit, encode bool, col *obs.Collector) (planOut, error) {
	opts := sweepsched.ScheduleOptions{
		BlockSize: rg.block, Seed: seed, Verify: audit, Anglesets: rg.anglesets, Collector: col,
	}
	if rg.weighted {
		res, err := p.ScheduleWeightedMachine(rg.alg, opts, st.weights, st.model)
		if err != nil {
			return planOut{}, err
		}
		out := planOut{ratio: res.StrongRatio}
		if encode {
			out.enc = encodeWeighted(res.Schedule)
		}
		return out, nil
	}
	var res *sweepsched.Result
	var err error
	if rg.comm > 0 {
		res, err = p.ScheduleComm(rg.alg, opts, rg.comm)
	} else {
		res, err = p.Schedule(rg.alg, opts)
	}
	if err != nil {
		return planOut{}, err
	}
	out := planOut{ratio: res.Ratio, c1: res.Metrics.C1, c2: res.Metrics.C2, hasComm: true}
	if encode {
		var buf bytes.Buffer
		if err := sched.EncodeTrace(&buf, res.Schedule); err != nil {
			return planOut{}, err
		}
		out.enc = buf.Bytes()
	}
	return out, nil
}

func encodeWeighted(s *sched.WeightedSchedule) []byte {
	var buf bytes.Buffer
	for _, v := range [][]int64{{s.Makespan}, s.Start, s.Finish} {
		_ = binary.Write(&buf, binary.LittleEndian, v) // a bytes.Buffer write cannot fail
	}
	_ = binary.Write(&buf, binary.LittleEndian, []int32(s.Assign))
	return buf.Bytes()
}

// planStaged plans one rung by calling each layer's public functions in
// the order the API does, one span per call: assignment (partitioner),
// priority filler, kernel, validation, metrics, audit. It draws from the
// seed exactly as the API does, so its schedule is the API's byte for
// byte — the traced run checks that, which is what makes the spans a
// decomposition of the pipeline and not of a look-alike.
func planStaged(sc *scope, r *run, inst *sched.Instance, st *planState, rg rung, seed uint64, audit, encode bool, col *obs.Collector) (planOut, error) {
	var (
		src    = rng.New(seed)
		assign sched.Assignment
		groups [][]int32
		err    error
	)
	if rg.anglesets > 0 {
		if groups, err = quadrature.AnglesetsFor(inst.Dirs, rg.anglesets); err != nil {
			return planOut{}, err
		}
	}
	sc.do("sched.assign", func() {
		if rg.block <= 1 {
			assign = sched.RandomAssignment(inst.N(), inst.M, src)
			return
		}
		g := partition.FromMesh(inst.Mesh)
		if rg.weighted {
			copy(g.VWeight, st.weights)
		}
		var part []int32
		var nBlocks int
		sc.do("partition.blocks", func() { part, nBlocks, err = partition.Blocks(g, rg.block, seed) })
		if err != nil {
			return
		}
		if _, seen := r.values["partition.edge_cut"]; !seen {
			r.values["partition.edge_cut"] = float64(partition.EdgeCut(g, part))
		}
		assign = sched.BlockAssignment(part, nBlocks, inst.M, src)
	})
	if err != nil {
		return planOut{}, err
	}

	if rg.weighted {
		var prio sched.Priorities
		sc.do("heuristics.descendant", func() { prio = heuristics.DescendantPriorities(inst, 0) })
		var ws *sched.WeightedSchedule
		sc.do("sched.weighted", func() { ws, err = sched.ListScheduleMachine(inst, assign, prio, st.weights, st.model) })
		if err != nil {
			return planOut{}, err
		}
		sc.do("sched.validate", func() { err = ws.Validate() })
		if err == nil && audit {
			sc.do("verify.schedule", func() { err = verify.Weighted(inst, ws) })
		}
		if err != nil {
			return planOut{}, err
		}
		bounds := lb.ComputeWeighted(inst, st.weights, st.model)
		out := planOut{ratio: lb.WeightedRatio(ws.Makespan, bounds)}
		if encode {
			out.enc = encodeWeighted(ws)
		}
		return out, nil
	}

	wsp := sched.GetWorkspace(inst)
	wsp.SetObserver(col)
	defer wsp.Release()
	var (
		s    = &sched.Schedule{}
		nt   = inst.NTasks()
		n    = inst.N()
		prio sched.Priorities
	)
	switch {
	case rg.alg == sweepsched.RandomDelaysPriority && groups == nil && rg.comm == 0:
		prio = wsp.PrioBuf(nt)
		sc.do("heuristics.delays", func() {
			for i, x := range core.Delays(inst.K(), src) {
				for v, lvl := range inst.DAGs[i].Level {
					prio[i*n+v] = int64(lvl + x)
				}
			}
		})
		sc.do("sched.list", func() { err = sched.ListScheduleInto(wsp, s, inst, assign, prio, nil) })
	case rg.alg == sweepsched.DescendantDelays && groups == nil && rg.comm == 0:
		prio = wsp.PrioBuf(nt)
		sc.do("heuristics.descendant", func() { heuristics.DescendantPrioritiesInto(prio, inst, 0) })
		rel := wsp.Int32Buf(nt)
		sc.do("heuristics.delays", func() {
			for i, x := range core.Delays(inst.K(), src) {
				for v := 0; v < n; v++ {
					rel[i*n+v] = x
				}
			}
		})
		sc.do("sched.list", func() { err = sched.ListScheduleInto(wsp, s, inst, assign, prio, rel) })
	case rg.alg == sweepsched.DescendantDelays && groups != nil && rg.comm == 0:
		prio = wsp.PrioBuf(n * len(groups))
		var rel []int32
		sc.do("heuristics.angleset", func() {
			heuristics.DescendantAnglesetPrioritiesInto(prio, inst, groups, 0)
			rel = core.Delays(len(groups), src)
		})
		sc.do("sched.angleset", func() { err = sched.ListScheduleAnglesetInto(wsp, s, inst, assign, groups, prio, rel) })
	case rg.alg == sweepsched.DFDSDelays && groups == nil && rg.comm > 0:
		// Under comm delays the API uses the DFDS priorities alone.
		sc.do("heuristics.dfds", func() { prio = heuristics.DFDSPriorities(inst, assign, 0) })
		sc.do("sched.comm", func() { err = sched.CommScheduleInto(wsp, s, inst, assign, prio, rg.comm) })
	case rg.alg == sweepsched.ImprovedDelays && groups == nil && rg.comm == 0:
		level := wsp.Int32Buf(nt)
		sc.do("sched.greedy", func() { _, err = sched.GreedyScheduleInto(wsp, level, inst, nil) })
		if err != nil {
			return planOut{}, err
		}
		prio = wsp.PrioBuf(nt)
		sc.do("heuristics.delays", func() {
			for i, x := range core.Delays(inst.K(), src) {
				for v := 0; v < n; v++ {
					prio[i*n+v] = int64(level[i*n+v] + x)
				}
			}
		})
		sc.do("sched.list", func() { err = sched.ListScheduleInto(wsp, s, inst, assign, prio, nil) })
	default:
		return planOut{}, fmt.Errorf("bench: no staged pipeline for rung %+v", rg)
	}
	if err != nil {
		return planOut{}, err
	}
	sc.do("sched.validate", func() {
		if err = s.Validate(); err == nil && rg.comm > 0 {
			err = sched.ValidateComm(s, rg.comm)
		}
	})
	if err != nil {
		return planOut{}, err
	}
	var met sched.Metrics
	sc.do("sched.measure", func() { met = sched.Measure(s, 0) })
	if audit {
		sc.do("verify.schedule", func() {
			err = verify.Schedule(inst, s, verify.Opts{CommDelay: rg.comm, Metrics: &met, Anglesets: groups})
		})
		if err != nil {
			return planOut{}, err
		}
	}
	out := planOut{ratio: lb.Ratio(s.Makespan, inst), c1: met.C1, c2: met.C2, hasComm: true}
	if encode {
		var buf bytes.Buffer
		if err := sched.EncodeTrace(&buf, s); err != nil {
			return planOut{}, err
		}
		out.enc = buf.Bytes()
	}
	return out, nil
}

// buildStaged builds the DAG family of a fresh problem through the dag
// layer's public functions, as NewProblemFromMesh does in one call.
func buildStaged(sc *scope, msh *mesh.Mesh, dirs []geom.Vec3, m int) (*dag.Skeleton, []*dag.DAG, *sched.Instance, error) {
	var skel *dag.Skeleton
	sc.do("dag.skeleton", func() { skel = dag.NewSkeleton(msh) })
	var dags []*dag.DAG
	sc.do("dag.family_cold", func() { dags = dag.BuildAllInto(make([]*dag.DAG, len(dirs)), skel, dirs, 0) })
	inst, err := sched.FromDAGs(dags, m)
	if err != nil {
		return nil, nil, nil, err
	}
	inst.Mesh, inst.Dirs = msh, dirs
	return skel, dags, inst, nil
}

// build is a plan workload's set-up: the mesh, the resident Problem
// (built stage by stage in a traced run, so the staged pipeline and the
// API plan the same DAGs), the ladder's cell weights, and one plan
// before timing to fill the kernel's workspace pool.
func (st *planState) build(sc *scope, staged bool, pp planParams, seed uint64) error {
	var err error
	if st.dirs, err = quadrature.Octant(pp.k); err != nil {
		return err
	}
	sc.do("mesh.generate", func() {
		st.msh, err = mesh.Family(pp.family, pp.scale, deriveSeed(seed, streamMesh, 0))
	})
	if err != nil {
		return err
	}
	if staged {
		if st.skel, st.dags, st.inst, err = buildStaged(sc, st.msh, st.dirs, pp.m); err != nil {
			return err
		}
		st.p, err = sweepsched.NewProblemFromPrebuiltDAGs(st.msh, st.dirs, st.dags, pp.m)
	} else {
		st.p, err = sweepsched.NewProblemFromMesh(st.msh, pp.k, pp.m)
	}
	if err != nil {
		return err
	}
	st.weights = sweepsched.LogNormalWeights(st.p.N(), 4, 0.75, deriveSeed(seed, streamWeights, 0))
	sc.do("api.schedule", func() {
		_, err = planAPI(st.p, st, pp.rungs[0], deriveSeed(seed, streamSchedule, 1<<30), false, false, nil)
	})
	return err
}

// runPlan is the plan-cell and plan-ladder workloads.
func runPlan(r *run, pp planParams) error {
	seed := r.opts.seed
	st := &planState{model: machineFor(pp.m)}

	_, err := r.timeSetup(func() (func(), error) {
		var err error
		r.tr.root("setup", func(sc *scope) { err = st.build(sc, r.tr != nil, pp, seed) })
		return nil, err
	})
	if err != nil {
		return err
	}
	if r.tr != nil {
		var edges, broken int
		for _, d := range st.dags {
			edges += d.NumEdges()
			broken += d.RemovedEdges
		}
		r.values["dag.edges"], r.values["dag.broken_cycle_edges"] = float64(edges), float64(broken)
	}

	return r.rounds(func(round int, t *tracer, col *obs.Collector) error {
		if r.opts.trace {
			return st.tracedRound(r, pp, round, t, col)
		}
		st.round(r, pp, round)
		return nil
	})
}

// Schedule seeds: cold plan number i of a round, and rung number rung of
// warm pass number pass of that round. Every plan draws its own
// assignment and delays, so the quality means average over as many
// independent draws as there are plans.
func coldSeed(seed uint64, round, i int) uint64 {
	return deriveSeed(seed, streamSchedule, uint64(1<<20+round*8+i))
}

func warmSeed(seed uint64, round, pass, rung int) uint64 {
	return deriveSeed(seed, streamSchedule, uint64((round*8+pass)*8+rung))
}

// round is one untraced round through the public API: a cold plan, then
// the warm passes.
func (st *planState) round(r *run, pp planParams, round int) {
	for i := 0; i < pp.coldPlans; i++ {
		t0 := time.Now()
		var out planOut
		p, err := sweepsched.NewProblemFromMesh(st.msh, pp.k, pp.m)
		if err == nil {
			out, err = planAPI(p, st, pp.rungs[0], coldSeed(r.opts.seed, round, i), true, false, nil)
		}
		if spent := time.Since(t0).Seconds(); r.attempt("cold plan", err) {
			r.sample("cold_s", spent)
			r.addQuality(round, out.ratio, out.c1, out.c2, out.hasComm)
		}
		r.cut()
	}
	for pass := 0; pass < pp.warmPasses; pass++ {
		t0 := time.Now()
		ok := true
		for i, rg := range pp.rungs {
			out, err := planAPI(st.p, st, rg, warmSeed(r.opts.seed, round, pass, i), false, false, nil)
			if !r.attempt(fmt.Sprintf("warm plan %s", rg.alg), err) {
				ok = false
				continue
			}
			r.addQuality(round, out.ratio, out.c1, out.c2, out.hasComm)
		}
		if ok {
			r.sample("warm_s", time.Since(t0).Seconds())
		}
		r.cut()
	}
}

// tracedRound is one round of the traced run: the same plans rebuilt
// stage by stage under spans. Round 0 also checks every staged plan
// against the API's byte for byte and takes the allocation counts.
func (st *planState) tracedRound(r *run, pp planParams, round int, t *tracer, col *obs.Collector) error {
	check := round == 0
	seed := r.opts.seed
	var coldInst *sched.Instance
	var staged planOut
	t.root("plan.cold", func(sc *scope) {
		var err error
		if _, _, coldInst, err = buildStaged(sc, st.msh, st.dirs, pp.m); err == nil {
			staged, err = planStaged(sc, r, coldInst, st, pp.rungs[0], coldSeed(seed, round, 0), true, check, col)
		}
		r.attempt("staged cold plan", err)
	})
	if check {
		var api planOut
		t.root("api.schedule", func(*scope) {
			var err error
			api, err = planAPI(st.p, st, pp.rungs[0], coldSeed(seed, round, 0), true, true, nil)
			r.attempt("api cold plan", err)
		})
		r.attempt("staged cold plan is the API's byte for byte", sameBytes(staged.enc, api.enc))
	}

	for pass := 0; pass < pp.warmPasses; pass++ {
		t0 := time.Now()
		var stagedOuts []planOut
		t.root("plan.warm", func(sc *scope) {
			for i, rg := range pp.rungs {
				out, err := planStaged(sc, r, st.inst, st, rg, warmSeed(seed, round, pass, i), false, check, col)
				r.attempt(fmt.Sprintf("staged warm plan %s", rg.alg), err)
				stagedOuts = append(stagedOuts, out)
			}
		})
		if t != nil {
			r.sample("op.traced", time.Since(t0).Seconds())
		} else {
			r.sample("op.untraced", time.Since(t0).Seconds())
		}
		if !check || pass > 0 {
			continue
		}
		for i, rg := range pp.rungs {
			var api planOut
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t.root("api.schedule", func(*scope) {
				var err error
				api, err = planAPI(st.p, st, rg, warmSeed(seed, round, pass, i), false, true, nil)
				r.attempt(fmt.Sprintf("api warm plan %s", rg.alg), err)
			})
			runtime.ReadMemStats(&after)
			if i == 0 {
				// The encoded copy made for the identity check is part of the delta.
				r.values["api.plan_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
				r.values["api.plan_allocs"] = float64(after.Mallocs - before.Mallocs)
			}
			r.attempt(fmt.Sprintf("staged warm plan %s is the API's byte for byte", rg.alg),
				sameBytes(stagedOuts[i].enc, api.enc))
		}
	}

	// Control: rebuilding the DAG family into recycled storage.
	if coldInst != nil {
		t.root("dag.rebuild", func(sc *scope) {
			sc.do("dag.family_warm", func() { dag.BuildAllInto(coldInst.DAGs, st.skel, st.dirs, 0) })
		})
	}

	if check {
		if err := r.warmKernelAllocs(t, st.inst, warmSeed(seed, round, 0, 0)); err != nil {
			return err
		}
		snap := col.Snapshot()
		if runs := snap.CounterValue("sched.list.runs"); runs > 0 {
			r.values["sched.list_steps"] = float64(snap.CounterValue("sched.list.steps")) / float64(runs)
		}
	}
	return nil
}

// warmKernelAllocs measures what one list-kernel call allocates on a
// warm workspace with a recycled destination; the kernel's contract is
// zero.
func (r *run) warmKernelAllocs(t *tracer, inst *sched.Instance, seed uint64) error {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(seed))
	prio := ws.PrioBuf(inst.NTasks())
	for i, d := range inst.DAGs {
		for v, lvl := range d.Level {
			prio[i*inst.N()+v] = int64(lvl)
		}
	}
	dst := &sched.Schedule{}
	var err error
	t.root("sched.list_warm", func(sc *scope) {
		if err = sched.ListScheduleInto(ws, dst, inst, assign, prio, nil); err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = sched.ListScheduleInto(ws, dst, inst, assign, prio, nil)
		runtime.ReadMemStats(&after)
		r.values["sched.warm_allocs_per_op"] = float64(after.Mallocs - before.Mallocs)
		r.values["sched.warm_bytes_per_op"] = float64(after.TotalAlloc - before.TotalAlloc)
	})
	return err
}

func sameBytes(a, b []byte) error {
	if len(a) == 0 || !bytes.Equal(a, b) {
		return errors.New("encoded schedules differ")
	}
	return nil
}
