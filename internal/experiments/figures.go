package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"

	"sweepsched"
	"sweepsched/internal/coloring"
	"sweepsched/internal/core"
	"sweepsched/internal/dag"
	"sweepsched/internal/faults"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/kba"
	"sweepsched/internal/lb"
	"sweepsched/internal/mesh"
	"sweepsched/internal/opt"
	"sweepsched/internal/partition"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/synth"
	"sweepsched/internal/trace"
)

// figures is every experiment, sorted by id (Run searches it).
var figures = []figure{
	{
		// Algorithm 2 under six assignment policies: uniform random (the
		// paper's), round-robin, slabs, multilevel and Morton-order blocks,
		// and a balanced m-way decomposition with part p on processor p.
		id: "ablate_assign", title: "ablate_assign: assignment policy in Algorithm 2 (tetonly, k=24)",
		meshes: []string{"tetonly"}, ks: []int{24}, rows: policyRows,
		seed: spaced(0xac0, 0, 100),
		runs: []run{{do: func(p *point, seed uint64) (*sample, error) {
			r := rng.New(seed)
			assign, err := policyAssignment(p, r)
			if err != nil {
				return nil, err
			}
			return levelDelayed(p, assign, p.inst.K(), r)
		}}},
		cols: []col{{name: "m", cell: procs}, {name: "policy", cell: policyName},
			{name: "ratio", metric: ratio}, {name: "C1", metric: c1, whole: true}},
		// A blocks row reads the random row of its m, three rows up.
		claims: []claim{
			{id: "A2a", text: "C1 random/blocks, blocks of >= 16 cells", regime: bigBlocks, op: ">=", bound: 2,
				value: func(rows [][]any, i int) float64 { return num(rows[i-3][3]) / num(rows[i][3]) }},
			{id: "A2b", text: "ratio blocks/random, blocks of >= 16 cells", regime: bigBlocks, op: "<=", bound: 3,
				value: func(rows [][]any, i int) float64 { return num(rows[i][2]) / num(rows[i-3][2]) }},
		},
	},
	{
		// Algorithm 2's delay range R, X_i ∈ {0..R-1}: R=1 is plain level
		// priorities, R=k the paper's choice; larger R lengthens the
		// critical path.
		id: "ablate_delay", title: "ablate_delay: delay range R in Algorithm 2 (long, k=24; paper uses R=k)",
		meshes: []string{"long"}, ks: []int{24}, seed: mixed(0xab0),
		runs: []run{delayRange(1), delayRange(6), delayRange(24), delayRange(48), delayRange(96)},
		cols: []col{{name: "m", cell: procs}, {name: "R=1(no delay)", metric: ratio}, {name: "R=k/4", run: 1, metric: ratio},
			{name: "R=k", run: 2, metric: ratio}, {name: "R=2k", run: 3, metric: ratio}, {name: "R=4k", run: 4, metric: ratio}},
	},
	{
		// §5.1 observation 2: larger blocks cut C1 sharply while the
		// makespan grows mildly and C2 stays low.
		id: "blocks", paper: true, title: "blocks: block-size sweep on %s (n=%d, k=24, m=64)",
		args:   func(g *group) []any { return meshArgs(g)[:2] },
		meshes: []string{"tetonly"}, ks: []int{24}, rows: sweep(64, 1, 4, 16, 64, 256, 1024),
		seed: spaced(0x7b, 0, 100),
		runs: []run{{alg: rdp, opts: func(p *point) sweepsched.ScheduleOptions { return blocks(p.x) }}},
		cols: []col{{name: "block", cell: swept}, {name: "makespan", metric: makespan},
			{name: "ratio", cell: func(p *point, v []float64) any { return v[1] / loadLB(p) }},
			{name: "C1", metric: c1, whole: true}, {name: "C2", metric: c2, whole: true},
			{name: "C1_frac_edges", cell: func(p *point, v []float64) any { return v[3] / float64(edges(p.g.w)) }}},
	},
	{
		// C2 realized (§5, ref [11]): each step's processor message
		// multigraph edge-coloured greedily (≤ 2Δ−1 colours) and by the
		// distributed algorithm, against the C2 bound Σ max-degree.
		id: "colorrounds", title: "colorrounds: realized comm rounds via edge coloring vs the C2 bound",
		meshes: []string{"tetonly"}, ks: []int{8},
		seed: spaced(0xce, 0, 0),
		runs: []run{{once: true, alg: rdp, opts: blocksOf(16), use: func(p *point, res *sweepsched.Result) (*sample, error) {
			greedy, distrib, err := realizedRounds(res.Schedule, p.g.cfg.Seed)
			return &sample{s: res.Schedule, met: &res.Metrics, v: []float64{float64(greedy), float64(distrib)}}, err
		}}},
		cols: []col{{name: "m", cell: procs}, {name: "C2(maxdeg)", metric: c2, whole: true},
			{name: "greedy_rounds", metric: val(0), whole: true}, {name: "distrib_rounds", metric: val(1), whole: true},
			{name: "greedy/C2", cell: share(2, 1)}, {name: "distrib/C2", cell: share(3, 1)}},
	},
	{
		// The batched flux interconnect against the per-message oracle on
		// the transport executor, one schedule per m solved both ways: the
		// fluxes must agree bit for bit and the logical traffic exactly, so
		// the table isolates what batching saves.
		id: "comm", title: "comm: batched flux envelopes vs per-message oracle (tetonly, k=8; modes converge bitwise-identically)",
		meshes: []string{"tetonly"}, ks: []int{8}, seed: perM(0x5eed), runs: []run{{once: true, alg: rdp, use: commTraffic}},
		cols: []col{{name: "m", cell: procs}, {name: "messages", metric: val(0), whole: true},
			{name: "rounds", metric: val(1), whole: true}, {name: "envelopes", metric: val(2), whole: true},
			{name: "env_bytes", metric: val(3), whole: true}, {name: "permsg_bytes", metric: val(4), whole: true},
			{name: "msgs_per_tx", metric: val(5)}, {name: "byte_ratio", metric: val(6)}},
	},
	{
		// §3's uniform communication cost c: as c grows, block assignments
		// overtake per-cell ones, since every cross edge stretches the
		// critical path.
		id: "commdelay", title: "commdelay: uniform comm cost c on %s (n=%d, k=24, m=32, block=%d)",
		args:   func(g *group) []any { return append(meshArgs(g)[:2], g.bs) },
		meshes: []string{"tetonly"}, ks: []int{24},
		rows: func(g *group) ([]*point, error) {
			g.bs = max(2, g.w.Mesh.NCells()/(8*32)) // well over m blocks at any scale
			return sweep(32, 0, 2, 8, 32, 128)(g)
		},
		seed: spaced(0xcd, 0, 100),
		runs: []run{{alg: heuristics.Level, comm: true},
			{alg: heuristics.Level, comm: true, opts: func(p *point) sweepsched.ScheduleOptions { return blocks(p.g.bs) }}},
		cols: []col{{name: "c", cell: swept}, {name: "ms_cell", metric: makespan},
			{name: "ms_block", run: 1, metric: makespan}, {name: "block/cell", cell: quot(2, 1)}},
	},
	{
		// Figure 2(a): Algorithm 1 and 2 makespans under per-cell and block
		// assignments.
		id: "fig2a", paper: true, title: "fig2a: makespan on %s (n=%d, k=%d), cell vs block assignment", args: meshArgs,
		meshes: []string{"tetonly"}, ks: []int{24},
		seed: mixed(0xa1),
		runs: []run{{alg: heuristics.RandomDelays}, {alg: rdp}, {alg: rdp, opts: blocksOf(64)}, {alg: rdp, opts: blocksOf(256)}},
		cols: []col{{name: "m", cell: procs}, {name: "lb(nk/m)", cell: func(p *point, _ []float64) any { return loadLB(p) }},
			{name: "rd_cell", metric: makespan}, {name: "rdp_cell", run: 1, metric: makespan},
			{name: "rdp_b64", run: 2, metric: makespan}, {name: "rdp_b256", run: 3, metric: makespan},
			{name: "ratio_rdp_cell", run: 1, metric: ratio}},
	},
	{
		// Figure 2(b): C1 (interprocessor edges) and C2 ("Max
		// Off-Proc-Outdegree" rounds) under per-cell and block assignments.
		id: "fig2b", paper: true, title: "fig2b: comm costs on %s (n=%d, k=%d, edges=%d)",
		args:   func(g *group) []any { return append(meshArgs(g), edges(g.w)) },
		meshes: []string{"tetonly"}, ks: []int{24},
		seed: spaced(0xb0, 1000, 0),
		runs: []run{{alg: rdp}, {alg: rdp, opts: blocksOf(64)}, {alg: rdp, opts: blocksOf(256)}},
		cols: []col{{name: "m", cell: procs},
			{name: "C1_cell", metric: c1, whole: true}, {name: "C1_b64", run: 1, metric: c1, whole: true},
			{name: "C1_b256", run: 2, metric: c1, whole: true}, {name: "C2_cell", metric: c2, whole: true},
			{name: "C2_b64", run: 1, metric: c2, whole: true}, {name: "C2_b256", run: 2, metric: c2, whole: true}},
		claims: []claim{{id: "A4", text: "C2 - C1, the most over the assignments", op: "<=", bound: 0,
			value: func(rows [][]any, i int) float64 {
				r := rows[i]
				return max(num(r[4])-num(r[1]), num(r[5])-num(r[2]), num(r[6])-num(r[3]))
			}}},
	},
	{
		// Figure 2(c): "Random Delays" against "Random Delays with
		// Priorities" on long, as ratios to nk/m.
		id: "fig2c", paper: true, title: "fig2c: Random Delays vs Random Delays with Priorities on long",
		meshes: []string{"long"}, ks: []int{4, 24, 48},
		seed: mixed(0xc1), runs: []run{{alg: heuristics.RandomDelays}, {alg: rdp}},
		cols: []col{{name: "k", cell: dirs}, {name: "m", cell: procs}, {name: "ratio_rd", metric: ratio},
			{name: "ratio_rdp", run: 1, metric: ratio}, {name: "improvement", cell: quot(2, 3)}},
		claims: []claim{{id: "A3", text: "improvement: list scheduling never loses to the layered Algorithm 1", value: cellAt(4), op: ">", bound: 1}},
	},
	fig3("fig3a", "level priorities vs random delays (long, block 64)", "long", 64,
		heuristics.Level, heuristics.RandomDelaysPriority),
	fig3("fig3b", "descendant priorities vs random delays (tetonly, block 256)", "tetonly", 256,
		heuristics.RandomDelaysPriority, heuristics.Descendant, heuristics.DescendantDelays),
	fig3("fig3c", "DFDS priorities vs random delays (well_logging, block 128)", "well_logging", 128,
		heuristics.RandomDelaysPriority, heuristics.DFDS, heuristics.DFDSDelays).with(
		claim{id: "A5", text: "ratio_random_delays_priority/ratio_dfds at the smallest m",
			regime: func(p *point) bool { return p.m == slices.Min(p.g.cfg.Procs) }, op: "<=", bound: 1.35, value: quotAt(2, 3)},
		claim{id: "A9", text: "ratio_dfds/ratio_random_delays_priority: DFDS is no worse", op: "<=", bound: 1, value: quotAt(3, 2)},
		claim{id: "A10", text: "ratio_dfds_delays/ratio_dfds: delays do not help DFDS", op: ">=", bound: 0.97, value: quotAt(4, 3)}),
	{
		// §5.1 observation 1: the provable algorithms' observed ratios far
		// below the O(log²n) and ρ(m) = log m · logloglog m factors.
		id: "guarantee", paper: true, title: "guarantee: observed ratio vs theoretical factors",
		meshes: mesh.FamilyNames(), ks: []int{24},
		seed: mixed(0x6e), runs: []run{{alg: heuristics.RandomDelays}, {alg: rdp}, {alg: heuristics.ImprovedDelays}},
		cols: []col{{name: "mesh", cell: meshName}, {name: "m", cell: procs}, {name: "ratio_alg1", metric: ratio},
			{name: "ratio_alg2", run: 1, metric: ratio}, {name: "ratio_alg3", run: 2, metric: ratio},
			{name: "log2n^2", cell: func(p *point, _ []float64) any { return core.Log2Sq(p.g.w.Mesh.NCells()) }},
			{name: "rho(m)", cell: func(p *point, _ []float64) any { return core.Rho(p.m) }}},
		claims: []claim{{id: "A1", text: "ratio_alg2 where nk/m >= 2D", value: cellAt(3), op: "<=", bound: 3,
			regime: func(p *point) bool { return p.g.w.Mesh.NCells()*p.g.k/p.m >= 2*depth(p.g.w) }},
			{id: "A8", text: "ratio_alg3/ratio_alg1: Algorithm 3's priority form beats Algorithm 1", value: quotAt(4, 2), op: "<", bound: 1}},
	},
	{
		// §4.2's motivation for Algorithm 2: the idle slots at Algorithm 1's
		// layer barriers that compaction (same delays and assignment)
		// removes.
		id: "idle", title: "idle: layer-barrier idle time removed by compaction (long, k=24)",
		meshes: []string{"long"}, ks: []int{24},
		seed: perM(0x1d7e), runs: []run{{once: true, alg: heuristics.RandomDelays}, {once: true, alg: rdp}},
		cols: []col{{name: "m", cell: procs}, {name: "idle_alg1", metric: idle, whole: true},
			{name: "idle_alg2", run: 1, metric: idle, whole: true}, {name: "util_alg1", metric: util},
			{name: "util_alg2", run: 1, metric: util}, {name: "idle_removed", cell: func(_ *point, v []float64) any {
				if v[1] > 0 {
					return (v[1] - v[2]) / v[1]
				}
				return 0.0
			}}},
	},
	{
		// §4.3: Algorithm 1 against Algorithm 3, whose greedy preprocessing
		// narrows every combined layer to width ≤ m.
		id: "improved", title: "improved: Algorithm 1 vs Algorithm 3 (layered forms)",
		meshes: []string{"tetonly", "long"}, ks: []int{24},
		seed: mixed(0x8a),
		runs: []run{{alg: heuristics.RandomDelays}, {do: func(p *point, seed uint64) (*sample, error) {
			r := rng.New(seed)
			s, err := heuristics.RunLayered(heuristics.ImprovedDelays, p.inst, sched.RandomAssignment(p.inst.N(), p.inst.M, r), r, 1)
			return &sample{s: s}, err
		}}},
		cols: []col{{name: "mesh", cell: meshName}, {name: "m", cell: procs}, {name: "ms_alg1", metric: makespan},
			{name: "ms_alg3", run: 1, metric: makespan}, {name: "alg1/alg3", cell: quot(2, 3)}},
		claims: []claim{{id: "A7", text: "alg1/alg3 up to m = 128: layered Algorithm 3 is slower than Algorithm 1",
			regime: func(p *point) bool { return p.m <= 128 }, value: cellAt(4), op: "<", bound: 1}},
	},
	{
		// §2's related work: on a regular grid the KBA column schedule is
		// essentially optimal. KBA tiles the xy plane, so m > 12² is skipped.
		id: "kba", title: "kba: regular 12x12x12 grid, 8 octant directions", seed: mixed(0x9c),
		rows: func(g *group) ([]*point, error) {
			dirs, err := quadrature.Diagonals(8)
			if err != nil {
				return nil, err
			}
			msh := mesh.RegularHex(12, 12, 12)
			g.w = &Workload{MeshName: "hex", K: 8, Mesh: msh, Dirs: dirs, DAGs: dag.BuildAll(msh, dirs)}
			pts, err := procRows(g)
			return slices.DeleteFunc(pts, func(p *point) bool { return p.m > 12*12 }), err
		},
		runs: []run{{once: true, do: func(p *point, _ uint64) (*sample, error) {
			assign, err := kba.ColumnAssignment(12, 12, 12, p.m)
			if err != nil {
				return nil, err
			}
			// Level priorities reproduce KBA's diagonal wavefront.
			s, err := heuristics.Run(heuristics.Level, p.inst, assign, nil, 1)
			return &sample{s: s}, err
		}}, {alg: rdp}},
		cols: []col{{name: "m", cell: procs}, {name: "ratio_kba", metric: ratio}, {name: "ratio_rdp", run: 1, metric: ratio}},
	},
	{
		// The four mesh families' character: cells, interior faces, DAG
		// depth D (the critical-path bound), mean level width, broken edges.
		id: "meshes", title: "meshes: workload character at scale %g (k=24)",
		args:   func(g *group) []any { return []any{g.cfg.Scale} },
		meshes: mesh.FamilyNames(), ks: []int{24},
		rows: func(g *group) ([]*point, error) { return []*point{{g: g}}, nil },
		runs: []run{{once: true, do: func(p *point, _ uint64) (*sample, error) {
			s := &sample{v: make([]float64, 4)}
			for _, d := range p.g.w.DAGs {
				a := d.Analyze()
				s.v[0] = max(s.v[0], float64(a.Levels))
				s.v[1] += a.MeanWidth
				s.v[2] += float64(a.RemovedEdges)
			}
			s.v[1] /= float64(len(p.g.w.DAGs))
			if q, err := p.g.w.Mesh.ComputeQuality(); err == nil {
				s.v[3] = q.AspectMean
			}
			return s, nil
		}}},
		cols: []col{{name: "mesh", cell: meshName},
			{name: "cells", cell: func(p *point, _ []float64) any { return p.g.w.Mesh.NCells() }},
			{name: "intFaces", cell: func(p *point, _ []float64) any { return p.g.w.Mesh.NInteriorFaces() }},
			{name: "D", metric: val(0), whole: true}, {name: "meanWidth", metric: val(1)},
			{name: "broken", metric: val(2), whole: true}, {name: "aspectMean", metric: val(3)}},
	},
	{
		// §2's non-geometric instances: random chains, layered random DAGs
		// and the heuristic trap, on which deterministic priorities collide.
		id: "nongeom", title: "nongeom: non-geometric instances (ratios to strongest lower bound)",
		rows: nongeomRows,
		seed: spaced(0x9d, 0, 0),
		runs: []run{{alg: rdp}, {alg: heuristics.Level}, {alg: heuristics.Descendant}, {alg: heuristics.DFDS}},
		cols: []col{{name: "instance", cell: func(p *point, _ []float64) any { return string(nongeomKinds[p.x]) }},
			{name: "n", cell: func(p *point, _ []float64) any { return p.prob.N() }},
			{name: "k", cell: func(p *point, _ []float64) any { return p.prob.K() }}, {name: "m", cell: procs},
			{name: "rdp", metric: strong}, {name: "level", run: 1, metric: strong},
			{name: "descendant", run: 2, metric: strong}, {name: "dfds", run: 3, metric: strong}},
	},
	{
		// True approximation ratios where exhaustive search finds the
		// optimum: how much of a reported ratio is lower-bound slack.
		id: "optratio", title: "optratio: true makespan/OPT on tiny instances (exact search)",
		rows: sweep(0, 0, 1, 2, 3), // one row per optCases entry, which sets its own m
		seed: func(p *point, trial int) uint64 { return p.g.cfg.Seed + uint64(trial)*7919 }, runs: []run{{do: optRatios}},
		cols: []col{{name: "instance", cell: func(p *point, _ []float64) any { return optCases[p.x].name }},
			{name: "n", cell: func(p *point, _ []float64) any { return optCases[p.x].n }},
			{name: "k", cell: func(p *point, _ []float64) any { return optCases[p.x].k }},
			{name: "m", cell: func(p *point, _ []float64) any { return optCases[p.x].m }},
			{name: "OPT", metric: val(0)}, {name: "lb(nk/m)", metric: val(1)},
			{name: "rdp/OPT", metric: val(2)}, {name: "level/OPT", metric: val(3)}, {name: "dfds/OPT", metric: val(4)}},
	},
	{
		// The cost of fault recovery: one schedule replayed under fault
		// plans of growing intensity, Trials fault seeds each.
		id: "resilience", title: "resilience: recovery overhead on %s (n=%d, k=8, m=16, makespan=%d)",
		args:   func(g *group) []any { return append(meshArgs(g)[:2], g.res.Schedule.Makespan) },
		meshes: []string{"tetonly"}, ks: []int{8},
		rows: func(g *group) ([]*point, error) {
			var err error
			if g.prob, err = g.w.Problem(16); err != nil {
				return nil, err
			}
			if g.res, err = g.prob.ScheduleCtx(context.Background(), rdp, g.cfg.options(sweepsched.ScheduleOptions{}, g.cfg.Seed^0xfa)); err != nil {
				return nil, err
			}
			return sweep(16, 0, 1, 2, 3, 4)(g)
		},
		seed: spaced(0, 1000, 0),
		runs: []run{{do: func(p *point, seed uint64) (*sample, error) {
			spec := faultSpecs[p.x]
			_, rep, err := p.g.prob.SimulateFaulty(context.Background(), p.g.res, sweepsched.NewFaultPlan(p.g.res, spec, seed))
			if err != nil {
				return nil, fmt.Errorf("resilience: spec %+v: %w", spec, err)
			}
			return &sample{v: []float64{float64(rep.StepsExecuted), float64(rep.Penalty()),
				float64(rep.TasksReplayed), float64(rep.Recoveries), float64(rep.Epochs)}}, nil
		}}},
		cols: []col{{name: "crashes", cell: func(p *point, _ []float64) any { return faultSpecs[p.x].Crashes }},
			{name: "drops", cell: func(p *point, _ []float64) any { return faultSpecs[p.x].Drops }},
			{name: "delays", cell: func(p *point, _ []float64) any { return faultSpecs[p.x].Delays }},
			{name: "steps", metric: val(0)},
			{name: "penalty%", metric: val(1), cell: func(p *point, v []float64) any { return 100 * v[4] / float64(p.g.res.Schedule.Makespan) }},
			{name: "replayed", metric: val(2)}, {name: "recoveries", metric: val(3)}, {name: "epochs", metric: val(4)}},
	},
	{
		// The headline scaling claim (§2 result 3, §5.1 observation 3):
		// Algorithm 2, per-cell (the granularity-independent form), within
		// 3·nk/m; the worst m per mesh and k.
		id: "speedup", paper: true, title: "speedup: max makespan/(nk/m) over m in %v (paper: always <= 3)",
		args:   func(g *group) []any { return []any{g.cfg.Procs} },
		meshes: mesh.FamilyNames(), ks: []int{24, 48}, worst: 3,
		seed: mixed(0x5d), runs: []run{{alg: rdp}},
		cols: []col{{name: "mesh", cell: meshName},
			{name: "n", cell: func(p *point, _ []float64) any { return p.g.w.Mesh.NCells() }},
			{name: "k", cell: dirs}, {name: "worst_ratio", metric: ratio}, {name: "worst_m", cell: procs},
			{name: "within3", cell: func(_ *point, v []float64) any { return v[3] <= 3 }}},
	},
	{
		// Heterogeneous cell costs, log-normal (σ=0.75, median 4), and with
		// Config.Speeds heterogeneous processors. The balanced partition
		// gives every processor equal work; ratio_* divide by the
		// speed-aware load bound, strong_* by lb.WeightedBounds.Max(). An m
		// whose critical path exceeds its load bound is marked skipped.
		id: "weighted", title: "weighted: log-normal cell costs on %s (n=%d, k=24, total weight %d, %s)",
		args: func(g *group) []any {
			var total int64
			for _, x := range g.weights {
				total += int64(x)
			}
			machine := "uniform machine"
			if len(g.cfg.Speeds) > 0 {
				machine = fmt.Sprintf("speeds %v cycled", g.cfg.Speeds)
			}
			return []any{g.mesh, len(g.weights), total, machine}
		},
		meshes: []string{"tetonly"}, ks: []int{24}, rows: weightedRows, seed: spaced(0x321, 0, 0),
		runs: []run{weightedRun(heuristics.Level, false), weightedRun(heuristics.Level, true), weightedRun(heuristics.DFDS, false)},
		cols: []col{{name: "m", cell: procs}, {name: "assign", cell: func(p *point, _ []float64) any { return []string{"random", "balanced"}[p.x] }},
			{name: "ratio_level", metric: loadRatio}, {name: "ratio_rdp", run: 1, metric: loadRatio},
			{name: "ratio_dfds", run: 2, metric: loadRatio}, {name: "strong_level", metric: strongRatio},
			{name: "strong_rdp", run: 1, metric: strongRatio}, {name: "strong_dfds", run: 2, metric: strongRatio},
			{name: "C1", cell: func(p *point, _ []float64) any { return sched.C1(p.inst, p.assign, p.g.cfg.Workers) }}},
	},
}

// meshArgs are the title arguments mesh, n and k.
func meshArgs(g *group) []any { return []any{g.mesh, g.w.Mesh.NCells(), g.k} }

// The row-axis cells.
func procs(p *point, _ []float64) any    { return p.m }
func swept(p *point, _ []float64) any    { return p.x }
func dirs(p *point, _ []float64) any     { return p.g.k }
func meshName(p *point, _ []float64) any { return p.g.mesh }

// quot is the ratio of columns a and b; share is the same, 0 when b is.
func quot(a, b int) func(*point, []float64) any {
	return func(_ *point, v []float64) any { return v[a] / v[b] }
}

func share(a, b int) func(*point, []float64) any {
	return func(_ *point, v []float64) any {
		if v[b] > 0 {
			return v[a] / v[b]
		}
		return 0.0
	}
}

// cellAt is the value a claim reads off cell j of a row, quotAt the
// ratio of cells a and b; num reads a cell as a number.
func cellAt(j int) func([][]any, int) float64 {
	return func(rows [][]any, i int) float64 { return num(rows[i][j]) }
}

func quotAt(a, b int) func([][]any, int) float64 {
	return func(rows [][]any, i int) float64 { return num(rows[i][a]) / num(rows[i][b]) }
}

func num(cell any) float64 {
	switch x := cell.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return math.NaN()
}

// depth is the workload's critical path D, its DAGs' most levels.
func depth(w *Workload) int {
	d := 0
	for _, g := range w.DAGs {
		d = max(d, g.NumLevels)
	}
	return d
}

// The metrics a column reads off a sample.
func makespan(_ *point, s *sample) float64    { return float64(s.s.Makespan) }
func ratio(_ *point, s *sample) float64       { return lb.Ratio(s.s.Makespan, s.s.Inst) }
func strong(_ *point, s *sample) float64      { return lb.StrongRatio(s.s.Makespan, s.s.Inst) }
func c1(_ *point, s *sample) float64          { return float64(s.met.C1) }
func c2(_ *point, s *sample) float64          { return float64(s.met.C2) }
func idle(_ *point, s *sample) float64        { return float64(trace.Compute(s.s).IdleSteps) }
func util(_ *point, s *sample) float64        { return trace.Compute(s.s).MeanUtilization }
func loadRatio(p *point, s *sample) float64   { return float64(s.w.Makespan) / p.bounds.Load }
func strongRatio(p *point, s *sample) float64 { return lb.WeightedRatio(s.w.Makespan, p.bounds) }

func val(i int) func(*point, *sample) float64 {
	return func(_ *point, s *sample) float64 { return s.v[i] }
}

// loadLB is the load bound nk/m.
func loadLB(p *point) float64 { return float64(p.inst.NTasks()) / float64(p.m) }

// edges counts the edges of a workload's DAGs.
func edges(w *Workload) int {
	total := 0
	for _, d := range w.DAGs {
		total += d.NumEdges()
	}
	return total
}

// mixed is the seed rule of the mean-ratio figures: the master seed, the
// figure's tag and the golden-ratio-spread trial number.
func mixed(tag uint64) func(*point, int) uint64 {
	return func(p *point, trial int) uint64 {
		return p.g.cfg.Seed ^ tag ^ (uint64(trial+1) * 0x9e3779b97f4a7c15)
	}
}

// spaced is the seed rule of the sweeps: the master seed, a tag, and
// off + the row's swept value·mul + the trial number.
func spaced(tag uint64, off, mul int) func(*point, int) uint64 {
	return func(p *point, trial int) uint64 { return p.g.cfg.Seed ^ tag ^ uint64(off+p.x*mul+trial) }
}

// perM seeds the runs made once per row from the master seed, a tag and m.
func perM(tag uint64) func(*point, int) uint64 {
	return func(p *point, _ int) uint64 { return p.g.cfg.Seed ^ tag ^ uint64(p.m) }
}

// rdp is Algorithm 2, random delays with priorities.
const rdp = heuristics.RandomDelaysPriority

// blocks are the options of a plan on an assignment of bs-cell blocks
// (bs 1: per cell); blocksOf gives them every row.
func blocks(bs int) sweepsched.ScheduleOptions { return sweepsched.ScheduleOptions{BlockSize: bs} }

func blocksOf(bs int) func(*point) sweepsched.ScheduleOptions {
	return func(*point) sweepsched.ScheduleOptions { return blocks(bs) }
}

// fig3 is a Figure 3 panel: the named schedulers on one shared
// assignment of bs-cell blocks per (row, trial); with Config.Anglesets,
// angleset-aggregated and audited as such.
func fig3(id, about, meshName string, bs int, names ...heuristics.Name) figure {
	f := figure{id: id, paper: true, title: id + ": " + about, meshes: []string{meshName}, ks: []int{4, 24, 48}, seed: mixed(0xf30),
		cols: []col{{name: "k", cell: dirs}, {name: "m", cell: procs}}}
	opts := func(p *point) sweepsched.ScheduleOptions {
		return sweepsched.ScheduleOptions{BlockSize: bs, Anglesets: p.g.cfg.Anglesets}
	}
	for i, name := range names {
		f.runs = append(f.runs, run{alg: name, opts: opts})
		f.cols = append(f.cols, col{name: "ratio_" + string(name), run: i, metric: ratio})
	}
	return f
}

// with adds claims to a figure built by a constructor.
func (f figure) with(claims ...claim) figure {
	f.claims = append(f.claims, claims...)
	return f
}

// delayRange is ablate_delay's column for delay range R.
func delayRange(R int) run {
	return run{do: func(p *point, seed uint64) (*sample, error) {
		r := rng.New(seed)
		return levelDelayed(p, sched.RandomAssignment(p.inst.N(), p.m, r), R, r)
	}}
}

// levelDelayed list-schedules Γ(v,i) = level_i(v) + X_i.
func levelDelayed(p *point, assign sched.Assignment, R int, r *rng.Source) (*sample, error) {
	ws := sched.GetWorkspace(p.inst)
	defer ws.Release()
	prio := ws.PrioBuf(p.inst.NTasks())
	heuristics.LevelPrioritiesInto(prio, p.inst, p.g.cfg.Workers)
	delayInto(prio, p.inst, R, r)
	dst := &sched.Schedule{}
	if err := ws.Schedule(dst, p.inst, assign, sched.Rule{Prio: prio}); err != nil {
		return nil, err
	}
	met, _ := ws.Metrics()
	return &sample{s: dst, met: &met}, nil
}

// delayInto adds Algorithm 2's delay X_i to direction i's priorities, each
// drawn in turn from r (not from core.Delays' substreams), uniform on
// {0..R-1}.
func delayInto(prio sched.Priorities, inst *sched.Instance, R int, r *rng.Source) {
	x := make([]int32, inst.K())
	for i := range x {
		x[i] = int32(r.Intn(max(R, 1)))
	}
	core.DelayPrioritiesInto(prio, inst.N(), x)
}

// policyRows are ablate_assign's rows: every policy at every m.
func policyRows(g *group) ([]*point, error) {
	var pts []*point
	for _, m := range g.cfg.Procs {
		for x := range 6 {
			pts = append(pts, &point{g: g, m: m, x: x})
		}
	}
	return pts, nil
}

// policyBlock is the block size of ablate_assign's block policies.
func policyBlock(p *point) int { return max(2, p.g.w.Mesh.NCells()/(8*p.m)) }

// bigBlocks is A2's regime: the blocks row of an m whose blocks hold at
// least 16 cells.
func bigBlocks(p *point) bool { return p.x == 3 && policyBlock(p) >= 16 }

func policyName(p *point, _ []float64) any {
	return []string{"random", "roundrobin", "slabs", fmt.Sprintf("blocks(%d)", policyBlock(p)),
		fmt.Sprintf("sfc(%d)", policyBlock(p)), "partition_m"}[p.x]
}

// policyAssignment draws the row's policy's assignment.
func policyAssignment(p *point, r *rng.Source) (sched.Assignment, error) {
	n, m, msh := p.inst.N(), p.m, p.g.w.Mesh
	a := make(sched.Assignment, n)
	switch p.x {
	case 0:
		return sched.RandomAssignment(n, m, r), nil
	case 1:
		for v := range a {
			a[v] = int32(v % m)
		}
	case 2:
		for v := range a {
			a[v] = int32(v * m / n)
		}
	case 3:
		part, nBlocks, err := partition.Blocks(partition.FromMesh(msh), policyBlock(p), 0x9e3779b9)
		if err != nil {
			return nil, err
		}
		return sched.BlockAssignment(part, nBlocks, m, r), nil
	case 4:
		part, nBlocks, err := partition.MortonBlocks(msh.Centroids, policyBlock(p))
		if err != nil {
			return nil, err
		}
		return sched.BlockAssignment(part, nBlocks, m, r), nil
	case 5:
		part, nBlocks, err := partition.Blocks(partition.FromMesh(msh), (n+m-1)/m, 0x517)
		if err != nil {
			return nil, err
		}
		if nBlocks > m {
			return nil, fmt.Errorf("partition_m: %d parts for %d processors", nBlocks, m)
		}
		copy(a, part)
	}
	return a, nil
}

// realizedRounds colors each step's message multigraph with both the
// sequential greedy and the [11]-style distributed algorithm, and sums the
// colors used by each.
func realizedRounds(s *sched.Schedule, seed uint64) (greedyTotal, distribTotal int64, err error) {
	inst := s.Inst
	n := int32(inst.N())
	perStep := make(map[int32][]coloring.Edge)
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for u := int32(0); u < n; u++ {
			pu := s.Assign[u]
			st := s.Start[base+u]
			for _, w := range d.Out(u) {
				if s.Assign[w] != pu {
					perStep[st] = append(perStep[st], coloring.Edge{From: pu, To: s.Assign[w]})
				}
			}
		}
	}
	for st, edges := range perStep {
		_, gColors, err := coloring.Greedy(inst.M, edges)
		if err != nil {
			return 0, 0, err
		}
		greedyTotal += int64(gColors)
		_, dColors, _, err := coloring.Distributed(inst.M, edges, seed^uint64(st), 0.2)
		if err != nil {
			return 0, 0, err
		}
		distribTotal += int64(dColors)
	}
	return greedyTotal, distribTotal, nil
}

// commTraffic solves the row's plan on the transport executor, batched
// and on the per-message oracle.
func commTraffic(p *point, res *sweepsched.Result) (*sample, error) {
	cfg := p.g.cfg
	tcfg := sweepsched.TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1, Verify: cfg.Verify, Collector: cfg.Collector}
	b, err := p.prob.SolveTransportParallel(res, tcfg)
	if err != nil {
		return nil, err
	}
	tcfg.NoBatch, tcfg.Collector = true, nil // the collector counts the batched run only
	o, err := p.prob.SolveTransportParallel(res, tcfg)
	if err != nil {
		return nil, err
	}
	if !slices.EqualFunc(b.Phi, o.Phi, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		return nil, fmt.Errorf("comm: m=%d batched and oracle fluxes differ bitwise", p.m)
	}
	if b.Comm.Messages != o.Comm.Messages || b.Comm.Rounds != o.Comm.Rounds {
		return nil, fmt.Errorf("comm: m=%d logical traffic differs across modes: batched %d msgs/%d rounds, oracle %d/%d",
			p.m, b.Comm.Messages, b.Comm.Rounds, o.Comm.Messages, o.Comm.Rounds)
	}
	// A6: one message per cross edge per sweep, and the per-step maxima.
	if met, it := res.Metrics, int64(b.Iterations); b.Comm.Messages != it*met.C1 || b.Comm.Rounds != it*met.C2 {
		return nil, fmt.Errorf("comm: m=%d claim A6 fails: %d sweeps sent %d msgs in %d rounds, want C1=%d and C2=%d per sweep",
			p.m, it, b.Comm.Messages, b.Comm.Rounds, met.C1, met.C2)
	}
	return &sample{v: []float64{float64(b.Comm.Messages), float64(b.Comm.Rounds), float64(b.Comm.Batches), float64(b.Comm.Bytes),
		float64(o.Comm.Bytes), per(b.Comm.Messages, b.Comm.Batches), per(o.Comm.Bytes, b.Comm.Bytes)}}, nil
}

// per renders a/b, guarding the empty-traffic case (m=1 or a schedule
// with no cross edges sends nothing in either mode).
func per(a, b int64) float64 {
	if b == 0 {
		return 1
	}
	return float64(a) / float64(b)
}

var nongeomKinds = []sweepsched.NonGeometricKind{sweepsched.RandomChains, sweepsched.LayeredRandom, sweepsched.HeuristicTrap}

// nongeomRows builds nongeom's problems: n = 60·(scale·100) cells (at
// least 60), k = 8, m = 8.
func nongeomRows(g *group) ([]*point, error) {
	n := max(60, 60*int(g.cfg.Scale*100))
	var pts []*point
	for i, kind := range nongeomKinds {
		prob, err := sweepsched.NewProblemNonGeometric(kind, n, 8, 8, g.cfg.Seed)
		if err != nil {
			return nil, err
		}
		pts = append(pts, &point{g: g, m: 8, x: i, prob: prob})
	}
	return pts, nil
}

// optCases are optratio's rows.
var optCases = []struct {
	name    string
	n, k, m int
	chains  bool // random chains, else layered random DAGs of width 2
}{
	{"chains_4x3", 4, 3, 2, true},
	{"chains_5x2", 5, 2, 2, true},
	{"layered_6x2", 6, 2, 2, false},
	{"layered_5x3", 5, 3, 3, false},
}

// optRatios draws one instance of the row's case from seed, solves it
// exactly, and measures three schedulers against the optimum.
func optRatios(p *point, seed uint64) (*sample, error) {
	c := optCases[p.x]
	var dags []*dag.DAG
	var err error
	if c.chains {
		dags, err = synth.RandomChains(c.n, c.k, seed)
	} else {
		dags, err = synth.LayeredRandom(c.n, c.k, 2, seed)
	}
	if err != nil {
		return nil, err
	}
	inst, err := sched.FromDAGs(dags, c.m)
	if err != nil {
		return nil, err
	}
	optimal, err := opt.Exact(inst)
	if err != nil {
		return nil, err
	}
	s := &sample{v: []float64{float64(optimal), float64(inst.NTasks()) / float64(c.m)}}
	assign := sched.RandomAssignment(inst.N(), c.m, rng.New(seed^0xbead))
	for _, name := range []heuristics.Name{heuristics.RandomDelaysPriority, heuristics.Level, heuristics.DFDS} {
		sn, err := heuristics.Run(name, inst, assign, rng.New(seed^0xfeed), 1)
		if err != nil {
			return nil, err
		}
		s.v = append(s.v, float64(sn.Makespan)/float64(optimal))
	}
	return s, nil
}

var faultSpecs = []faults.Spec{
	{},
	{Drops: 4, Delays: 4},
	{Crashes: 1},
	{Crashes: 2, Drops: 4},
	{Crashes: 4, Drops: 8, Delays: 4},
}

// weightedRows draws the cell costs, then per m a random and a balanced
// assignment, or one skipped row.
func weightedRows(g *group) ([]*point, error) {
	r := rng.New(g.cfg.Seed ^ 0xdead)
	g.weights = make(sched.CellWeights, g.w.Mesh.NCells())
	for v := range g.weights {
		g.weights[v] = int32(math.Round(4*math.Exp(0.75*r.NormFloat64()))) + 1
	}
	var pts []*point
	for _, m := range g.cfg.Procs {
		inst, err := g.w.Instance(m)
		if err != nil {
			return nil, err
		}
		model := sched.CycledSpeeds(g.cfg.Speeds, m)
		bounds := lb.ComputeWeighted(inst, g.weights, model)
		if bounds.Load < float64(bounds.CriticalPath) {
			pts = append(pts, &point{g: g, cells: []any{m, fmt.Sprintf("skipped: crit %d > load %.4g", bounds.CriticalPath, bounds.Load),
				"-", "-", "-", "-", "-", "-", "-"}})
			continue
		}
		random := sched.RandomAssignment(len(g.weights), m, rng.New(g.cfg.Seed^0x123^uint64(m)))
		pg := partition.FromMesh(g.w.Mesh)
		copy(pg.VWeight, g.weights)
		balanced, err := partition.KWay(pg, m, partition.Options{Seed: g.cfg.Seed ^ 0x777})
		if err != nil {
			return nil, err
		}
		for x, assign := range []sched.Assignment{random, balanced} {
			pts = append(pts, &point{g: g, m: m, x: x, inst: inst, assign: assign, model: model, bounds: bounds})
		}
	}
	return pts, nil
}

// weightedRun is one weighted column: base priorities as the API derives
// them, rdp's delays drawn in turn from one stream.
func weightedRun(base heuristics.Name, delays bool) run {
	return run{once: true, do: func(p *point, seed uint64) (*sample, error) {
		ws := sched.GetWorkspace(p.inst)
		defer ws.Release()
		rule, err := heuristics.Rule(ws, base, p.inst, p.assign, nil, nil, p.g.cfg.Workers)
		if err != nil {
			return nil, err
		}
		if delays {
			delayInto(rule.Prio, p.inst, p.inst.K(), rng.New(seed))
		}
		s := &sched.WeightedSchedule{}
		return &sample{w: s}, sched.ListScheduleWeightedInto(ws, s, p.inst, p.assign, rule.Prio, p.g.weights, p.model)
	}}
}
