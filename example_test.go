package sweepsched_test

import (
	"fmt"
	"math"

	"sweepsched"
)

// ExampleProblem_Schedule builds a small problem and runs the paper's
// Algorithm 2. All randomness is seeded, so the output is stable.
func ExampleProblem_Schedule() {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		panic(err)
	}
	res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cells=%d directions=%d processors=%d\n", p.N(), p.K(), p.M())
	fmt.Printf("ratio below 3: %v\n", res.Ratio < 3)
	fmt.Printf("schedule covers all tasks: %v\n", len(res.Schedule.Start) == p.Tasks())
	// Output:
	// cells=315 directions=8 processors=4
	// ratio below 3: true
	// schedule covers all tasks: true
}

// ExampleProblem_Simulate replays a schedule on the message-passing
// simulator and cross-checks the analytic communication metrics.
func ExampleProblem_Simulate() {
	p, err := sweepsched.NewProblemFromFamily("long", 0.01, 4, 4, 2)
	if err != nil {
		panic(err)
	}
	res, err := p.Schedule(sweepsched.DFDS, sweepsched.ScheduleOptions{Seed: 3, BlockSize: 8})
	if err != nil {
		panic(err)
	}
	sim, err := p.Simulate(res)
	if err != nil {
		panic(err)
	}
	fmt.Println("steps match makespan:", sim.Steps == res.Metrics.Makespan)
	fmt.Println("messages match C1:", sim.TotalMessages == res.Metrics.C1)
	fmt.Println("rounds match C2:", sim.CommRounds == res.Metrics.C2)
	// Output:
	// steps match makespan: true
	// messages match C1: true
	// rounds match C2: true
}

// ExampleSchedulers lists the available algorithms.
func ExampleSchedulers() {
	for _, s := range sweepsched.Schedulers() {
		fmt.Println(s)
	}
	// Output:
	// random_delays
	// random_delays_priority
	// improved_delays
	// level
	// level_delays
	// descendant
	// descendant_delays
	// dfds
	// dfds_delays
}

// ExampleProblem_ScheduleComm schedules under §3's uniform
// communication-delay model. The model applies no release delays, so a
// *_delays scheduler contributes its priorities only and schedules
// exactly as its plain form.
func ExampleProblem_ScheduleComm() {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		panic(err)
	}
	opts := sweepsched.ScheduleOptions{Seed: 2, BlockSize: 16}
	plain, err := p.ScheduleComm(sweepsched.Level, opts, 3)
	if err != nil {
		panic(err)
	}
	delayed, err := p.ScheduleComm(sweepsched.LevelDelays, opts, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("level_delays schedules as level:", delayed.Metrics == plain.Metrics)
	// Output:
	// level_delays schedules as level: true
}

// ExampleProblem_SolveTransport runs the bundled S_N transport solver on a
// schedule — the application sweeps exist for.
func ExampleProblem_SolveTransport() {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.01, 8, 4, 5)
	if err != nil {
		panic(err)
	}
	res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	sol, err := p.SolveTransport(res, sweepsched.TransportConfig{
		SigmaT: 1, SigmaS: 0.5, Source: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", sol.Converged)
	fmt.Println("all fluxes positive:", allPositive(sol.Phi))
	// Output:
	// converged: true
	// all fluxes positive: true
}

// ExampleProblem_SolveMultigroup couples two energy groups through
// downscatter and sweeps both with one schedule, as production S_N codes
// amortize a schedule over G groups.
func ExampleProblem_SolveMultigroup() {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.01, 8, 4, 1)
	if err != nil {
		panic(err)
	}
	res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 3})
	if err != nil {
		panic(err)
	}
	mg, err := p.SolveMultigroup(res, sweepsched.MultigroupConfig{
		Groups: []sweepsched.GroupSpec{
			{SigmaT: 1.0, Source: 1.0},
			{SigmaT: 0.9, Source: 0.1},
		},
		Scatter: [][]float64{
			{0.2, 0.3},
			{0, 0.4},
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("converged:", mg.Converged, "groups:", len(mg.Phi))
	for g, phi := range mg.Phi {
		fmt.Printf("group %d: all fluxes positive: %v\n", g, allPositive(phi))
	}
	// Output:
	// converged: true groups: 2
	// group 0: all fluxes positive: true
	// group 1: all fluxes positive: true
}

// Example_quickstart is the pipeline on a tetonly-like mesh at 10% of the
// paper's 31,481 cells, swept in 24 directions on 64 processors: bounds,
// Algorithm 2 with per-cell and with block assignment, and a replay of the
// block schedule on the message-passing simulator, where every precedence
// is enforced by a message or a local completion.
func Example_quickstart() {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.10, 24, 64, 42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("instance: %d cells × %d directions = %d tasks on %d processors\n",
		p.N(), p.K(), p.Tasks(), p.M())
	b := p.Bounds()
	fmt.Printf("lower bounds: load nk/m = %.1f, per-cell k = %d, critical path D = %d\n",
		b.Load, b.PerCell, b.CriticalPath)

	// Per-cell random assignment: the best makespan, heavy communication.
	cell, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("per-cell assignment:  makespan=%5d  ratio=%.3f  C1=%7d  C2=%6d\n",
		cell.Metrics.Makespan, cell.Ratio, cell.Metrics.C1, cell.Metrics.C2)

	// Block assignment (§5.1): a longer makespan, far fewer interprocessor
	// edges. Blocks of 16 keep the block count well above m; the paper's
	// meshes are 10x larger, so its blocks of 64-256 have the same headroom.
	block, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{BlockSize: 16, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("block-16 assignment:  makespan=%5d  ratio=%.3f  C1=%7d  C2=%6d\n",
		block.Metrics.Makespan, block.Ratio, block.Metrics.C1, block.Metrics.C2)

	sim, err := p.Simulate(block)
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulator confirms: %d steps, %d messages, %d comm rounds\n",
		sim.Steps, sim.TotalMessages, sim.CommRounds)
	// Output:
	// instance: 3148 cells × 24 directions = 75552 tasks on 64 processors
	// lower bounds: load nk/m = 1180.5, per-cell k = 24, critical path D = 94
	// per-cell assignment:  makespan= 1552  ratio=1.315  C1= 138896  C2=  4595
	// block-16 assignment:  makespan= 3679  ratio=3.116  C1=  50296  C2=  6566
	// simulator confirms: 3679 steps, 50296 messages, 6566 comm rounds
}

// Example_partitioning is §5.1's communication trade-off. Assigning each
// cell to a random processor gives the best makespan but makes almost
// every DAG edge interprocessor; assigning multilevel-partitioned blocks
// cuts C1 while the makespan grows, and C2 stays far below C1. Once the
// block count falls near or below m, load balance and the makespan
// degrade: the paper's 31k-cell mesh keeps #blocks >> m at block 64.
func Example_partitioning() {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.1, 24, 64, 5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mesh tetonly: n=%d, k=%d, m=%d\n", p.N(), p.K(), p.M())
	fmt.Printf("%9s  %8s  %9s  %7s  %9s  %8s  %8s\n",
		"block", "#blocks", "makespan", "ratio", "C1", "C2", "C1 drop")
	var baseC1 int64
	for _, bs := range []int{1, 4, 16, 64, 256, 1024} {
		res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{BlockSize: bs, Seed: 2})
		if err != nil {
			panic(err)
		}
		if bs == 1 {
			baseC1 = res.Metrics.C1
		}
		fmt.Printf("%9d  %8d  %9d  %7.3f  %9d  %8d  %7.1fx\n",
			bs, (p.N()+bs-1)/bs, res.Metrics.Makespan, res.Ratio, res.Metrics.C1, res.Metrics.C2,
			float64(baseC1)/float64(res.Metrics.C1))
	}
	// Output:
	// mesh tetonly: n=3148, k=24, m=64
	//     block   #blocks   makespan    ratio         C1        C2   C1 drop
	//         1      3148       1564    1.325     139324      4651      1.0x
	//         4       787       2104    1.782      76264      4688      1.8x
	//        16       197       3231    2.737      49688      5919      2.8x
	//        64        50       4845    4.104      28388      6805      4.9x
	//       256        13      16536   14.008      15088      9892      9.2x
	//      1024         4      19656   16.651       7868      6778     17.7x
}

// Example_scaling is the paper's headline scaling observation (§5.1,
// Figure 2(c)): Algorithm 2 (rdp) stays within 3·nk/m as m grows — linear
// speedup — while the layered Algorithm 1 (rd) degrades at high processor
// counts. ratio* is over the stronger bound max(nk/m, k, D): once nk/m
// falls to D the load bound stops binding, which on the paper's 20x larger
// meshes happens only past 512 processors.
func Example_scaling() {
	const k = 24
	serial := 0
	for _, m := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512} {
		p, err := sweepsched.NewProblemFromFamily("long", 0.05, k, m, 9)
		if err != nil {
			panic(err)
		}
		if m == 1 {
			fmt.Printf("mesh long: n=%d cells, k=%d directions (nk = %d tasks), critical path D=%d\n",
				p.N(), k, p.Tasks(), p.Bounds().CriticalPath)
			fmt.Printf("%6s  %10s  %12s %8s  %12s %8s %8s  %9s\n",
				"m", "lb=nk/m", "rd_makespan", "rd_ratio", "rdp_makespan", "rdp_ratio", "ratio*", "speedup")
		}
		rd, err := p.Schedule(sweepsched.RandomDelays, sweepsched.ScheduleOptions{Seed: 1})
		if err != nil {
			panic(err)
		}
		rdp, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 1})
		if err != nil {
			panic(err)
		}
		if m == 1 {
			serial = rdp.Metrics.Makespan
		}
		fmt.Printf("%6d  %10.1f  %12d %8.3f  %12d %8.3f %8.3f  %8.1fx\n",
			m, float64(p.Tasks())/float64(m),
			rd.Metrics.Makespan, rd.Ratio,
			rdp.Metrics.Makespan, rdp.Ratio, float64(rdp.Metrics.Makespan)/float64(p.Bounds().Max()),
			float64(serial)/float64(rdp.Metrics.Makespan))
	}
	// Output:
	// mesh long: n=3087 cells, k=24 directions (nk = 74088 tasks), critical path D=299
	//      m     lb=nk/m   rd_makespan rd_ratio  rdp_makespan rdp_ratio   ratio*    speedup
	//      1     74088.0         74088    1.000         74088    1.000    1.000       1.0x
	//      2     37044.0         38731    1.046         37346    1.008    1.008       2.0x
	//      4     18522.0         20764    1.121         19105    1.031    1.031       3.9x
	//      8      9261.0         11508    1.243          9760    1.054    1.054       7.6x
	//     16      4630.5          6679    1.442          5204    1.124    1.124      14.2x
	//     32      2315.2          4094    1.768          2785    1.203    1.203      26.6x
	//     64      1157.6          2693    2.326          1570    1.356    1.356      47.2x
	//    128       578.8          1889    3.264           958    1.655    1.655      77.3x
	//    256       289.4          1430    4.941           670    2.315    2.241     110.6x
	//    512       144.7          1129    7.802           498    3.442    1.666     148.8x
}

// Example_transport is a discrete-ordinates (S_N) radiation transport
// solve, the paper's motivating application, driven by a sweep schedule:
// source iteration alternates sweeps in the schedule's order with a
// scattering-source update. It solves once serially and once on the
// modelled machine the schedule was made for, whose processors exchange
// angular fluxes through the interconnect; the fluxes agree bit for bit.
func Example_transport() {
	p, err := sweepsched.NewProblemFromFamily("well_logging", 0.05, 8, 16, 7)
	if err != nil {
		panic(err)
	}
	res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{BlockSize: 32, Seed: 3})
	if err != nil {
		panic(err)
	}
	fmt.Printf("S_N transport on %d cells × %d directions, schedule: %d processors, makespan %d (ratio %.2f)\n",
		p.N(), p.K(), p.M(), res.Metrics.Makespan, res.Ratio)
	cfg := sweepsched.TransportConfig{
		SigmaT: 1.0,  // total cross-section
		SigmaS: 0.6,  // scattering (must stay below SigmaT)
		Source: 1.0,  // uniform external source
		Tol:    1e-9, // scalar-flux convergence threshold
	}
	serial, err := p.SolveTransport(res, cfg)
	if err != nil {
		panic(err)
	}
	parallel, err := p.SolveTransportParallel(res, cfg)
	if err != nil {
		panic(err)
	}
	same := serial.Iterations == parallel.Iterations
	for v := range serial.Phi {
		same = same && serial.Phi[v] == parallel.Phi[v]
	}
	mean, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
	for _, f := range serial.Phi {
		mean += f
		lo, hi = min(lo, f), max(hi, f)
	}
	mean /= float64(len(serial.Phi))
	fmt.Printf("converged in %d source iterations (residual %.2e)\n", serial.Iterations, serial.Residual)
	fmt.Printf("scalar flux: mean=%.4f min=%.4f max=%.4f\n", mean, lo, hi)
	fmt.Printf("modelled machine, %d processors: flux bitwise-identical to the serial solve: %v\n", p.M(), same)
	// Output:
	// S_N transport on 2151 cells × 8 directions, schedule: 16 processors, makespan 2211 (ratio 2.06)
	// converged in 41 source iterations (residual 8.49e-10)
	// scalar flux: mean=2.3758 min=1.3988 max=2.4876
	// modelled machine, 16 processors: flux bitwise-identical to the serial solve: true
}

// Example_nongeometric runs the schedulers on mesh-free instances (§2:
// the algorithms are "applicable even to non-geometric instances"):
// independent random chains, random layered DAGs, and a heuristic trap
// where every direction funnels through the same cell groups. Then it
// finds a true optimum by exhaustive search on a tiny instance, which the
// paper could only bound by nk/m ("we do not know the value of the optimal
// solution").
func Example_nongeometric() {
	algs := []sweepsched.Scheduler{
		sweepsched.RandomDelaysPriority, sweepsched.Level, sweepsched.Descendant, sweepsched.DFDS,
	}
	fmt.Printf("%-16s", "instance")
	for _, a := range algs {
		fmt.Printf("  %22s", a)
	}
	fmt.Println()
	for _, kind := range []sweepsched.NonGeometricKind{
		sweepsched.RandomChains, sweepsched.LayeredRandom, sweepsched.HeuristicTrap,
	} {
		p, err := sweepsched.NewProblemNonGeometric(kind, 600, 8, 8, 11)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-16s", kind)
		for _, alg := range algs {
			res, err := p.Schedule(alg, sweepsched.ScheduleOptions{Seed: 5})
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %22.3f", res.Ratio)
		}
		fmt.Println()
	}

	// 4 cells × 3 chain directions on 2 processors.
	tiny, err := sweepsched.NewProblemNonGeometric(sweepsched.RandomChains, 4, 3, 2, 3)
	if err != nil {
		panic(err)
	}
	optimal, err := tiny.ExactOptimal()
	if err != nil {
		panic(err)
	}
	res, err := tiny.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 9})
	if err != nil {
		panic(err)
	}
	load := float64(tiny.Tasks()) / float64(tiny.M())
	fmt.Printf("tiny: exact OPT = %d, algorithm makespan = %d (true ratio %.3f)\n",
		optimal, res.Metrics.Makespan, float64(res.Metrics.Makespan)/float64(optimal))
	fmt.Printf("tiny: nk/m lower bound = %.1f — %.0f%% of the nk/m 'ratio' here is bound slack\n",
		load, 100*(1-load/float64(optimal)))
	// Output:
	// instance          random_delays_priority                   level              descendant                    dfds
	// random_chains                      1.672                   1.670                   1.670                   1.627
	// layered_random                     1.320                   1.320                   1.320                   1.320
	// heuristic_trap                     2.122                   2.257                   2.257                   2.192
	// tiny: exact OPT = 6, algorithm makespan = 9 (true ratio 1.500)
	// tiny: nk/m lower bound = 6.0 — 0% of the nk/m 'ratio' here is bound slack
}

func allPositive(xs []float64) bool {
	for _, x := range xs {
		if x <= 0 {
			return false
		}
	}
	return true
}
