// Command sweepsim runs one scheduler on one instance, prints the metrics,
// and optionally replays the schedule on the barrier-step
// message-passing simulator as an independent feasibility check.
//
// With -faults it re-executes the schedule under a deterministic
// seed-derived fault plan (processor crashes, message drops/delays/
// duplicates) with checkpointed recovery rescheduling, then cross-checks
// the fault-tolerant transport solve against the serial solver bit for
// bit.
//
// Adding -procs moves that execution onto real worker OS processes over
// localhost TCP: planned crashes are delivered as actual kill -9 and
// planned severs (-sever) as closed sockets, with recovery rolling back
// to durable on-disk checkpoints — and the converged flux must still
// match the serial solver bit for bit.
//
// Usage:
//
//	sweepsim -mesh tetonly -k 24 -m 64 -alg random_delays_priority -block 64
//	sweepsim -mesh long -k 8 -m 16 -alg dfds -simulate
//	sweepsim -mesh long -k 8 -m 16 -faults -crash 2 -drop 3 -fault-seed 11
//	sweepsim -mesh tetonly -scale 0.002 -k 8 -m 4 -faults -procs -crash 1 -sever 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"sweepsched"
	"sweepsched/internal/cliutil"
)

func main() {
	// If the multi-process executor re-exec'd us as a worker, become one
	// before touching flags (the worker env var carries everything).
	sweepsched.MaybeProcWorker()
	var (
		meshName   = flag.String("mesh", "tetonly", "mesh family")
		meshFile   = flag.String("meshfile", "", "load a sweepmesh file instead of generating -mesh")
		scale      = flag.Float64("scale", 0.05, "mesh scale relative to paper size")
		k          = flag.Int("k", 24, "number of sweep directions")
		m          = flag.Int("m", 64, "number of processors")
		alg        = flag.String("alg", string(sweepsched.RandomDelaysPriority), "scheduler name")
		block      = flag.Int("block", 1, "block size (1 = per-cell random assignment)")
		seed       = flag.Uint64("seed", 1, "random seed")
		sim        = flag.Bool("simulate", false, "replay on the message-passing simulator")
		gantt      = flag.Bool("gantt", false, "print a text Gantt chart of the schedule")
		commC      = flag.Int("c", 0, "uniform communication delay (steps per cross-processor edge)")
		saveTrace  = flag.String("savetrace", "", "write the schedule trace to this path (view with sweepview)")
		weighted   = flag.Bool("weighted", false, "draw log-normal per-cell costs and run the weighted engine")
		weightSeed = flag.Uint64("weights", 0, "seed for the log-normal per-cell cost draw (implies -weighted; default derives from -seed)")
		speedsSpec = flag.String("speeds", "", "comma-separated per-processor speed pattern, cycled over m, e.g. 1,2,4 (implies -weighted; duration = ceil(weight/speed))")
		workers    = flag.Int("workers", 0, "goroutines for per-direction pipeline stages (0 = GOMAXPROCS; output is identical for any value)")
		anglesets  = flag.Int("anglesets", 0, "aggregate directions into about this many octant anglesets (priorities once per angleset on representative DAGs; omit for the per-direction pipeline)")
		doVerify   = flag.Bool("verify", false, "audit the schedule with the internal/verify auditor (independent recomputation of every constraint and metric)")
		verifyN    = flag.Int("verify-every", 1, "with -verify, audit only every Nth scheduling run (1 = every run)")
		doStats    = flag.Bool("stats", false, "print the run's counters and stage timings on exit")
		doFaults   = flag.Bool("faults", false, "execute under an injected fault plan with checkpointed recovery")
		faultSeed  = flag.Uint64("fault-seed", 1, "seed for the fault plan (independent of -seed)")
		nCrash     = flag.Int("crash", 1, "processor crashes to inject (with -faults)")
		nDrop      = flag.Int("drop", 0, "message drops to inject (with -faults)")
		nDelay     = flag.Int("delay", 0, "message delays to inject (with -faults)")
		nDup       = flag.Int("dup", 0, "message duplications to inject (with -faults)")
		nSever     = flag.Int("sever", 0, "worker coordinator sockets to sever (with -faults -procs)")
		doProcs    = flag.Bool("procs", false, "with -faults, execute on real worker OS processes: crashes become kill -9, severs become closed sockets")
		noBatch    = flag.Bool("nobatch", false, "with -faults, run the transport executors on the per-message oracle interconnect instead of batched flux envelopes (converges bitwise-identically; only transmission counts differ)")
		ckptDir    = flag.String("ckptdir", "", "durable checkpoint directory for -procs (default: a temp dir, removed on exit)")
		timeout    = flag.Duration("timeout", 0, "overall deadline for fault-injected runs (0 = none)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if err := cliutil.ValidateVerifyEvery(*verifyN); err != nil {
		fatal(err)
	}
	speeds, err := cliutil.ParseSpeeds(*speedsSpec)
	if err != nil {
		fatal(err)
	}
	// -weights and -speeds only make sense on the weighted engine.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "weights" || f.Name == "speeds" {
			*weighted = true
		}
	})
	// -anglesets distinguishes "absent" (per-direction) from an explicit
	// value, which must name at least one angleset.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "anglesets" {
			if err := cliutil.ValidateAnglesets(*anglesets); err != nil {
				fatal(err)
			}
		}
	})
	if err := cliutil.ValidateNoBatch(*noBatch, *doFaults, "add -faults (optionally -procs) to run one"); err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	var p *sweepsched.Problem
	if *meshFile != "" {
		f, ferr := os.Open(*meshFile)
		if ferr != nil {
			fatal(ferr)
		}
		msh, derr := sweepsched.DecodeMesh(f)
		f.Close()
		if derr != nil {
			fatal(derr)
		}
		*meshName = msh.Name
		p, err = sweepsched.NewProblemFromMesh(msh, *k, *m)
	} else {
		p, err = sweepsched.NewProblemFromFamily(*meshName, *scale, *k, *m, *seed)
	}
	if err != nil {
		fatal(err)
	}
	bounds := p.Bounds()
	fmt.Printf("instance: mesh=%s n=%d k=%d m=%d tasks=%d\n", *meshName, p.N(), p.K(), p.M(), p.Tasks())
	fmt.Printf("lower bounds: nk/m=%.1f k=%d D=%d (max %d)\n",
		bounds.Load, bounds.PerCell, bounds.CriticalPath, bounds.Max())

	opts := sweepsched.ScheduleOptions{BlockSize: *block, Seed: *seed, Workers: *workers, Verify: *doVerify, VerifyEvery: *verifyN, Anglesets: *anglesets}
	var col *sweepsched.StatsCollector
	if *doStats {
		col = sweepsched.NewStatsCollector()
		opts.Collector = col
		defer func() {
			fmt.Println("-- stats --")
			if err := col.Snapshot().WriteText(os.Stdout); err != nil {
				fatal(err)
			}
		}()
	}

	if *weighted {
		ws := *weightSeed
		if ws == 0 {
			ws = *seed ^ 0x57
		}
		weights := sweepsched.LogNormalWeights(p.N(), 4, 0.75, ws)
		var model *sweepsched.MachineModel
		if len(speeds) > 0 {
			cycled := make([]int32, p.M())
			for i := range cycled {
				cycled[i] = speeds[i%len(speeds)]
			}
			model = &sweepsched.MachineModel{Speeds: cycled}
		}
		wres, err := p.ScheduleWeightedMachine(sweepsched.Scheduler(*alg), opts, weights, model)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("weighted scheduler %s (block=%d, log-normal costs, speeds=%s):\n", *alg, *block, orUniform(*speedsSpec))
		fmt.Printf("  weighted bounds: load=%.1f percell=%d crit=%d (max %d)\n",
			wres.Bounds.Load, wres.Bounds.PerCell, wres.Bounds.CriticalPath, wres.Bounds.Max())
		fmt.Printf("  makespan = %d  (ratio to load bound: %.3f, to max bound: %.3f)\n",
			wres.Makespan, wres.Ratio, wres.StrongRatio)
		if *doVerify {
			fmt.Println("  verify: weighted schedule audit passed (precedence+delays, exclusivity, durations, makespan)")
		}
		return
	}

	var res *sweepsched.Result
	if *commC > 0 {
		res, err = p.ScheduleComm(sweepsched.Scheduler(*alg), opts, *commC)
	} else {
		res, err = p.Schedule(sweepsched.Scheduler(*alg), opts)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("scheduler %s (block=%d, c=%d):\n", *alg, *block, *commC)
	fmt.Printf("  makespan = %d  (ratio to nk/m: %.3f, utilization %.1f%%)\n",
		res.Metrics.Makespan, res.Ratio, 100*res.Utilization())
	fmt.Printf("  C1 (interprocessor edges) = %d\n", res.Metrics.C1)
	fmt.Printf("  C2 (comm rounds)          = %d\n", res.Metrics.C2)
	if *doVerify {
		fmt.Println("  verify: schedule audit passed (precedence, exclusivity, copies, metrics)")
	}

	if *gantt {
		if err := res.RenderGantt(os.Stdout, 16, 100); err != nil {
			fatal(err)
		}
	}

	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			fatal(err)
		}
		if err := sweepsched.EncodeTrace(f, res); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *saveTrace)
	}

	if *sim {
		sr, err := p.Simulate(res)
		if err != nil {
			fatal(fmt.Errorf("simulation rejected the schedule: %w", err))
		}
		fmt.Printf("simulator: steps=%d messages=%d rounds=%d — schedule is feasible under message passing\n",
			sr.Steps, sr.TotalMessages, sr.CommRounds)
	}

	if *doFaults {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		spec := sweepsched.FaultSpec{
			Crashes:    *nCrash,
			Drops:      *nDrop,
			Delays:     *nDelay,
			Duplicates: *nDup,
			Severs:     *nSever,
		}
		plan := sweepsched.NewFaultPlan(res, spec, *faultSeed)
		fmt.Printf("fault plan (seed=%d): %s\n", *faultSeed, plan)

		cfg := sweepsched.TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1, Verify: *doVerify, NoBatch: *noBatch, Collector: col}
		serial, err := p.SolveTransport(res, cfg)
		if err != nil {
			fatal(err)
		}

		if *doProcs {
			dir := *ckptDir
			if dir == "" {
				tmp, err := os.MkdirTemp("", "sweepsim-ckpt-*")
				if err != nil {
					fatal(err)
				}
				defer os.RemoveAll(tmp)
				dir = tmp
			}
			pres, err := p.SolveTransportProcs(ctx, res, cfg, plan, sweepsched.ProcRunOptions{CkptDir: dir, Collector: col})
			if err != nil {
				fatal(fmt.Errorf("multi-process transport failed: %w", err))
			}
			fmt.Println(pres.Report)
			mismatch := 0
			for v := range serial.Phi {
				if serial.Phi[v] != pres.Phi[v] {
					mismatch++
				}
			}
			if mismatch == 0 {
				fmt.Printf("procrun: flux from %d worker processes bitwise-identical to serial solve (%d cells, %d iterations, %d killed)\n",
					*m, len(pres.Phi), pres.Iterations, len(pres.Report.DeadProcs))
				fmt.Printf("procrun comm: %d logical messages in %d transmissions, %d modeled wire bytes, %d rounds\n",
					pres.Comm.Messages, pres.Comm.Batches, pres.Comm.Bytes, pres.Comm.Rounds)
			} else {
				fatal(fmt.Errorf("procrun: recovered flux differs from serial solve in %d of %d cells", mismatch, len(pres.Phi)))
			}
			if *doStats {
				fmt.Println("-- merged worker stats --")
				if err := pres.Merged.WriteText(os.Stdout); err != nil {
					fatal(err)
				}
			}
			return
		}

		sr, rep, err := p.SimulateFaulty(ctx, res, plan)
		if err != nil {
			fatal(fmt.Errorf("fault-injected simulation failed: %w", err))
		}
		fmt.Printf("faulty simulator: steps=%d messages=%d rounds=%d (fault-free makespan %d, penalty %d steps)\n",
			sr.Steps, sr.TotalMessages, sr.CommRounds, res.Metrics.Makespan, rep.Penalty())
		fmt.Println(rep)

		ft, _, err := p.SolveTransportFaultTolerant(ctx, res, cfg, plan)
		if err != nil {
			fatal(fmt.Errorf("fault-tolerant transport failed: %w", err))
		}
		mismatch := 0
		for v := range serial.Phi {
			if serial.Phi[v] != ft.Phi[v] {
				mismatch++
			}
		}
		if mismatch == 0 {
			fmt.Printf("transport: recovered flux bitwise-identical to serial solve (%d cells, %d iterations)\n",
				len(ft.Phi), ft.Iterations)
			fmt.Printf("transport comm: %d logical messages in %d transmissions, %d modeled wire bytes, %d rounds\n",
				ft.Comm.Messages, ft.Comm.Batches, ft.Comm.Bytes, ft.Comm.Rounds)
		} else {
			fatal(fmt.Errorf("transport: recovered flux differs from serial solve in %d of %d cells", mismatch, len(ft.Phi)))
		}
	}
}

func orUniform(s string) string {
	if s == "" {
		return "uniform"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepsim:", err)
	os.Exit(1)
}
