// Command sweepsim runs one scheduler on one instance, prints the metrics,
// and optionally replays the schedule on the barrier-step
// message-passing simulator as an independent feasibility check.
//
// With -faults it re-executes the schedule under a deterministic
// fault plan drawn from -seed (processor crashes, message drops/delays/
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
//	sweepsim -mesh long -k 8 -m 16 -faults -crash 2 -drop 3 -seed 11
//	sweepsim -mesh tetonly -scale 0.002 -k 8 -m 4 -faults -procs -crash 1 -sever 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"sweepsched"
	"sweepsched/internal/cliutil"
	"sweepsched/internal/sched"
)

func main() {
	// If the multi-process executor re-exec'd us as a worker, become one
	// before touching flags (the worker env var carries everything).
	sweepsched.MaybeProcWorker()
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweepsim:", err)
		os.Exit(1)
	}
}

// run is the command on its arguments. It returns every error it meets,
// so that its deferred work — the -procs checkpoint directory's removal,
// the -stats report — is done before main exits.
func run(args []string) (err error) {
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
		commC      = flag.Int("c", 0, "uniform communication delay (steps per cross-processor edge)")
		saveTrace  = flag.String("savetrace", "", "write the schedule trace to this path (view with sweepview)")
		weightSeed = flag.Uint64("weights", 0, "draw log-normal per-cell costs with this seed and run the weighted engine (0 derives the seed from -seed)")
		speedsSpec = flag.String("speeds", "", "comma-separated per-processor speed pattern, cycled over m, e.g. 1,2,4 (runs the weighted engine; duration = ceil(weight/speed))")
		workers    = flag.Int("workers", 0, "goroutines for per-direction pipeline stages (0 = GOMAXPROCS; output is identical for any value)")
		anglesets  = flag.Int("anglesets", 0, "aggregate directions into about this many octant anglesets (priorities once per angleset on representative DAGs; omit for the per-direction pipeline)")
		doVerify   = flag.Bool("verify", false, "audit the schedule with the internal/verify auditor (independent recomputation of every constraint and metric)")
		doStats    = flag.Bool("stats", false, "print the run's counters and stage timings on exit")
		doFaults   = flag.Bool("faults", false, "execute under an injected fault plan with checkpointed recovery")
		nCrash     = flag.Int("crash", 1, "processor crashes to inject (with -faults)")
		nDrop      = flag.Int("drop", 0, "message drops to inject (with -faults)")
		nDelay     = flag.Int("delay", 0, "message delays to inject (with -faults)")
		nDup       = flag.Int("dup", 0, "message duplications to inject (with -faults)")
		nSever     = flag.Int("sever", 0, "worker coordinator sockets to sever (with -faults -procs)")
		doProcs    = flag.Bool("procs", false, "with -faults, execute on real worker OS processes: crashes become kill -9, severs become closed sockets")
	)
	if err := flag.CommandLine.Parse(args); err != nil {
		return err
	}

	speeds, err := cliutil.ParseSpeeds(*speedsSpec)
	if err != nil {
		return err
	}
	// -weights and -speeds select the weighted engine. -anglesets
	// distinguishes "absent" (per-direction) from an explicit value, which
	// must name at least one angleset.
	weighted, anglesetsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "weights", "speeds":
			weighted = true
		case "anglesets":
			anglesetsSet = true
		}
	})
	if anglesetsSet {
		if err := cliutil.ValidateAnglesets(*anglesets); err != nil {
			return err
		}
	}

	var p *sweepsched.Problem
	if *meshFile != "" {
		f, ferr := os.Open(*meshFile)
		if ferr != nil {
			return ferr
		}
		msh, derr := sweepsched.DecodeMesh(f)
		f.Close()
		if derr != nil {
			return derr
		}
		*meshName = msh.Name
		p, err = sweepsched.NewProblemFromMesh(msh, *k, *m)
	} else {
		p, err = sweepsched.NewProblemFromFamily(*meshName, *scale, *k, *m, *seed)
	}
	if err != nil {
		return err
	}
	bounds := p.Bounds()
	fmt.Printf("instance: mesh=%s n=%d k=%d m=%d tasks=%d\n", *meshName, p.N(), p.K(), p.M(), p.Tasks())
	fmt.Printf("lower bounds: nk/m=%.1f k=%d D=%d (max %d)\n",
		bounds.Load, bounds.PerCell, bounds.CriticalPath, bounds.Max())

	opts := sweepsched.ScheduleOptions{BlockSize: *block, Seed: *seed, Workers: *workers, Verify: *doVerify, Anglesets: *anglesets}
	var col *sweepsched.StatsCollector
	if *doStats {
		col = sweepsched.NewStatsCollector()
		opts.Collector = col
		defer func() {
			fmt.Println("-- stats --")
			if werr := col.Snapshot().WriteText(os.Stdout); werr != nil && err == nil {
				err = werr
			}
		}()
	}

	if weighted {
		ws := *weightSeed
		if ws == 0 {
			ws = *seed ^ 0x57
		}
		weights := sweepsched.LogNormalWeights(p.N(), 4, 0.75, ws)
		wres, err := p.ScheduleWeightedMachine(sweepsched.Scheduler(*alg), opts, weights, sched.CycledSpeeds(speeds, p.M()))
		if err != nil {
			return err
		}
		fmt.Printf("weighted scheduler %s (block=%d, log-normal costs, speeds=%s):\n", *alg, *block, orUniform(*speedsSpec))
		fmt.Printf("  weighted bounds: load=%.1f percell=%d crit=%d (max %d)\n",
			wres.Bounds.Load, wres.Bounds.PerCell, wres.Bounds.CriticalPath, wres.Bounds.Max())
		fmt.Printf("  makespan = %d  (ratio to load bound: %.3f, to max bound: %.3f)\n",
			wres.Makespan, wres.Ratio, wres.StrongRatio)
		if *doVerify {
			fmt.Println("  verify: weighted schedule audit passed (precedence+delays, exclusivity, durations, makespan)")
		}
		return nil
	}

	var res *sweepsched.Result
	if *commC > 0 {
		res, err = p.ScheduleComm(sweepsched.Scheduler(*alg), opts, *commC)
	} else {
		res, err = p.Schedule(sweepsched.Scheduler(*alg), opts)
	}
	if err != nil {
		return err
	}
	fmt.Printf("scheduler %s (block=%d, c=%d):\n", *alg, *block, *commC)
	fmt.Printf("  makespan = %d  (ratio to nk/m: %.3f, utilization %.1f%%)\n",
		res.Metrics.Makespan, res.Ratio, 100*res.Utilization())
	fmt.Printf("  C1 (interprocessor edges) = %d\n", res.Metrics.C1)
	fmt.Printf("  C2 (comm rounds)          = %d\n", res.Metrics.C2)
	if *doVerify {
		fmt.Println("  verify: schedule audit passed (precedence, exclusivity, copies, metrics)")
	}

	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			return err
		}
		if err := sweepsched.EncodeTrace(f, res); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", *saveTrace)
	}

	if *sim {
		sr, err := p.Simulate(res)
		if err != nil {
			return fmt.Errorf("simulation rejected the schedule: %w", err)
		}
		fmt.Printf("simulator: steps=%d messages=%d rounds=%d — schedule is feasible under message passing\n",
			sr.Steps, sr.TotalMessages, sr.CommRounds)
	}

	if *doFaults {
		ctx := context.Background()
		spec := sweepsched.FaultSpec{
			Crashes:    *nCrash,
			Drops:      *nDrop,
			Delays:     *nDelay,
			Duplicates: *nDup,
			Severs:     *nSever,
		}
		plan := sweepsched.NewFaultPlan(res, spec, *seed)
		fmt.Printf("fault plan (seed=%d): %s\n", *seed, plan)

		cfg := sweepsched.TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1, Verify: *doVerify, Collector: col}
		serial, err := p.SolveTransport(res, cfg)
		if err != nil {
			return err
		}

		if *doProcs {
			dir, err := os.MkdirTemp("", "sweepsim-ckpt-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			pres, err := p.SolveTransportProcs(ctx, res, cfg, plan, sweepsched.ProcRunOptions{CkptDir: dir, Collector: col})
			if err != nil {
				return fmt.Errorf("multi-process transport failed: %w", err)
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
				return fmt.Errorf("procrun: recovered flux differs from serial solve in %d of %d cells", mismatch, len(pres.Phi))
			}
			if *doStats {
				fmt.Println("-- merged worker stats --")
				if err := pres.Merged.WriteText(os.Stdout); err != nil {
					return err
				}
			}
			return nil
		}

		sr, rep, err := p.SimulateFaulty(ctx, res, plan)
		if err != nil {
			return fmt.Errorf("fault-injected simulation failed: %w", err)
		}
		fmt.Printf("faulty simulator: steps=%d messages=%d rounds=%d (fault-free makespan %d, penalty %d steps)\n",
			sr.Steps, sr.TotalMessages, sr.CommRounds, res.Metrics.Makespan, rep.Penalty())
		fmt.Println(rep)

		ft, _, err := p.SolveTransportFaultTolerant(ctx, res, cfg, plan)
		if err != nil {
			return fmt.Errorf("fault-tolerant transport failed: %w", err)
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
			return fmt.Errorf("transport: recovered flux differs from serial solve in %d of %d cells", mismatch, len(ft.Phi))
		}
	}
	return nil
}

func orUniform(s string) string {
	if s == "" {
		return "uniform"
	}
	return s
}
