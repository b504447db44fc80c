// Command sweepbench regenerates the paper's figures and tables.
//
// Usage:
//
//	sweepbench -exp fig2a                 # one experiment
//	sweepbench -exp all                   # everything
//	sweepbench -exp speedup -scale 1.0    # paper-size meshes (slow)
//	sweepbench -list                      # available experiment ids
//
// Output is a text table per experiment, with the same rows/series as the
// corresponding figure. The experiment index is in
// DESIGN.md, "Experiments and acceptance criteria", and EXPERIMENTS.md
// has the recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"sweepsched/internal/cliutil"
	"sweepsched/internal/experiments"
	"sweepsched/internal/obs"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id, or 'all'")
		scale      = flag.Float64("scale", 0.05, "mesh scale relative to paper cell counts (1.0 = paper size)")
		seed       = flag.Uint64("seed", 1, "master random seed")
		trials     = flag.Int("trials", 3, "trials per randomized configuration")
		procs      = flag.String("procs", "2,8,32,128,512", "comma-separated processor counts")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csv        = flag.Bool("csv", false, "emit CSV tables instead of aligned text")
		workers    = flag.Int("workers", 0, "goroutines for experiment rows and per-direction pipeline stages (0 = GOMAXPROCS; output is identical for any value)")
		anglesets  = flag.Int("anglesets", 0, "run the fig3 harness with priorities aggregated into about this many octant anglesets (omit for the per-direction pipeline)")
		speedsSpec = flag.String("speeds", "", "comma-separated per-processor speed pattern for the weighted experiment, cycled over each m, e.g. 1,2,4 (empty = uniform machine)")
		doVerify   = flag.Bool("verify", false, "audit every produced schedule with the internal/verify auditor (fails fast on the first violation)")
		doStats    = flag.Bool("stats", false, "print accumulated counters and stage timings after the experiments")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	flag.Visit(func(f *flag.Flag) {
		if f.Name == "anglesets" {
			if err := cliutil.ValidateAnglesets(*anglesets); err != nil {
				fatal(err)
			}
		}
	})

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
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

	procList, err := parseProcs(*procs)
	if err != nil {
		fatal(err)
	}
	speeds, err := cliutil.ParseSpeeds(*speedsSpec)
	if err != nil {
		fatal(err)
	}
	cfg := experiments.Config{
		Scale:     *scale,
		Seed:      *seed,
		Trials:    *trials,
		Procs:     procList,
		Out:       os.Stdout,
		CSV:       *csv,
		Workers:   *workers,
		Verify:    *doVerify,
		Anglesets: *anglesets,
		Speeds:    speeds,
	}
	if *doStats {
		cfg.Collector = obs.New()
	}

	names := []string{*exp}
	switch *exp {
	case "all":
		names = experiments.Names()
	case "paper":
		names = experiments.Paper()
	}
	for _, name := range names {
		start := time.Now()
		if err := experiments.Run(name, cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		// The wall clock goes to stderr: stdout is a function of the flags.
		fmt.Fprintf(os.Stderr, "# %s done in %v\n", name, time.Since(start).Round(time.Millisecond))
		fmt.Println()
	}
	if cfg.Collector != nil {
		fmt.Println("# stats")
		if err := cfg.Collector.Snapshot().WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func parseProcs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad processor count %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no processor counts in %q", s)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepbench:", err)
	os.Exit(1)
}
