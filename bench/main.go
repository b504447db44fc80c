// Command bench is the one benchmark of the whole sweepsched pipeline:
// six workloads that each stress different layers (five of them in
// BENCHMARK.json, sweep-procs run by hand), the end-to-end
// metrics a user of the library, the daemon or the worker processes
// sees, a correctness gate on every output, and a traced mode that
// records a span around each call into a layer's public functions and
// reports per-layer numbers. BENCHMARK.json at the repository root names
// this program; README.md is the glossary.
//
//	go run . -seed 1                    all workloads, end-to-end metrics, out/results.json
//	go run . -seed 1 -trace 1           all workloads traced, out/trace.json and out/layers.json
//	go run . -workload plan-cell        one workload; the last line is the driver's JSON object
//	go run . -check-repeat              two sets on the same code, compared against the bounds
//	go run . -smoke                     tiny scales, one round each: the harness self-test
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sweepsched"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(r *run) error
	// byHand keeps the workload out of BENCHMARK.json: it runs by name
	// and with "all", the driver never runs it, and -check-repeat holds
	// its timings to no bound. README.md, Steadiness, says why.
	byHand bool
}

// workloads lists the six workloads; those not byHand are the workloads
// of BENCHMARK.json, under the same names.
func workloads(smoke bool) []workload {
	return []workload{
		{"plan-cell", "paper-scale tetonly mesh, k=24, m=64, per-cell random assignment: DAG induction, the unit-step list kernel, the C1/C2 metrics and the audit do nearly all the work",
			func(r *run) error { return runPlan(r, planCellParams(smoke)) }, false},
		{"plan-ladder", "one block-partitioned well_logging mesh planned five ways (release, comm-delay, angleset, greedy and weighted kernels): a gain on one kernel that costs another shows here and not on plan-cell",
			func(r *run) error { return runPlan(r, planLadderParams(smoke)) }, false},
		{"sweep-goroutine", "executor-bound: the goroutine-per-processor transport solve and its batched interconnect carry it, planning is about 2% of the time",
			func(r *run) error { return runSweep(r, sweepParamsFor(execGoroutine, smoke)) }, false},
		{"sweep-faulty", "the same barrier-step executor under a crash, drops, a delay and a duplicate: epochs, checkpoints, rollback and residual rescheduling, so a fault-free-path gain that costs recovery shows",
			func(r *run) error { return runSweep(r, sweepParamsFor(execFaulty, smoke)) }, false},
		{"sweep-procs", "two worker OS processes under a kill -9 and a severed socket: the only workload where process spawn, TCP frames, the wire codec and on-disk checkpoint shards matter",
			func(r *run) error { return runSweep(r, sweepParamsFor(execProcs, smoke)) }, true},
		{"service-tiers", "the daemon behind loopback HTTP, two closed-loop clients, phases that miss every cache tier, hit the family tier, or hit the schedule tier: a cache or handler change shows in exactly one phase",
			func(r *run) error { return runService(r, serviceParamsFor(smoke)) }, false},
	}
}

func main() {
	// sweep-procs re-executes this binary as its worker processes.
	sweepsched.MaybeProcWorker()
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain is main without the process exit, so the smoke test can
// call it.
func benchMain(args []string, stdout, stderr io.Writer) int {
	var opts options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&opts.seed, "seed", 1, "the only source of randomness: every mesh, schedule and fault seed derives from it")
	fs.Float64Var(&opts.seconds, "seconds", 18, "how long each workload measures")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&opts.smoke, "smoke", false, "tiny scales and one round per workload: checks the harness, not the program")
	fs.BoolVar(&opts.checkRepeat, "check-repeat", false, "run two full sets on the same code and compare them against the bounds")
	fs.StringVar(&opts.out, "out", "out", "directory for results.json, trace.json, layers.json and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || trace < 0 || trace > 1 || opts.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-smoke] [-check-repeat] [-out dir]")
		return 2
	}
	opts.trace = trace == 1

	var selected []workload
	for _, w := range workloads(opts.smoke) {
		if opts.workload == "all" || opts.workload == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", opts.workload)
		return 2
	}

	if opts.checkRepeat {
		return checkRepeat(opts, selected, stdout, stderr)
	}
	results, err := runSet(opts, selected, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	ok := true
	for _, res := range results {
		ok = ok && res.Correct
	}
	if len(results) == 1 {
		fmt.Fprintln(stdout, results[0].driverLine())
	}
	if !ok {
		return 1
	}
	return 0
}

// runSet runs the workloads one after another in this process (one
// process generates all load), prints their metrics and writes the
// output files of the mode.
func runSet(opts options, selected []workload, stdout, stderr io.Writer) ([]*result, error) {
	var results []*result
	for _, w := range selected {
		r := newRun(opts, w.name)
		win := openWindow()
		if err := w.run(r); err != nil {
			r.attempt("workload", err)
		}
		wall, busy, steal := win.close()
		granted := 1.0
		if busy > 0 {
			granted = busy / (busy + steal)
		}
		res := r.finish(w.why, wall, granted)
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, "bench: FAILED", f)
		}
		res.printLines(stdout)
		results = append(results, res)
	}
	env := describeEnvironment(opts)
	type file struct {
		Env       environment `json:"env"`
		Workloads []*result   `json:"workloads"`
	}
	if !opts.trace {
		return results, writeJSON(opts.out, "results.json", file{env, results})
	}
	var spans []span
	for _, res := range results {
		spans = append(spans, res.spans...)
	}
	if err := writeJSON(opts.out, "trace.json", struct {
		Env   environment `json:"env"`
		Spans []span      `json:"spans"`
	}{env, spans}); err != nil {
		return results, err
	}
	return results, writeJSON(opts.out, "layers.json", file{env, results})
}
