package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// repeatsExactly reports whether a metric is a count or a schedule
// property that two runs of the same code on the same seed must agree on
// to the last digit. Timings, memory and anything derived from them are
// measured and only have to agree within a bound.
func repeatsExactly(d metricDef) bool {
	switch d.Name {
	case "makespan_ratio", "c1_edges", "c2_rounds",
		"dag.edges", "dag.broken_cycle_edges", "partition.edge_cut", "sched.list_steps",
		"transport.iterations", "simulate.steps",
		"procrun.kills", "procrun.reconnects":
		return true
	}
	if d.Unit == "s" || d.Unit == "us" || d.Unit == "frac" {
		return false
	}
	return strings.HasPrefix(d.Name, "comm.") || strings.HasPrefix(d.Name, "faults.") ||
		strings.HasPrefix(d.Name, "service.cache.") || strings.HasPrefix(d.Name, "service.build.")
}

// checkRepeat runs the selected workloads twice, untraced and traced,
// and prints for every (workload, metric) the relative difference of the
// second set against the first next to the metric's bound. It fails when
// an end-to-end metric differs by more than its bound in either
// direction (the code is the same: a second set that much faster is as
// unsteady as one that much slower; a workload run by hand has no
// bounds) or when a metric that repeats exactly does not.
func checkRepeat(opts options, selected []workload, stdout, stderr io.Writer) int {
	var sets [2]map[string]*result // workload/mode -> result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, traced := range []bool{false, true} {
			o := opts
			o.trace = traced
			fmt.Fprintf(stdout, "# set %d, trace %v\n", i+1, traced)
			results, err := runSet(o, selected, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			for _, res := range results {
				if !res.Correct {
					fmt.Fprintf(stderr, "bench: %s failed its correctness gate\n", res.Workload)
					return 1
				}
				sets[i][fmt.Sprintf("%s/%v", res.Workload, traced)] = res
			}
		}
	}
	bad := 0
	fmt.Fprintln(stdout, "# workload metric first second rel_diff bound verdict")
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			key := fmt.Sprintf("%s/%v", w.name, traced)
			for _, d := range defs {
				a, b := sets[0][key].Metrics[d.Name].Value, sets[1][key].Metrics[d.Name].Value
				rel := 0.0
				if a != 0 {
					rel = (b - a) / math.Abs(a)
				}
				if d.Better == "higher" {
					rel = -rel
				}
				verdict, bound := "info", "-"
				switch {
				case repeatsExactly(d):
					verdict, bound = "ok", "exact"
					if a != b {
						verdict = "MISMATCH"
						bad++
					}
				case d.Bound > 0 && !w.byHand:
					verdict, bound = "ok", fmt.Sprint(d.Bound)
					if math.Abs(rel) > d.Bound {
						verdict = "DIFFERS"
						bad++
					}
				}
				fmt.Fprintf(stdout, "%s %s %g %g %+.4f %s %s\n", w.name, d.Name, a, b, rel, bound, verdict)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "bench: %d metrics did not repeat\n", bad)
		return 1
	}
	return 0
}
