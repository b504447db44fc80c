package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sweepsched/internal/obs"
	"sweepsched/internal/stats"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of
// the parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them; README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cold_s", "s", "lower", 0.25},
	{"warm_s", "s", "lower", 0.25},
	{"makespan_ratio", "ratio", "lower", 0.05},
	{"c1_edges", "edges", "lower", 0.015},
	{"c2_rounds", "rounds", "lower", 0.03},
}

// perLayer is the traced run's numbers, `<module>.<name>`. A workload
// that does not enter a layer reports 0 for it.
var perLayer = []metricDef{
	{"mesh.generate_s", "s", "lower", 0},
	{"dag.skeleton_s", "s", "lower", 0},
	{"dag.family_cold_s", "s", "lower", 0},
	{"dag.family_warm_s", "s", "lower", 0},
	{"dag.edges", "edges", "lower", 0},
	{"dag.broken_cycle_edges", "edges", "lower", 0},
	{"partition.blocks_s", "s", "lower", 0},
	{"partition.edge_cut", "edges", "lower", 0},
	{"heuristics.delays_s", "s", "lower", 0},
	{"heuristics.descendant_s", "s", "lower", 0},
	{"heuristics.dfds_s", "s", "lower", 0},
	{"heuristics.angleset_s", "s", "lower", 0},
	{"sched.assign_s", "s", "lower", 0},
	{"sched.list_s", "s", "lower", 0},
	{"sched.list_steps", "count", "lower", 0},
	{"sched.comm_s", "s", "lower", 0},
	{"sched.angleset_s", "s", "lower", 0},
	{"sched.greedy_s", "s", "lower", 0},
	{"sched.weighted_s", "s", "lower", 0},
	{"sched.validate_s", "s", "lower", 0},
	{"sched.measure_s", "s", "lower", 0},
	{"sched.warm_allocs_per_op", "count", "lower", 0},
	{"sched.warm_bytes_per_op", "B", "lower", 0},
	{"verify.schedule_s", "s", "lower", 0},
	{"verify.cold_share", "frac", "lower", 0},
	{"api.plan_alloc_mb", "MB", "lower", 0},
	{"api.plan_allocs", "count", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"transport.solve_s", "s", "lower", 0},
	{"transport.solve_1p_s", "s", "lower", 0},
	{"transport.serial_s", "s", "lower", 0},
	{"transport.iterations", "count", "lower", 0},
	{"transport.compute_frac", "frac", "higher", 0},
	{"simulate.run_s", "s", "lower", 0},
	{"simulate.steps", "count", "lower", 0},
	{"comm.messages", "count", "lower", 0},
	{"comm.batches", "count", "lower", 0},
	{"comm.bytes", "B", "lower", 0},
	{"comm.rounds", "rounds", "lower", 0},
	{"comm.msgs_per_batch", "ratio", "higher", 0},
	{"faults.epochs", "count", "lower", 0},
	{"faults.recoveries", "count", "lower", 0},
	{"faults.tasks_replayed", "count", "lower", 0},
	{"faults.steps_executed", "count", "lower", 0},
	{"faults.recovery_penalty_frac", "frac", "lower", 0},
	{"faults.residual_s", "s", "lower", 0},
	{"faults.faultfree_solve_s", "s", "lower", 0},
	{"procrun.step_us", "us", "lower", 0},
	{"procrun.frames", "count", "lower", 0},
	{"procrun.bytes", "B", "lower", 0},
	{"procrun.reconnects", "count", "lower", 0},
	{"procrun.kills", "count", "lower", 0},
	{"procrun.ckpt_shards", "count", "lower", 0},
	{"procrun.ckpt_bytes", "B", "lower", 0},
	{"service.cache.skeleton.hit_ratio", "ratio", "higher", 0},
	{"service.cache.family.hit_ratio", "ratio", "higher", 0},
	{"service.cache.schedule.hit_ratio", "ratio", "higher", 0},
	{"service.build.skeleton", "count", "lower", 0},
	{"service.build.dag_family", "count", "lower", 0},
	{"service.build.schedule", "count", "lower", 0},
	{"service.admission.rejected", "count", "lower", 0},
	{"service.flight.coalesced", "count", "higher", 0},
	{"service.verify.audited", "count", "lower", 0},
	{"service.family_p50_s", "s", "lower", 0},
	{"service.cold_p90_s", "s", "lower", 0},
	{"service.warm_p95_s", "s", "lower", 0},
	{"service.warm_req_per_s", "1/s", "higher", 0},
	{"service.resp_bytes", "B", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.self_time_coverage", "ratio", "higher", 0},
}

// options is the command line.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	smoke       bool
	checkRepeat bool
	out         string
}

// minRounds is how many rounds a run measures even when -seconds is
// already spent: the deterministic metrics average over the schedules of
// the first minRounds rounds, so their values do not depend on how fast
// the host is.
const minRounds = 4

// run is the state of one workload's run: its samples, its counts and,
// in a traced run, its spans.
type run struct {
	opts options
	name string
	tr   *tracer

	samples   map[string][]float64 // timings in seconds, scaled for steal, by metric name
	walls     map[string][]float64 // the same samples as the clock read them
	win       window               // the stretch of the run the pending samples were taken in
	pending   []pendingSample
	values    map[string]float64   // deterministic values and counts, by metric name
	quality   map[string][]float64 // makespan_ratio, c1_edges, c2_rounds over the first rounds
	attempted int
	failed    int
	failures  []string

	tracedWall float64 // wall seconds of the rounds that ran with tracing on
}

func newRun(opts options, name string) *run {
	r := &run{
		opts: opts, name: name,
		samples: map[string][]float64{},
		walls:   map[string][]float64{},
		win:     openWindow(),
		values:  map[string]float64{},
		quality: map[string][]float64{},
	}
	if opts.trace {
		r.tr = newTracer(name)
	}
	return r
}

// attempt counts one operation; a non-nil err (an error, a failed audit,
// a flux that is not bitwise the serial one, a non-200) counts it failed.
func (r *run) attempt(what string, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %s: %v", r.name, what, err))
		return false
	}
	return true
}

// pendingSample is a wall-clock sample whose window is still open.
type pendingSample struct {
	metric string
	wall   float64
}

// sample records wall-clock samples taken in the open window.
func (r *run) sample(metric string, seconds ...float64) {
	for _, s := range seconds {
		r.pending = append(r.pending, pendingSample{metric, s})
	}
}

// cut ends the open window after an operation if it is long enough for
// the accounting's 10 ms ticks; shorter operations share a window.
func (r *run) cut() {
	if time.Since(r.win.t0) >= minWindow {
		r.flush()
	}
}

// flush closes the open window, scales every sample taken in it by the
// window's share of granted CPU time (steal.go) and opens the next.
// Windows end with every round and every phase of the service's, so
// that none mixes the accounting of two kinds of work.
func (r *run) flush() {
	scale := timeScale(r.win.close())
	for _, p := range r.pending {
		scaled := p.wall * scale
		if p.wall < shortSample.Seconds() {
			scaled = p.wall
		}
		r.samples[p.metric] = append(r.samples[p.metric], scaled)
		r.walls[p.metric] = append(r.walls[p.metric], p.wall)
	}
	r.pending = r.pending[:0]
	r.win = openWindow()
}

// addQuality records one schedule's paper metrics; only the first
// minRounds rounds count, so the means repeat exactly. hasComm is
// false for a weighted schedule, which has no C1 and C2.
func (r *run) addQuality(round int, ratio float64, c1, c2 int64, hasComm bool) {
	if round >= minRounds {
		return
	}
	r.quality["makespan_ratio"] = append(r.quality["makespan_ratio"], ratio)
	if hasComm {
		r.quality["c1_edges"] = append(r.quality["c1_edges"], float64(c1))
		r.quality["c2_rounds"] = append(r.quality["c2_rounds"], float64(c2))
	}
}

// timeSetup runs the workload's set-up repeatedly, one setup_s sample
// each, and keeps what the last run built: at least three times and for
// two seconds. build returns a teardown for the state it built (nil when
// there is nothing to stop); every state but the last is torn down at
// once.
func (r *run) timeSetup(build func() (teardown func(), err error)) (teardown func(), err error) {
	least, budget := 3, 2*time.Second
	if r.opts.smoke {
		least, budget = 1, 0
	}
	begin := time.Now()
	defer r.flush()
	for i := 0; i < least || time.Since(begin) < budget; i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if teardown, err = build(); err != nil {
			return nil, err
		}
		spent := time.Since(t0).Seconds()
		r.sample("setup_s", spent)
		if r.tr != nil {
			r.tracedWall += spent
		}
		r.cut()
	}
	return teardown, nil
}

// rounds calls round(i, t, col) until -seconds have passed, at least
// minRounds times (once in a smoke run). In a traced run the even rounds
// run with spans and the collector on and the odd rounds with both off,
// so the same process measures what tracing costs.
func (r *run) rounds(round func(i int, t *tracer, col *obs.Collector) error) error {
	least := minRounds
	if r.opts.smoke {
		least = 1
	}
	deadline := time.Now().Add(time.Duration(r.opts.seconds * float64(time.Second)))
	for i := 0; i < least || (!r.opts.smoke && time.Now().Before(deadline)); i++ {
		runtime.GC()
		r.flush() // the collection is in no sample's window
		var t *tracer
		var col *obs.Collector
		if r.opts.trace && i%2 == 0 {
			t, col = r.tr, obs.New()
		}
		t0 := time.Now()
		if err := round(i, t, col); err != nil {
			return err
		}
		if t != nil {
			r.tracedWall += time.Since(t0).Seconds()
		}
		r.flush()
	}
	return nil
}

// derive computes the per-layer ratios that relate two measurements of
// the same traced run.
func (r *run) derive(spans []span) {
	ratio := func(num, den []float64) (float64, bool) {
		if len(num) == 0 || len(den) == 0 || median(den) == 0 {
			return 0, false
		}
		return median(num) / median(den), true
	}
	// What the spans and the collector cost: the same operation in the
	// rounds with tracing on over the rounds with tracing off.
	if v, ok := ratio(r.samples["op.traced"], r.samples["op.untraced"]); ok {
		r.values["bench.trace_overhead_frac"] = v - 1
	}
	// The audit's share of a cold plan.
	if v, ok := ratio(durations(spans, "verify.schedule"), durations(spans, "plan.cold")); ok {
		r.values["verify.cold_share"] = v
	}
	// Total sweep time, compute time and their ratio: the plain
	// single-threaded solve does the same arithmetic with no executor.
	if v, ok := ratio(durations(spans, "transport.serial"), durations(spans, "transport.solve")); ok {
		r.values["transport.compute_frac"] = v
	}
}

// metricValue is one reported number. A timing's value is the median of
// its samples; it carries its sample count, the median before the steal
// scaling and the highest percentile with at least ten samples beyond
// it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Wall    float64 `json:"wall,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// result is what one workload's run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	WallS     float64                `json:"wall_s"`
	Granted   float64                `json:"granted_cpu_share"` // of the whole run; 1 means no steal
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    []layerShare           `json:"layers,omitempty"`
	order     []string
	spans     []span
}

// timing builds a timing metric from its samples.
func timing(unit string, xs []float64) metricValue {
	mv := metricValue{Value: median(xs), Unit: unit, Samples: len(xs)}
	if pct, v, ok := tailPercentile(xs); ok {
		mv.TailPct, mv.Tail = pct, v
	}
	return mv
}

// finish turns the run's samples into the metrics of its mode: every
// end-to-end metric untraced, every per-layer metric traced.
func (r *run) finish(why string, wall, granted float64) *result {
	r.flush()
	res := &result{
		Workload: r.name, Why: why,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures,
		WallS: wall, Granted: granted, Metrics: map[string]metricValue{},
	}
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
		res.spans = r.tr.spans
		var rootS float64
		res.Layers, rootS = selfByName(res.spans)
		if r.tracedWall > 0 {
			r.values["bench.self_time_coverage"] = rootS / r.tracedWall
		}
		r.values["proc.peak_rss_mb"] = peakRSSMB()
		r.derive(res.spans)
	}
	for _, d := range defs {
		res.order = append(res.order, d.Name)
		switch {
		case r.quality[d.Name] != nil:
			q := stats.Summarize(r.quality[d.Name])
			res.Metrics[d.Name] = metricValue{Value: q.Mean, Unit: d.Unit, Samples: q.N}
		case r.samples[d.Name] != nil:
			mv := timing(d.Unit, r.samples[d.Name])
			mv.Wall = median(r.walls[d.Name])
			res.Metrics[d.Name] = mv
		default:
			// A layer's time is that of the spans named after it.
			if spanName, isTime := strings.CutSuffix(d.Name, "_s"); isTime && r.opts.trace {
				if ds := durations(res.spans, spanName); ds != nil {
					res.Metrics[d.Name] = timing(d.Unit, ds)
					break
				}
			}
			res.Metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
		}
	}
	// An end-to-end metric that reads 0 means the workload did not
	// measure it: that is a harness bug, not a fast program.
	if !r.opts.trace {
		for _, d := range defs {
			if res.Metrics[d.Name].Value <= 0 {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("%s: %s was not measured", r.name, d.Name))
			}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// printLines writes `workload metric value unit` for every metric.
func (res *result) printLines(w io.Writer) {
	for _, name := range res.order {
		mv := res.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %s", res.Workload, name, strconv.FormatFloat(mv.Value, 'g', -1, 64), mv.Unit)
		if mv.Samples > 0 {
			fmt.Fprintf(w, " n=%d", mv.Samples)
		}
		if mv.Wall > 0 {
			fmt.Fprintf(w, " wall=%s", strconv.FormatFloat(mv.Wall, 'g', -1, 64))
		}
		if mv.TailPct > 0 {
			fmt.Fprintf(w, " p%g=%s", mv.TailPct, strconv.FormatFloat(mv.Tail, 'g', -1, 64))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%s failed_frac %g frac failed=%d attempted=%d granted_cpu_share=%.3f\n",
		res.Workload, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, res.Granted)
}

// driverLine is the one JSON object the benchmark contract asks for as
// the last line of standard output.
func (res *result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]mv{}}
	for name, m := range res.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(b)
}

// environment is recorded in every output file.
type environment struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke"`
}

func describeEnvironment(opts options) environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		Seed: opts.seed, Seconds: opts.seconds, Trace: opts.trace, Smoke: opts.smoke,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Best effort: the driver's checkout is not a git repository.
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// writeJSON writes v indented to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
