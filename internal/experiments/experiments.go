// Package experiments reproduces every figure and headline observation of
// the paper's empirical study (§5). Each experiment is a figure, a value in
// one sorted table (figures.go): the rows it sweeps, the randomized calls
// each row makes with their seed rule, the columns read off them, and
// the paper's claims as predicates over those rows. One evaluator runs
// them all and checks the claims, and testdata/experiments_golden.txt
// pins every table. EXPERIMENTS.md records the paper-vs-measured
// comparison.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"sweepsched"
	"sweepsched/internal/dag"
	"sweepsched/internal/geom"
	"sweepsched/internal/lb"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/par"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/sched"
	"sweepsched/internal/stats"
	"sweepsched/internal/verify"
)

// Config controls workload sizes shared by all experiments.
type Config struct {
	// Scale multiplies the paper's mesh cell counts (1.0 = paper size;
	// the default 0.05 keeps the full suite interactive).
	Scale float64
	// Seed feeds every random choice; a fixed seed reproduces runs exactly.
	Seed uint64
	// Procs is the processor sweep; nil uses {2, 8, 32, 128, 512}.
	Procs []int
	// Trials averages randomized schedulers over this many runs (default 3).
	Trials int
	// Out receives the rendered tables; nil discards output.
	Out io.Writer
	// CSV switches table rendering from aligned text to CSV rows.
	CSV bool
	// Workers bounds the parallelism of row evaluation and of each run's
	// per-direction stages (0 = GOMAXPROCS). Output is identical regardless.
	Workers int
	// Verify audits every schedule an experiment produces with
	// internal/verify and fails the experiment on the first violation: a
	// planned run is audited by the API (counted as "api.verified"), a
	// bespoke run here ("experiments.verified"). The SWEEPSCHED_VERIFY
	// environment variable forces it on.
	Verify bool
	// Collector, when non-nil, accumulates trial counters and stage
	// timings across the experiment's runs, the API's plan series among
	// them.
	Collector *obs.Collector
	// Speeds, when non-empty, gives the weighted experiment a
	// heterogeneous machine: the positive pattern cycled over each m ("1,2,4"
	// on m=8 is 1,2,4,1,2,4,1,2). Empty means the uniform machine.
	Speeds []int32
	// Anglesets > 0 runs the Figure 3 panels angleset-aggregated: priorities
	// once per sign-homogeneous angleset (about this many), audited as such.
	// 0 keeps the per-direction pipeline.
	Anglesets int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.05
	}
	if c.Procs == nil {
		c.Procs = []int{2, 8, 32, 128, 512}
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if verify.ForcedByEnv() {
		c.Verify = true
	}
	return c
}

// audit checks one bespoke trial's schedule, unit-step or weighted, when
// verification is on, and counts the audited trials.
func (c Config) audit(s *sample) error {
	if !c.Verify || s.s == nil && s.w == nil {
		return nil
	}
	var err error
	if s.w != nil {
		err = verify.Weighted(s.w.Inst, s.w)
	} else {
		err = verify.Schedule(nil, s.s, verify.Opts{Metrics: s.met})
	}
	if err == nil {
		c.Collector.Counter("experiments.verified").Inc()
	}
	return err
}

// figure is one experiment as a value: its table's title, a row axis,
// the randomized calls (runs) each row makes, their seed rule and the
// columns read off them.
type figure struct {
	id, title string
	paper     bool                 // the paper plots or states it (sweepbench -exp paper)
	args      func(g *group) []any // the title's arguments, from the first group

	// The row axis: one group per mesh × k (a workload each, built when
	// its rows run; one group without one if meshes is nil), and in each
	// group the rows lists, by default one per processor count.
	meshes []string
	ks     []int
	rows   func(g *group) ([]*point, error)

	// seed gives each (row, trial) the one seed every run of the trial
	// takes, so two planned runs with the same block size plan on the
	// same partition and assignment and draw the same delays: a column
	// compares schedulers, not draws.
	seed   func(p *point, trial int) uint64
	runs   []run
	cols   []col
	worst  int // > 0: a group's rows fold into the one largest in this column (worst over m)
	claims []claim
}

// claim is one of the paper's claims as a predicate over its figure's
// own rows. In every group, each row i its regime admits (every row if
// regime is nil) yields a value, read off the group's cells; the claim
// holds when it has checked a row and every value meets the bound.
type claim struct {
	id, text string
	regime   func(p *point) bool
	value    func(rows [][]any, i int) float64
	op       string // "<=", "<", ">=" or ">": how a value meets the bound
	bound    float64
}

func (c *claim) meets(v float64) bool {
	switch c.op {
	case "<=":
		return v <= c.bound
	case "<":
		return v < c.bound
	case ">=":
		return v >= c.bound
	}
	return v > c.bound
}

// tally is what a claim found over a figure's groups: the rows checked,
// and the value furthest from meeting the bound (a NaN sticks), which
// meets it only if every value does.
type tally struct {
	rows  int
	worst float64
}

func (t *tally) add(c *claim, v float64) {
	worse := v > t.worst
	if c.op[0] == '>' {
		worse = v < t.worst
	}
	if t.rows == 0 || worse || math.IsNaN(v) {
		t.worst = v
	}
	t.rows++
}

// ClaimError is a figure's verdict when some of its claims do not hold:
// the ids of those that failed or whose regime held no row, in the
// figure's order.
type ClaimError struct{ Failed []string }

func (e *ClaimError) Error() string {
	return "experiments: paper claims failed: " + strings.Join(e.Failed, ", ")
}

// run is one randomized call a figure's columns measure, made Trials
// times (once if once) from the seed of the figure's rule.
//
// A planned run (alg set) is the API's plan of alg on the row's Problem:
// per cell, or with the block size and anglesets opts gives; under §3's
// communication model when comm, the row's swept value its delay. The
// evaluator sets the options' seed, workers and audit, and use, if set,
// reads off the result what its metrics do not hold. Any other run is
// bespoke, a call the options cannot express: do.
type run struct {
	alg  sweepsched.Scheduler
	opts func(p *point) sweepsched.ScheduleOptions
	comm bool
	use  func(p *point, res *sweepsched.Result) (*sample, error)

	once bool
	do   func(p *point, seed uint64) (*sample, error)
}

// sample is what one trial produced: a unit-step schedule with the
// metrics its kernel counted (nil if none did), a weighted schedule, or
// the values of a run that measures something else.
type sample struct {
	s   *sched.Schedule
	met *sched.Metrics
	w   *sched.WeightedSchedule
	v   []float64
}

// col is one column: a metric of one run's samples, averaged over its
// trials (truncated if whole), or a cell computed from the row's point
// and the row's averages.
type col struct {
	name   string
	run    int
	metric func(p *point, s *sample) float64
	whole  bool
	cell   func(p *point, v []float64) any
}

// group is one workload of a figure's row axis and what its rows share.
type group struct {
	cfg     Config
	mesh    string
	k       int
	w       *Workload
	bs      int                 // commdelay's block size
	prob    *sweepsched.Problem // resilience's problem and plan
	res     *sweepsched.Result
	weights sched.CellWeights // weighted's cell costs
}

// point is one row: its place on the axis and what its runs schedule,
// the Problem planned runs plan on and the Instance bespoke runs take.
type point struct {
	g      *group
	m, x   int // processors; the swept value or the row's variant
	prob   *sweepsched.Problem
	inst   *sched.Instance
	assign sched.Assignment // weighted's fixed assignment, model and bounds
	model  *sched.MachineModel
	bounds lb.WeightedBounds
	cells  []any // a row given whole (weighted's skipped m)
}

// Names returns the experiment ids in sorted order.
func Names() []string {
	names := make([]string, len(figures))
	for i := range figures {
		names[i] = figures[i].id
	}
	return names
}

// Paper returns the ids of what the paper itself plots or states.
func Paper() []string {
	var names []string
	for i := range figures {
		if figures[i].paper {
			names = append(names, figures[i].id)
		}
	}
	return names
}

// Run executes the named experiment.
func Run(name string, cfg Config) error {
	i, ok := slices.BinarySearchFunc(figures, name, func(f figure, id string) int { return strings.Compare(f.id, id) })
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return figures[i].eval(cfg.withDefaults())
}

// eval is the one evaluator. Group by group it builds the workload and
// the rows, evaluates the rows in parallel, checks the figure's claims on
// them while the workload is alive, and folds them if the figure reduces
// over m; then it renders the table and, under it, one line per claim.
func (f *figure) eval(cfg Config) error {
	groups := []*group{{cfg: cfg}}
	if f.meshes != nil {
		groups = nil
		for _, name := range f.meshes {
			for _, k := range f.ks {
				groups = append(groups, &group{cfg: cfg, mesh: name, k: k})
			}
		}
	}
	var all [][]any
	tallies := make([]tally, len(f.claims))
	for gi, g := range groups {
		var err error
		if g.mesh != "" {
			if g.w, err = NewWorkload(cfg, g.mesh, g.k); err != nil {
				return err
			}
		}
		rows := f.rows
		if rows == nil {
			rows = procRows
		}
		pts, err := rows(g)
		if err != nil {
			return err
		}
		if gi == 0 {
			var args []any
			if f.args != nil {
				args = f.args(g)
			}
			fmt.Fprintf(cfg.Out, "# "+f.title+"\n", args...)
		}
		cells, err := par.Map(len(pts), cfg.Workers, func(i int) ([]any, error) { return f.row(pts[i]) })
		if err != nil {
			return err
		}
		for ci := range f.claims {
			c := &f.claims[ci]
			for i, p := range pts {
				if c.regime == nil || c.regime(p) {
					tallies[ci].add(c, c.value(cells, i))
				}
			}
		}
		if f.worst > 0 && len(cells) > 0 {
			for _, r := range cells[1:] {
				if r[f.worst].(float64) > cells[0][f.worst].(float64) {
					cells[0] = r
				}
			}
			cells = cells[:1]
		}
		all = append(all, cells...)
		groups[gi] = nil // the workload goes with its rows
	}
	header := make([]string, len(f.cols))
	for i, c := range f.cols {
		header[i] = c.name
	}
	tbl := stats.NewTable(header...)
	for _, r := range all {
		tbl.AddRow(r...)
	}
	render := tbl.Render
	if cfg.CSV {
		render = tbl.RenderCSV
	}
	if err := render(cfg.Out); err != nil {
		return err
	}
	var failed []string
	for ci, t := range tallies {
		c := &f.claims[ci]
		ok := t.rows > 0 && c.meets(t.worst)
		verdict := fmt.Sprintf("holds on %d rows: %s, worst %.4g %s %.4g", t.rows, c.text, t.worst, c.op, c.bound)
		switch {
		case t.rows == 0:
			verdict = "FAILS: no row in its regime (" + c.text + ")"
		case !ok:
			verdict = fmt.Sprintf("FAILS on %d rows: %s, worst %.4g, want %s %.4g", t.rows, c.text, t.worst, c.op, c.bound)
		}
		if !ok {
			failed = append(failed, c.id)
		}
		if _, err := fmt.Fprintf(cfg.Out, "claim %s %s\n", c.id, verdict); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return &ClaimError{Failed: failed}
	}
	return nil
}

// procRows is the default row axis: one row per processor count.
func procRows(g *group) ([]*point, error) {
	var pts []*point
	for _, m := range g.cfg.Procs {
		pts = append(pts, &point{g: g, m: m})
	}
	return pts, nil
}

// sweep is the row axis of a sweep on a fixed machine: one row per value.
func sweep(m int, xs ...int) func(*group) ([]*point, error) {
	return func(g *group) ([]*point, error) {
		var pts []*point
		for _, x := range xs {
			pts = append(pts, &point{g: g, m: m, x: x})
		}
		return pts, nil
	}
}

// row evaluates one point. It holds the package's only trial loop: each
// run is made Trials times (once if once) from the trial's seed, every
// sampled bespoke trial is audited (planned ones are audited by the
// API), and each column's metric is averaged over its run's trials
// before the cells are computed. The trials are the outer loop, so the
// runs of one (row, trial) plan one after another on the row's Problem,
// which keeps the block partition of their shared seed from the first to
// the next; a column still sums its trials in trial order.
func (f *figure) row(p *point) ([]any, error) {
	if p.cells != nil {
		return p.cells, nil
	}
	cfg := p.g.cfg
	if w := p.g.w; p.inst == nil && w != nil && p.m > 0 {
		var err error
		if p.inst, err = w.Instance(p.m); err != nil {
			return nil, err
		}
		if p.prob, err = w.Problem(p.m); err != nil {
			return nil, err
		}
		defer func() { p.inst, p.prob = nil, nil }() // a row's task graphs live while the row runs
	}
	v := make([]float64, len(f.cols))
	trials := func(rn *run) int {
		if rn.once {
			return 1
		}
		return cfg.Trials
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		var seed uint64
		if f.seed != nil {
			seed = f.seed(p, trial)
		}
		for ri := range f.runs {
			rn := &f.runs[ri]
			if trial >= trials(rn) {
				continue
			}
			var s *sample
			var err error
			if rn.alg != "" {
				s, err = rn.plan(p, seed)
			} else if s, err = rn.do(p, seed); err == nil {
				if err = cfg.audit(s); err != nil {
					err = fmt.Errorf("failed the schedule audit: %w", err)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: %s m=%d trial %d: %w", f.id, p.m, trial, err)
			}
			cfg.Collector.Counter("experiments.trials").Inc()
			for ci, c := range f.cols {
				if c.metric != nil && c.run == ri {
					v[ci] += c.metric(p, s)
				}
			}
		}
	}
	for ci, c := range f.cols {
		if c.metric != nil {
			v[ci] /= float64(trials(&f.runs[c.run]))
		}
	}
	cells := make([]any, len(f.cols))
	for ci, c := range f.cols {
		switch {
		case c.cell != nil:
			cells[ci] = c.cell(p, v)
		case c.whole:
			cells[ci] = int64(v[ci])
		default:
			cells[ci] = v[ci]
		}
	}
	return cells, nil
}

// plan makes a planned run's trial on the row's Problem from seed.
func (rn *run) plan(p *point, seed uint64) (*sample, error) {
	var opts sweepsched.ScheduleOptions
	if rn.opts != nil {
		opts = rn.opts(p)
	}
	opts = p.g.cfg.options(opts, seed)
	var res *sweepsched.Result
	var err error
	if rn.comm {
		res, err = p.prob.ScheduleComm(rn.alg, opts, p.x)
	} else {
		res, err = p.prob.ScheduleCtx(context.Background(), rn.alg, opts)
	}
	switch {
	case err != nil:
		return nil, err
	case rn.use != nil:
		return rn.use(p, res)
	}
	return &sample{s: res.Schedule, met: &res.Metrics}, nil
}

// options completes a plan's options with its seed and the config's
// workers, audit and collector.
func (c Config) options(opts sweepsched.ScheduleOptions, seed uint64) sweepsched.ScheduleOptions {
	opts.Seed, opts.Workers, opts.Verify, opts.Collector = seed, c.Workers, c.Verify, c.Collector
	return opts
}

// Workload caches a mesh, its direction set and its DAGs so that a
// processor sweep rebuilds none of them.
type Workload struct {
	MeshName string
	K        int

	Mesh *mesh.Mesh
	Dirs []geom.Vec3
	DAGs []*dag.DAG
}

// NewWorkload generates the named mesh family at the config's scale and
// builds the k-direction DAG set.
func NewWorkload(cfg Config, meshName string, k int) (*Workload, error) {
	cfg = cfg.withDefaults()
	m, err := mesh.Family(meshName, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	dirs, err := quadrature.Octant(k)
	if err != nil {
		return nil, err
	}
	return &Workload{
		MeshName: meshName,
		K:        k,
		Mesh:     m,
		Dirs:     dirs,
		DAGs:     dag.BuildAllInto(make([]*dag.DAG, len(dirs)), dag.NewSkeleton(m), dirs, cfg.Workers),
	}, nil
}

// Problem returns the API's problem for m processors over the cached
// DAGs.
func (w *Workload) Problem(m int) (*sweepsched.Problem, error) {
	return sweepsched.NewProblemFromPrebuiltDAGs(w.Mesh, w.Dirs, w.DAGs, m)
}

// Instance returns the scheduling instance for m processors, sharing the
// cached DAGs.
func (w *Workload) Instance(m int) (*sched.Instance, error) {
	inst, err := sched.FromDAGs(w.DAGs, m)
	if err != nil {
		return nil, err
	}
	inst.Mesh = w.Mesh
	inst.Dirs = w.Dirs
	return inst, nil
}
