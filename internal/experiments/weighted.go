package experiments

import (
	"fmt"
	"math"

	"sweepsched/internal/core"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/lb"
	"sweepsched/internal/partition"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/stats"
	"sweepsched/internal/verify"
)

func init() {
	Registry["weighted"] = Weighted
}

// Weighted extends the study to heterogeneous cell costs (the paper takes
// p=1; production sweeps have material- and size-dependent local solves)
// and, with cfg.Speeds, to heterogeneous processors. Cell weights are
// drawn log-normal (σ=0.75, median 4), and both the assignment and the
// schedule must handle the skew: the weight-aware balanced partition
// assigns each processor equal *work*, not equal cell counts. The ratio_*
// columns divide by the speed-aware load bound Σ k·w / Σ speed (the
// paper's plotted baseline, generalized); the strong_* columns divide by
// lb.WeightedBounds.Max(), which adds the per-cell term max_v k·w(v) and
// the weighted critical path, so they stay meaningful even where the
// load bound alone would mislead. With cfg.Verify on, sampled runs are
// re-checked by the independent verify.Weighted auditor.
func Weighted(cfg Config) error {
	cfg = cfg.withDefaults()
	w, err := NewWorkload(cfg, "tetonly", 24)
	if err != nil {
		return err
	}
	n := w.Mesh.NCells()
	wseed := cfg.Seed ^ 0xdead
	if cfg.WeightSeed != 0 {
		wseed = cfg.WeightSeed
	}
	r := rng.New(wseed)
	weights := make(sched.CellWeights, n)
	for v := range weights {
		weights[v] = int32(math.Round(4*math.Exp(0.75*r.NormFloat64()))) + 1
	}
	var total int64
	for _, x := range weights {
		total += int64(x)
	}
	machine := "uniform machine"
	if len(cfg.Speeds) > 0 {
		machine = fmt.Sprintf("speeds %v cycled", cfg.Speeds)
	}
	fmt.Fprintf(cfg.Out, "# weighted: log-normal cell costs on %s (n=%d, k=24, total weight %d, %s)\n",
		w.MeshName, n, total, machine)
	tbl := stats.NewTable("m", "assign", "ratio_level", "ratio_rdp", "ratio_dfds",
		"strong_level", "strong_rdp", "strong_dfds", "C1")

	trial := 0
	for _, m := range cfg.Procs {
		inst, err := w.Instance(m)
		if err != nil {
			return err
		}
		var model *sched.MachineModel
		if len(cfg.Speeds) > 0 {
			speeds := make([]int32, m)
			for p := range speeds {
				speeds[p] = cfg.Speeds[p%len(cfg.Speeds)]
			}
			model = &sched.MachineModel{Speeds: speeds}
		}
		bounds := lb.ComputeWeighted(inst, weights, model)
		if bounds.Load < float64(bounds.CriticalPath) {
			// Out of the load-bound regime: the ratio_* columns would
			// mislead. Mark the skip instead of silently dropping the row.
			tbl.AddRow(m, fmt.Sprintf("skipped: crit %d > load %.4g", bounds.CriticalPath, bounds.Load),
				"-", "-", "-", "-", "-", "-", "-")
			continue
		}
		type assignCase struct {
			name string
			gen  func(rr *rng.Source) (sched.Assignment, error)
		}
		cases := []assignCase{
			{"random", func(rr *rng.Source) (sched.Assignment, error) {
				return sched.RandomAssignment(n, m, rr), nil
			}},
			{"balanced", func(rr *rng.Source) (sched.Assignment, error) {
				// Weight-aware m-way partition with bijective placement.
				g := partition.FromMesh(w.Mesh)
				for v := 0; v < n; v++ {
					g.VWeight[v] = weights[v]
				}
				part, err := partition.KWay(g, m, partition.Options{Seed: cfg.Seed ^ 0x777})
				if err != nil {
					return nil, err
				}
				return sched.Assignment(part), nil
			}},
		}
		ws := sched.NewWorkspace() // one per m: the shape changes with it
		for _, ac := range cases {
			rr := rng.New(cfg.Seed ^ 0x123 ^ uint64(m))
			assign, err := ac.gen(rr)
			if err != nil {
				return err
			}
			row := []interface{}{m, ac.name}
			strong := make([]interface{}, 0, 3)
			// The level, rdp and dfds columns: base priorities as the API
			// derives them, rdp's delays folded in as in Algorithm 2.
			for _, col := range []struct {
				base   heuristics.Name
				delays bool
			}{{heuristics.Level, false}, {heuristics.Level, true}, {heuristics.DFDS, false}} {
				prio, _, err := heuristics.Inputs(ws, col.base, inst, assign, nil, nil, cfg.Workers)
				if err != nil {
					return err
				}
				if col.delays {
					// Drawn in sequence from one stream, as this table always
					// has (results_scale0.1.txt), not from core.Delays'
					// per-direction substreams.
					r := rng.New(cfg.Seed ^ 0x321)
					delays := make([]int32, inst.K())
					for i := range delays {
						delays[i] = int32(r.Intn(inst.K()))
					}
					core.DelayPrioritiesInto(prio, inst.N(), delays)
				}
				s := &sched.WeightedSchedule{}
				if err := sched.ListScheduleWeightedInto(ws, s, inst, assign, prio, weights, model); err != nil {
					return err
				}
				if cfg.auditTrial(trial) {
					if err := verify.Weighted(inst, s); err != nil {
						return fmt.Errorf("experiments: weighted schedule failed the audit: %w", err)
					}
					cfg.Collector.Counter("experiments.verified").Inc()
				} else if cfg.Verify {
					cfg.Collector.Counter("experiments.verify_skipped").Inc()
				}
				trial++
				row = append(row, float64(s.Makespan)/bounds.Load)
				strong = append(strong, lb.WeightedRatio(s.Makespan, bounds))
			}
			row = append(row, strong...)
			row = append(row, sched.C1(inst, assign, cfg.Workers))
			tbl.AddRow(row...)
		}
	}
	return cfg.render(tbl)
}
