package experiments

import (
	"fmt"
	"strings"

	"sweepsched/internal/core"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/lb"
	"sweepsched/internal/mesh"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/simulate"
	"sweepsched/internal/stats"
)

func init() {
	Registry["accept"] = Accept
}

// Accept runs the machine-checkable acceptance criteria distilled from the
// paper's qualitative claims (the DESIGN.md §4 criteria), prints one
// PASS/FAIL row per criterion and returns an *AcceptError naming those that
// failed. It picks processor counts adaptively so the checks remain
// meaningful at any -scale (the claims implicitly assume nk/m stays well
// above the critical path, which fixed m would violate on scaled-down
// meshes).
func Accept(cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(cfg.Out, "# accept: machine-checkable paper claims at scale %g\n", cfg.Scale)
	tbl := stats.NewTable("id", "criterion", "measured", "threshold", "pass")
	var failed []string
	check := func(id, desc string, measured float64, threshold float64, pass bool) {
		tbl.AddRow(id, desc, measured, threshold, pass)
		if !pass {
			failed = append(failed, id)
		}
	}

	// A1: Algorithm 2 ratio ≤ 3 on every mesh family (load-bound regime).
	worstA1 := 0.0
	for _, name := range mesh.FamilyNames() {
		w, err := NewWorkload(cfg, name, 24)
		if err != nil {
			return err
		}
		m := loadBoundProcs(w, cfg.Procs)
		inst, err := w.Instance(m)
		if err != nil {
			return err
		}
		_, ratio, err := meanMakespanRatio(cfg, inst, 0xaa1, func(r *rng.Source) (*sched.Schedule, error) {
			return core.RandomDelayPriorities(inst, r)
		})
		if err != nil {
			return err
		}
		if ratio > worstA1 {
			worstA1 = ratio
		}
	}
	check("A1", "alg2 ratio <= 3 on all meshes", worstA1, 3, worstA1 <= 3)

	// Shared workload for the remaining checks.
	w, err := NewWorkload(cfg, "tetonly", 24)
	if err != nil {
		return err
	}
	mMid := loadBoundProcs(w, cfg.Procs)
	inst, err := w.Instance(mMid)
	if err != nil {
		return err
	}
	r := rng.New(cfg.Seed ^ 0xacce97)

	// A2: block partitioning cuts C1 by ≥ 2x at ≤ 3x makespan. The cut
	// grows with block size (roughly surface/volume ≈ bs^(1/3)), so keep
	// blocks at least 16 cells while still giving every processor several
	// blocks.
	bs := w.Mesh.NCells() / (8 * mMid)
	if bs < 16 {
		bs = 16
	}
	cellAssign, err := w.Assignment(1, mMid, r)
	if err != nil {
		return err
	}
	blockAssign, err := w.Assignment(bs, mMid, r)
	if err != nil {
		return err
	}
	sCell, err := core.RandomDelayPrioritiesWithAssignment(inst, cellAssign, rng.New(cfg.Seed^0xa2))
	if err != nil {
		return err
	}
	sBlock, err := core.RandomDelayPrioritiesWithAssignment(inst, blockAssign, rng.New(cfg.Seed^0xa2))
	if err != nil {
		return err
	}
	c1Cell, c1Block := sched.C1(inst, cellAssign, cfg.Workers), sched.C1(inst, blockAssign, cfg.Workers)
	cut := float64(c1Cell) / float64(c1Block)
	check("A2a", "block cuts C1 by >= 2x", cut, 2, cut >= 2)
	growth := float64(sBlock.Makespan) / float64(sCell.Makespan)
	check("A2b", "block makespan growth <= 3x", growth, 3, growth <= 3)

	// A3: priorities never lose to layered execution (same randomness).
	sRD, err := core.RandomDelayWithAssignment(inst, cellAssign, rng.New(cfg.Seed^0xa3))
	if err != nil {
		return err
	}
	sRDP, err := core.RandomDelayPrioritiesWithAssignment(inst, cellAssign, rng.New(cfg.Seed^0xa3))
	if err != nil {
		return err
	}
	adv := float64(sRD.Makespan) / float64(sRDP.Makespan)
	check("A3", "alg2 makespan <= alg1 makespan", adv, 1, adv >= 1)

	// A4: C2 <= C1 (per-step maxima cannot exceed the total edge count).
	met := sched.Measure(sRDP, cfg.Workers)
	check("A4", "C2 <= C1", float64(met.C2), float64(met.C1), met.C2 <= met.C1)

	// A5: DFDS and alg2 within 35% of each other at small m.
	instSmall, err := w.Instance(minProcs(cfg.Procs))
	if err != nil {
		return err
	}
	smallAssign, err := w.Assignment(bs, minProcs(cfg.Procs), rng.New(cfg.Seed^0xa5))
	if err != nil {
		return err
	}
	sD, err := heuristics.Run(heuristics.DFDS, instSmall, smallAssign, rng.New(cfg.Seed^0xa51), cfg.Workers)
	if err != nil {
		return err
	}
	sR, err := heuristics.Run(heuristics.RandomDelaysPriority, instSmall, smallAssign, rng.New(cfg.Seed^0xa52), cfg.Workers)
	if err != nil {
		return err
	}
	gap := lb.Ratio(sR.Makespan, instSmall) / lb.Ratio(sD.Makespan, instSmall)
	check("A5", "alg2/dfds ratio gap at small m <= 1.35", gap, 1.35, gap <= 1.35)

	// A6: simulator replay agrees with analytic metrics.
	sim, err := simulate.Run(sRDP)
	if err != nil {
		return err
	}
	agree := sim.Steps == sRDP.Makespan && sim.TotalMessages == met.C1 && sim.CommRounds == met.C2
	check("A6", "simulator replay matches metrics", b2f(agree), 1, agree)

	if err := cfg.render(tbl); err != nil {
		return err
	}
	if len(failed) > 0 {
		fmt.Fprintln(cfg.Out, "ACCEPT: FAILURES above")
		return &AcceptError{Failed: failed}
	}
	_, err = fmt.Fprintln(cfg.Out, "ACCEPT: all criteria passed")
	return err
}

// AcceptError is Accept's verdict when the paper's claims do not all hold:
// the ids of the criteria that failed, in table order.
type AcceptError struct{ Failed []string }

func (e *AcceptError) Error() string {
	return "experiments: acceptance criteria failed: " + strings.Join(e.Failed, ", ")
}

// loadBoundProcs returns the largest processor count from the sweep that
// keeps the load bound nk/m at least twice the critical path D, so that
// ratio checks measure algorithmic loss rather than lower-bound slack.
func loadBoundProcs(w *Workload, procs []int) int {
	d := 0
	for _, g := range w.DAGs {
		if g.NumLevels > d {
			d = g.NumLevels
		}
	}
	nk := w.Mesh.NCells() * w.K
	best := procs[0]
	for _, m := range procs {
		if nk/m >= 2*d && m > best {
			best = m
		}
	}
	return best
}

func minProcs(procs []int) int {
	min := procs[0]
	for _, m := range procs {
		if m < min {
			min = m
		}
	}
	return min
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
