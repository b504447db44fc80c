package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"sweepsched/internal/heuristics"
	"sweepsched/internal/lb"
	"sweepsched/internal/mesh"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// acceptRows measures the machine-checkable acceptance criteria distilled
// from the paper's qualitative claims, one row per criterion (see
// DESIGN.md, "Experiments and acceptance criteria"): id, criterion,
// measured, threshold, pass. It picks
// processor counts adaptively so the checks remain meaningful at any
// -scale (the claims implicitly assume nk/m stays well above the critical
// path, which fixed m would violate on scaled-down meshes).
func acceptRows(g *group) ([]*point, error) {
	cfg := g.cfg
	var pts []*point
	check := func(id, desc string, measured, threshold float64, pass bool) {
		pts = append(pts, &point{g: g, cells: []any{id, desc, measured, threshold, pass}})
	}

	// A1: Algorithm 2 ratio ≤ 3 on every mesh family (load-bound regime),
	// averaged over the trials by the evaluator's own row.
	a1 := &figure{runs: []run{{seed: mixed(0xaa1), do: alg(heuristics.RandomDelaysPriority)}}, cols: []col{{metric: ratio}}}
	worstA1 := 0.0
	for _, name := range mesh.FamilyNames() {
		w, err := NewWorkload(cfg, name, 24)
		if err != nil {
			return nil, err
		}
		cells, err := a1.row(&point{g: &group{cfg: cfg, w: w}, m: loadBoundProcs(w, cfg.Procs)})
		if err != nil {
			return nil, err
		}
		worstA1 = max(worstA1, cells[0].(float64))
	}
	check("A1", "alg2 ratio <= 3 on all meshes", worstA1, 3, worstA1 <= 3)

	// Shared workload for the remaining checks.
	w, err := NewWorkload(cfg, "tetonly", 24)
	if err != nil {
		return nil, err
	}
	n, mMid := w.Mesh.NCells(), loadBoundProcs(w, cfg.Procs)
	inst, err := w.Instance(mMid)
	if err != nil {
		return nil, err
	}

	// A2: block partitioning cuts C1 by ≥ 2x at ≤ 3x makespan. The cut
	// grows with block size (roughly surface/volume ≈ bs^(1/3)), so A2 runs
	// on the largest sweep m that still gives every processor 8 blocks of
	// at least 16 cells (the smallest m if none does).
	mA2 := slices.Min(cfg.Procs)
	for _, m := range cfg.Procs {
		if n/(8*m) >= 16 {
			mA2 = max(mA2, m)
		}
	}
	cut, growth, err := blockTradeoff(cfg, w, mA2, max(16, n/(8*mA2)))
	if err != nil {
		return nil, err
	}
	check("A2a", "block cuts C1 by >= 2x", cut, 2, cut >= 2)
	check("A2b", "block makespan growth <= 3x", growth, 3, growth <= 3)

	// A3: priorities never lose to layered execution (same randomness).
	cellAssign, err := w.Assignment(1, mMid, rng.New(cfg.Seed^0xacce97))
	if err != nil {
		return nil, err
	}
	sRD, err := heuristics.Run(heuristics.RandomDelays, inst, cellAssign, rng.New(cfg.Seed^0xa3), cfg.Workers)
	if err != nil {
		return nil, err
	}
	sRDP, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, cellAssign, rng.New(cfg.Seed^0xa3), cfg.Workers)
	if err != nil {
		return nil, err
	}
	adv := float64(sRD.Makespan) / float64(sRDP.Makespan)
	check("A3", "alg2 makespan <= alg1 makespan", adv, 1, adv >= 1)

	// A4: C2 <= C1 (per-step maxima cannot exceed the total edge count).
	met := sched.Measure(sRDP, cfg.Workers)
	check("A4", "C2 <= C1", float64(met.C2), float64(met.C1), met.C2 <= met.C1)

	// A5: DFDS and alg2 within 35% of each other at small m, on blocks of
	// n/(8·mMid) cells, at least 16.
	mSmall := slices.Min(cfg.Procs)
	instSmall, err := w.Instance(mSmall)
	if err != nil {
		return nil, err
	}
	smallAssign, err := w.Assignment(max(16, n/(8*mMid)), mSmall, rng.New(cfg.Seed^0xa5))
	if err != nil {
		return nil, err
	}
	sD, err := heuristics.Run(heuristics.DFDS, instSmall, smallAssign, rng.New(cfg.Seed^0xa51), cfg.Workers)
	if err != nil {
		return nil, err
	}
	sR, err := heuristics.Run(heuristics.RandomDelaysPriority, instSmall, smallAssign, rng.New(cfg.Seed^0xa52), cfg.Workers)
	if err != nil {
		return nil, err
	}
	gap := lb.Ratio(sR.Makespan, instSmall) / lb.Ratio(sD.Makespan, instSmall)
	check("A5", "alg2/dfds ratio gap at small m <= 1.35", gap, 1.35, gap <= 1.35)

	// A6: simulator replay agrees with analytic metrics.
	sim, err := transport.SolveParallelCtx(context.Background(), sRDP, transport.DependencyOnly)
	if err != nil {
		return nil, err
	}
	agree := sim.Comm.Messages == met.C1 && sim.Comm.Rounds == met.C2
	check("A6", "simulator replay matches metrics", b2f(agree), 1, agree)
	return pts, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// blockTradeoff plans Algorithm 2 on m processors under a per-cell and a
// bs-cell block assignment drawn in turn from one stream, with the same
// delays, and returns the C1 cut and the makespan growth of blocks.
func blockTradeoff(cfg Config, w *Workload, m, bs int) (cut, growth float64, err error) {
	inst, err := w.Instance(m)
	if err != nil {
		return 0, 0, err
	}
	r := rng.New(cfg.Seed ^ 0xacce97)
	var c1, makespan [2]float64
	for i, size := range []int{1, bs} {
		assign, err := w.Assignment(size, m, r)
		if err != nil {
			return 0, 0, err
		}
		s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, assign, rng.New(cfg.Seed^0xa2), cfg.Workers)
		if err != nil {
			return 0, 0, err
		}
		c1[i], makespan[i] = float64(sched.C1(inst, assign, cfg.Workers)), float64(s.Makespan)
	}
	return c1[0] / c1[1], makespan[1] / makespan[0], nil
}

// acceptVerdict prints the verdict line under the table and returns an
// *AcceptError naming the criteria that failed.
func acceptVerdict(c Config, rows [][]any) error {
	var failed []string
	for _, row := range rows {
		if !row[4].(bool) {
			failed = append(failed, row[0].(string))
		}
	}
	if len(failed) > 0 {
		fmt.Fprintln(c.Out, "ACCEPT: FAILURES above")
		return &AcceptError{Failed: failed}
	}
	_, err := fmt.Fprintln(c.Out, "ACCEPT: all criteria passed")
	return err
}

// AcceptError is the accept experiment's verdict when the paper's claims
// do not all hold: the ids of the criteria that failed, in table order.
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
		d = max(d, g.NumLevels)
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
