package transport

import (
	"context"
	"fmt"

	"sweepsched/internal/sched"
)

// Multigroup transport: production S_N codes solve G coupled energy groups,
// each group a full sweep problem of its own, coupled through scattering.
// With downscatter-only coupling (no energy upscatter — the usual neutron
// case), one pass over groups in descending energy order solves the system:
// each group's external source is its own source plus the scatter from the
// groups already solved, and within-group scattering is handled by the
// single-group source iteration. Every group reuses the same sweep
// schedule, multiplying the scheduling workload by G exactly as in real
// codes.

// GroupSpec is one energy group's physics.
type GroupSpec struct {
	SigmaT float64 // total cross-section (> 0)
	Source float64 // uniform external source for this group
}

// MultigroupConfig couples G groups.
type MultigroupConfig struct {
	Groups []GroupSpec
	// Scatter[g'][g] is the scattering cross-section from group g' into
	// group g. Entries with g < g' (upscatter) must be zero; the diagonal
	// is within-group scattering and must keep SigmaS < SigmaT.
	Scatter [][]float64
	// Tol, MaxIters and Weights apply to each group's inner iteration.
	Tol      float64
	MaxIters int
	Weights  []float64
}

func (c MultigroupConfig) validate() error {
	g := len(c.Groups)
	if g == 0 {
		return fmt.Errorf("transport: no energy groups")
	}
	if len(c.Scatter) != g {
		return fmt.Errorf("transport: scatter matrix has %d rows for %d groups", len(c.Scatter), g)
	}
	for from, row := range c.Scatter {
		if len(row) != g {
			return fmt.Errorf("transport: scatter row %d has %d entries for %d groups", from, len(row), g)
		}
		for to, s := range row {
			if s < 0 {
				return fmt.Errorf("transport: negative scatter %d->%d", from, to)
			}
			if to < from && s != 0 {
				return fmt.Errorf("transport: upscatter %d->%d not supported", from, to)
			}
		}
	}
	for gi, spec := range c.Groups {
		if spec.SigmaT <= 0 {
			return fmt.Errorf("transport: group %d SigmaT %v", gi, spec.SigmaT)
		}
		if c.Scatter[gi][gi] >= spec.SigmaT {
			return fmt.Errorf("transport: group %d within-group scatter %v >= SigmaT %v",
				gi, c.Scatter[gi][gi], spec.SigmaT)
		}
	}
	return nil
}

// MultigroupResult collects the per-group solves.
type MultigroupResult struct {
	Phi        [][]float64 // Phi[g][v]
	Iterations []int       // inner iterations per group
	Converged  bool        // all groups converged
}

// SolveMultigroup solves the downscatter chain serially, one group at a
// time, reusing the schedule's sweep order for every group.
func SolveMultigroup(s *sched.Schedule, cfg MultigroupConfig) (*MultigroupResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inst := s.Inst
	n := inst.N()
	res := &MultigroupResult{Converged: true}
	sourceField := make([]float64, n)
	for g, spec := range cfg.Groups {
		for v := 0; v < n; v++ {
			q := spec.Source
			for gp := 0; gp < g; gp++ {
				q += cfg.Scatter[gp][g] * res.Phi[gp][v]
			}
			sourceField[v] = q
		}
		groupCfg := Config{
			SigmaT:      spec.SigmaT,
			SigmaS:      cfg.Scatter[g][g],
			Tol:         cfg.Tol,
			MaxIters:    cfg.MaxIters,
			Weights:     cfg.Weights,
			SourceField: append([]float64(nil), sourceField...),
		}
		gr, err := SolveCtx(context.Background(), s, groupCfg)
		if err != nil {
			return nil, fmt.Errorf("group %d: %w", g, err)
		}
		res.Phi = append(res.Phi, gr.Phi)
		res.Iterations = append(res.Iterations, gr.Iterations)
		res.Converged = res.Converged && gr.Converged
	}
	return res, nil
}
