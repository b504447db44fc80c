// Package trace analyzes and renders schedules: per-processor utilization,
// idle-time attribution, the layer-width profile that drives the random
// delay analysis, and a compact text Gantt chart. The experiments use it to
// explain *why* one schedule beats another (e.g. Algorithm 1's layer
// barriers show up directly as idle time that Algorithm 2 removes).
package trace

import (
	"fmt"
	"io"
	"strings"

	"sweepsched/internal/sched"
)

// Profile summarizes the execution structure of a schedule.
type Profile struct {
	Makespan   int
	Processors int
	Tasks      int

	// Busy[p] counts busy steps of processor p; utilization is
	// Busy[p]/Makespan.
	Busy []int
	// MeanUtilization is total work / (m × makespan) — 1.0 means perfectly
	// packed, and nk/(m·makespan) is exactly 1/ratio.
	MeanUtilization float64
	// MaxLoadStep is the per-step maximum number of busy processors.
	PeakParallelism int
	// IdleSteps counts (p, t) slots with no task while the schedule was
	// still running.
	IdleSteps int
}

// Compute builds the profile of a schedule.
func Compute(s *sched.Schedule) Profile {
	inst := s.Inst
	p := Profile{
		Makespan:   s.Makespan,
		Processors: inst.M,
		Tasks:      inst.NTasks(),
		Busy:       make([]int, inst.M),
	}
	stepLoad := make([]int, s.Makespan)
	for t, st := range s.Start {
		v, _ := inst.Split(sched.TaskID(t))
		p.Busy[s.Assign[v]]++
		stepLoad[st]++
	}
	for _, l := range stepLoad {
		if l > p.PeakParallelism {
			p.PeakParallelism = l
		}
	}
	if s.Makespan > 0 {
		p.MeanUtilization = float64(p.Tasks) / (float64(inst.M) * float64(s.Makespan))
		p.IdleSteps = inst.M*s.Makespan - p.Tasks
	}
	return p
}

// UtilizationHistogram buckets processors by utilization decile and returns
// the 10 counts ([0-10%), [10-20%), ..., [90-100%]).
func UtilizationHistogram(s *sched.Schedule) [10]int {
	var hist [10]int
	p := Compute(s)
	for _, busy := range p.Busy {
		u := 0.0
		if p.Makespan > 0 {
			u = float64(busy) / float64(p.Makespan)
		}
		b := int(u * 10)
		if b > 9 {
			b = 9
		}
		hist[b]++
	}
	return hist
}

// RenderGantt writes a text Gantt chart: one row per processor, one column
// per timestep (downsampled to maxCols), '#' for busy and '.' for idle.
// Only the first maxProcs processors are drawn.
func RenderGantt(w io.Writer, s *sched.Schedule, maxProcs, maxCols int) error {
	if maxProcs <= 0 {
		maxProcs = 16
	}
	if maxCols <= 0 {
		maxCols = 80
	}
	inst := s.Inst
	procs := inst.M
	if procs > maxProcs {
		procs = maxProcs
	}
	steps := s.Makespan
	if steps == 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}
	cols := steps
	if cols > maxCols {
		cols = maxCols
	}
	// busy[p][c] counts tasks of processor p mapped into column c.
	busy := make([][]int, procs)
	for p := range busy {
		busy[p] = make([]int, cols)
	}
	colWidth := float64(steps) / float64(cols)
	for t, st := range s.Start {
		v, _ := inst.Split(sched.TaskID(t))
		p := int(s.Assign[v])
		if p >= procs {
			continue
		}
		c := int(float64(st) / colWidth)
		if c >= cols {
			c = cols - 1
		}
		busy[p][c]++
	}
	fmt.Fprintf(w, "gantt: %d procs × %d steps (column ≈ %.1f steps)\n", inst.M, steps, colWidth)
	for p := 0; p < procs; p++ {
		var b strings.Builder
		fmt.Fprintf(&b, "p%-3d ", p)
		for c := 0; c < cols; c++ {
			frac := float64(busy[p][c]) / colWidth
			switch {
			case frac <= 0.001:
				b.WriteByte('.')
			case frac < 0.5:
				b.WriteByte('-')
			case frac < 0.95:
				b.WriteByte('+')
			default:
				b.WriteByte('#')
			}
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	if inst.M > procs {
		if _, err := fmt.Fprintf(w, "(%d more processors not shown)\n", inst.M-procs); err != nil {
			return err
		}
	}
	return nil
}
