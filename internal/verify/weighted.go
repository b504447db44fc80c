package verify

import (
	"fmt"
	"sort"

	"sweepsched/internal/sched"
	"sweepsched/internal/sched/refimpl"
)

// Weighted independently audits a WeightedSchedule: assignment coverage,
// positive weights, a valid machine model, every task scheduled with
// duration ceil(w/speed) on its processor, finish-to-start precedence
// with the model's hierarchical communication gaps, per-processor
// interval exclusivity, and a recomputed makespan. Like Schedule, it
// deliberately shares no heap, event queue or interval code with the
// engine — durations, delays and overlaps are recomputed here from first
// principles, over slices local to this function.
func Weighted(inst *sched.Instance, s *sched.WeightedSchedule) error {
	n, m, nt := inst.N(), inst.M, inst.NTasks()
	if len(s.Assign) != n {
		return fmt.Errorf("verify: weighted assignment covers %d of %d cells", len(s.Assign), n)
	}
	for v, p := range s.Assign {
		if p < 0 || int(p) >= m {
			return fmt.Errorf("verify: cell %d assigned to processor %d of %d", v, p, m)
		}
	}
	if len(s.Weights) != n {
		return fmt.Errorf("verify: %d weights for %d cells", len(s.Weights), n)
	}
	for v, w := range s.Weights {
		if w <= 0 {
			return fmt.Errorf("verify: cell %d has non-positive weight %d", v, w)
		}
	}
	mm := s.Model
	speed := func(p int32) int64 {
		if mm == nil || mm.Speeds == nil {
			return 1
		}
		return int64(mm.Speeds[p])
	}
	gap := func(p, q int32) int64 {
		if mm == nil || p == q {
			return 0
		}
		if mm.Group == nil || mm.Group[p] == mm.Group[q] {
			return int64(mm.IntraDelay)
		}
		return int64(mm.CrossDelay)
	}
	if mm != nil {
		if mm.Speeds != nil && len(mm.Speeds) != m {
			return fmt.Errorf("verify: %d speeds for %d processors", len(mm.Speeds), m)
		}
		for p := int32(0); int(p) < m; p++ {
			if speed(p) <= 0 {
				return fmt.Errorf("verify: processor %d has non-positive speed %d", p, speed(p))
			}
		}
		if mm.Group != nil && len(mm.Group) != m {
			return fmt.Errorf("verify: %d group ids for %d processors", len(mm.Group), m)
		}
		if mm.IntraDelay < 0 || mm.CrossDelay < mm.IntraDelay {
			return fmt.Errorf("verify: delays must satisfy 0 <= intra (%d) <= cross (%d)",
				mm.IntraDelay, mm.CrossDelay)
		}
	}

	if len(s.Start) != nt || len(s.Finish) != nt {
		return fmt.Errorf("verify: weighted schedule covers %d/%d starts and %d/%d finishes",
			len(s.Start), nt, len(s.Finish), nt)
	}

	// Durations: finish - start must be ceil(w/speed), recomputed here
	// with plain integer division rather than the engine's durationOn.
	var maxFinish int64
	for t := 0; t < nt; t++ {
		v, _ := inst.Split(sched.TaskID(t))
		if s.Start[t] < 0 {
			return fmt.Errorf("verify: weighted task %d unscheduled (start %d)", t, s.Start[t])
		}
		sp := speed(s.Assign[v])
		want := int64(s.Weights[v]) / sp
		if int64(s.Weights[v])%sp != 0 {
			want++
		}
		if s.Finish[t]-s.Start[t] != want {
			return fmt.Errorf("verify: weighted task %d runs [%d,%d), want duration %d",
				t, s.Start[t], s.Finish[t], want)
		}
		if s.Finish[t] > maxFinish {
			maxFinish = s.Finish[t]
		}
	}
	if s.Makespan != maxFinish {
		return fmt.Errorf("verify: weighted makespan %d, recomputed %d", s.Makespan, maxFinish)
	}

	// Precedence: a successor starts no earlier than every predecessor's
	// finish plus the cross-processor communication gap.
	nn := int32(n)
	for i, d := range inst.DAGs {
		base := int32(i) * nn
		for u := int32(0); u < nn; u++ {
			ut := base + u
			pu := s.Assign[u]
			for _, w := range d.Out(u) {
				wt := base + w
				need := s.Finish[ut] + gap(pu, s.Assign[w])
				if s.Start[wt] < need {
					return fmt.Errorf("verify: weighted precedence violated on (%d,dir %d)->(%d,dir %d): start %d < finish %d + gap %d",
						u, i, w, i, s.Start[wt], s.Finish[ut], gap(pu, s.Assign[w]))
				}
			}
		}
	}

	// Exclusivity: per-processor intervals must not overlap. Each
	// processor's tasks are sorted by (start, id) and neighbouring
	// intervals compared; with several overlaps the first one on the
	// lowest-numbered processor is reported.
	cells := make([]int, m) // cells per processor, to size its task slice exactly
	for _, p := range s.Assign {
		cells[p]++
	}
	perProc := make([][]int, m)
	for t := 0; t < nt; t++ {
		p := s.Assign[t%n]
		if perProc[p] == nil {
			perProc[p] = make([]int, 0, cells[p]*inst.K())
		}
		perProc[p] = append(perProc[p], t)
	}
	for p, tasks := range perProc {
		sort.Slice(tasks, func(a, b int) bool {
			ta, tb := tasks[a], tasks[b]
			if s.Start[ta] != s.Start[tb] {
				return s.Start[ta] < s.Start[tb]
			}
			return ta < tb
		})
		for i := 1; i < len(tasks); i++ {
			if s.Start[tasks[i]] < s.Finish[tasks[i-1]] {
				return fmt.Errorf("verify: processor %d runs weighted tasks %d and %d concurrently ([%d,%d) vs [%d,%d))",
					p, tasks[i-1], tasks[i],
					s.Start[tasks[i-1]], s.Finish[tasks[i-1]], s.Start[tasks[i]], s.Finish[tasks[i]])
			}
		}
	}
	return nil
}

// diffWeighted compares two weighted schedules' start/finish vectors and
// makespans.
func diffWeighted(got, want *sched.WeightedSchedule) error {
	if len(got.Start) != len(want.Start) {
		return fmt.Errorf("verify: weighted kernel covers %d tasks, reference %d", len(got.Start), len(want.Start))
	}
	for t := range want.Start {
		if got.Start[t] != want.Start[t] || got.Finish[t] != want.Finish[t] {
			return fmt.Errorf("verify: weighted kernel diverges from reference at task %d: [%d,%d) vs [%d,%d)",
				t, got.Start[t], got.Finish[t], want.Start[t], want.Finish[t])
		}
	}
	if got.Makespan != want.Makespan {
		return fmt.Errorf("verify: weighted kernel makespan %d, reference %d", got.Makespan, want.Makespan)
	}
	return nil
}

// DifferentialWeighted runs the workspace weighted kernel on the uniform
// machine and the frozen reference weighted engine on the same inputs
// and returns an error on any divergence. Both engines' errors must also
// agree (both fail or both succeed).
func DifferentialWeighted(inst *sched.Instance, assign sched.Assignment, prio sched.Priorities, weights sched.CellWeights) error {
	want, refErr := refimpl.ListScheduleWeighted(inst, assign, prio, weights)
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	got := &sched.WeightedSchedule{}
	err := sched.ListScheduleWeightedInto(ws, got, inst, assign, prio, weights, nil)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("verify: weighted kernel error mismatch: kernel %v, reference %v", err, refErr)
	}
	if err != nil {
		return nil // agreeing failures are a match
	}
	return diffWeighted(got, want)
}
