package sched

import "fmt"

// Angleset-aggregated list scheduling. An angleset partition groups the
// k directions into A disjoint sets (in practice the ≤8 sign octants,
// see quadrature.AnglesetsByOctant) whose member directions share
// priorities and release delays. A Rule with Anglesets takes one
// priority per (angleset, cell) — na = n·A values instead of nt = n·k —
// and one release delay per angleset, and produces the schedule the
// per-direction rule produces on the expanded inputs
//
//	prio[i·n+v]    = aggPrio[group(i)·n+v]
//	release[i·n+v] = aggRel[group(i)]
//
// bit for bit, because that is what it runs: Schedule expands the inputs
// into workspace scratch (expand, the loop ExpandAnglesetPrio and
// ExpandAnglesetRelease share) and hand them to the per-direction step
// rule. The partition ends here; the step core never sees it. Filling
// priorities once per angleset instead of once per direction
// (internal/heuristics) is where the k/A saving lives.

// ValidateAnglesets checks that groups is an angleset partition of the
// k directions: every group non-empty with strictly ascending members
// in [0, k), and every direction in exactly one group. Ascending
// members are part of the contract, so a partition has one spelling.
func ValidateAnglesets(groups [][]int32, k int) error {
	return fillDirGroup(make([]int32, k), groups)
}

// fillDirGroup validates groups as an angleset partition of the len(dg)
// directions and fills dg (direction -> angleset).
func fillDirGroup(dg []int32, groups [][]int32) error {
	if len(groups) == 0 {
		return fmt.Errorf("sched: empty angleset partition")
	}
	k := len(dg)
	for i := range dg {
		dg[i] = -1
	}
	total := 0
	for a, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("sched: angleset %d is empty", a)
		}
		prev := int32(-1)
		for _, i := range g {
			if i < 0 || int(i) >= k {
				return fmt.Errorf("sched: angleset %d contains direction %d (k=%d)", a, i, k)
			}
			if i <= prev {
				return fmt.Errorf("sched: angleset %d members not strictly ascending at direction %d", a, i)
			}
			if dg[i] != -1 {
				return fmt.Errorf("sched: direction %d in more than one angleset", i)
			}
			dg[i] = int32(a)
			prev = i
			total++
		}
	}
	if total != k {
		return fmt.Errorf("sched: anglesets cover %d of %d directions", total, k)
	}
	return nil
}

// checkExpansion validates groups as a partition of the directions it
// names and the expansion destination's length against it, and returns
// the direction -> angleset map.
func checkExpansion(groups [][]int32, n, dstLen int) ([]int32, error) {
	k := 0
	for _, g := range groups {
		k += len(g)
	}
	dirGroup := make([]int32, k)
	if err := fillDirGroup(dirGroup, groups); err != nil {
		return nil, err
	}
	if dstLen != n*k {
		return nil, fmt.Errorf("sched: expansion destination covers %d of %d tasks", dstLen, n*k)
	}
	return dirGroup, nil
}

// checkAggPrio wants one aggregate priority per (angleset, cell).
func checkAggPrio(aggPrio Priorities, anglesets, n int) error {
	if len(aggPrio) != n*anglesets {
		return fmt.Errorf("sched: %d aggregate priorities for %d anglesets × %d cells", len(aggPrio), anglesets, n)
	}
	return nil
}

// checkAggRel wants one release delay per angleset.
func checkAggRel(aggRel []int32, anglesets int) error {
	if len(aggRel) != anglesets {
		return fmt.Errorf("sched: %d release delays for %d anglesets", len(aggRel), anglesets)
	}
	return nil
}

// expand is the one expansion loop: direction i's n values in dst are
// row dirGroup[i] of src, w values wide, repeated until they fill the
// direction — w = n for priorities, 1 for a release delay.
func expand[T int32 | int64](dst, src []T, dirGroup []int32, n, w int) {
	for i, a := range dirGroup {
		seg := dst[i*n : (i+1)*n]
		for f := copy(seg, src[int(a)*w:(int(a)+1)*w]); f < n; f *= 2 {
			copy(seg[f:], seg[:f])
		}
	}
}

// ExpandAnglesetPrio writes the per-direction expansion of an
// aggregated priority vector into dst (len nt = n·k): every member
// direction of angleset a receives a copy of aggPrio[a·n : (a+1)·n].
// This is the priority vector an angleset rule runs on.
func ExpandAnglesetPrio(dst Priorities, aggPrio Priorities, groups [][]int32, n int) error {
	dirGroup, err := checkExpansion(groups, n, len(dst))
	if err != nil {
		return err
	}
	if err := checkAggPrio(aggPrio, len(groups), n); err != nil {
		return err
	}
	expand(dst, aggPrio, dirGroup, n, n)
	return nil
}

// ExpandAnglesetRelease writes the per-task expansion of per-angleset
// release delays into dst (len nt): every task of a member direction of
// angleset a is released at aggRel[a].
func ExpandAnglesetRelease(dst []int32, aggRel []int32, groups [][]int32, n int) error {
	dirGroup, err := checkExpansion(groups, n, len(dst))
	if err != nil {
		return err
	}
	if err := checkAggRel(aggRel, len(groups)); err != nil {
		return err
	}
	expand(dst, aggRel, dirGroup, n, 1)
	return nil
}

// expandAngleset validates an angleset rule's arguments — the
// assignment, then the partition, then the aggregate lengths — and
// expands them into workspace scratch for the per-direction rule. A nil
// aggPrio stays nil (all equal), as does a nil aggRel (no releases).
func (ws *Workspace) expandAngleset(inst *Instance, assign Assignment, groups [][]int32, aggPrio Priorities, aggRel []int32) (prio Priorities, release []int32, err error) {
	if err := assign.Validate(inst.N(), inst.M); err != nil {
		return nil, nil, err
	}
	ws.dirGroup = grow(ws.dirGroup, inst.K())
	if err := fillDirGroup(ws.dirGroup, groups); err != nil {
		return nil, nil, err
	}
	n, nt := inst.N(), inst.NTasks()
	if aggPrio != nil {
		if err := checkAggPrio(aggPrio, len(groups), n); err != nil {
			return nil, nil, err
		}
		prio = grow(ws.expPrio, nt)
		expand(prio, aggPrio, ws.dirGroup, n, n)
		ws.expPrio = prio
	}
	if aggRel != nil {
		if err := checkAggRel(aggRel, len(groups)); err != nil {
			return nil, nil, err
		}
		release = grow(ws.expRel, nt)
		expand(release, aggRel, ws.dirGroup, n, 1)
		ws.expRel = release
	}
	return prio, release, nil
}

// ListScheduleAnglesetInto is Schedule under Rule{Prio: aggPrio,
// Release: aggRel, Anglesets: groups}: priorities per (angleset, cell),
// release delays per angleset.
func ListScheduleAnglesetInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, groups [][]int32, aggPrio Priorities, aggRel []int32) error {
	return ws.Schedule(dst, inst, assign, Rule{Prio: aggPrio, Release: aggRel, Anglesets: groups})
}
