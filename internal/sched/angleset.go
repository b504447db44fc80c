package sched

import "fmt"

// Angleset-aggregated list scheduling. An angleset partition groups the
// k directions into A disjoint sets (in practice the ≤8 sign octants,
// see quadrature.AnglesetsByOctant) whose member directions share
// priorities and release delays. The aggregated kernels take one
// priority per (angleset, cell) — na = n·A values instead of nt = n·k —
// and one release delay per angleset, and produce the schedule the
// per-direction kernels would produce on the expanded inputs
//
//	prio[i·n+v]    = aggPrio[group(i)·n+v]
//	release[i·n+v] = aggRel[group(i)]
//
// bit for bit. Sorting na keys instead of nt, and filling priorities
// once per angleset instead of once per direction, is where the k/A
// amortization comes from; the expansion back to per-direction task
// ranks is a linear pass (buildAngleset).

// ValidateAnglesets checks that groups is an angleset partition of the
// k directions: every group non-empty with strictly ascending members
// in [0, k), and every direction in exactly one group. Ascending
// members are part of the contract — the aggregated kernels expand a
// group's tasks in member order and rely on it matching TaskID order.
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
// names and the expansion destination's length against it.
func checkExpansion(groups [][]int32, n, dstLen int) error {
	k := 0
	for _, g := range groups {
		k += len(g)
	}
	if err := ValidateAnglesets(groups, k); err != nil {
		return err
	}
	if dstLen != n*k {
		return fmt.Errorf("sched: expansion destination covers %d of %d tasks", dstLen, n*k)
	}
	return nil
}

// ExpandAnglesetPrio writes the per-direction expansion of an
// aggregated priority vector into dst (len nt = n·k): every member
// direction of angleset a receives a copy of aggPrio[a·n : (a+1)·n].
// This is the priority vector the aggregated kernels emulate.
func ExpandAnglesetPrio(dst Priorities, aggPrio Priorities, groups [][]int32, n int) error {
	if err := checkExpansion(groups, n, len(dst)); err != nil {
		return err
	}
	if len(aggPrio) != n*len(groups) {
		return fmt.Errorf("sched: %d aggregate priorities for %d anglesets × %d cells", len(aggPrio), len(groups), n)
	}
	for a, g := range groups {
		src := aggPrio[a*n : (a+1)*n]
		for _, i := range g {
			copy(dst[int(i)*n:(int(i)+1)*n], src)
		}
	}
	return nil
}

// ExpandAnglesetRelease writes the per-task expansion of per-angleset
// release delays into dst (len nt): every task of a member direction of
// angleset a is released at aggRel[a].
func ExpandAnglesetRelease(dst []int32, aggRel []int32, groups [][]int32, n int) error {
	if err := checkExpansion(groups, n, len(dst)); err != nil {
		return err
	}
	if len(aggRel) != len(groups) {
		return fmt.Errorf("sched: %d release delays for %d anglesets", len(aggRel), len(groups))
	}
	for a, g := range groups {
		for _, i := range g {
			seg := dst[int(i)*n : (int(i)+1)*n]
			for v := range seg {
				seg[v] = aggRel[a]
			}
		}
	}
	return nil
}

// buildAngleset is build's aggregated counterpart: it sorts the na =
// n·A aggregate keys by (aggPrio, aggregate id) and expands the sorted
// order into the full nt-task rank/order partition that build would
// compute from the expanded priorities — without ever materializing
// them. Within a run of equal priority the aggregate order is
// angleset-segmented with ascending cells, and the expanded order of
// the run is TaskID-ascending, i.e. direction-major: for each direction
// i (ascending), the run's cells of group(i) ascending. Single-segment
// runs (the common case: priorities rarely collide across anglesets)
// expand by iterating the one group's members; multi-segment runs do a
// k-scan over directions with a stamped group→segment lookup.
func (q *rankq) buildAngleset(aggPrio Priorities, n int32, m int, assign Assignment, groups [][]int32, dirGroup []int32) {
	A := len(groups)
	k := int32(len(dirGroup))
	na := int(n) * A
	if cap(q.segA) < A+1 {
		q.segA = make([]int32, A+1)
		q.segLo = make([]int32, A+1)
		q.segOf = make([]int32, A+1)
		q.segStamp = make([]int32, A+1)
	}
	q.segA = q.segA[:A+1]
	q.segLo = q.segLo[:A+1]
	q.segOf = q.segOf[:A]
	q.segStamp = q.segStamp[:A]
	clear(q.segStamp)

	// Every cell contributes exactly k tasks, all on its processor, so
	// the partition offsets are plain build's for the full instance.
	keys := q.sortAndPartition(aggPrio, na, int(n)*int(k), m, assign, n)

	// Expand the sorted aggregate order run by run. Emission order is
	// exactly the expanded global (prio, TaskID) order, so rank/order
	// match plain build on the expanded priorities bit for bit.
	// emit places cells keys[lo:hi] of angleset a as tasks of direction i.
	emit := func(i, a, lo, hi int32) {
		for _, key := range keys[lo:hi] {
			v := int32(key) - a*n
			q.place(assign[v], TaskID(i*n+v))
		}
	}
	runID := int32(0)
	for s := 0; s < na; {
		p0 := aggPrio[keys[s]]
		e := s + 1
		for e < na && aggPrio[keys[e]] == p0 {
			e++
		}
		runID++

		// Segment the run by angleset: aggregate ids ascend within the
		// run, so the angleset index a = id/n only advances.
		nSeg := 0
		a, bound := int32(0), n
		for j := s; j < e; j++ {
			id := int32(keys[j])
			for id >= bound {
				a++
				bound += n
			}
			if nSeg == 0 || q.segA[nSeg-1] != a {
				q.segA[nSeg] = a
				q.segLo[nSeg] = int32(j)
				nSeg++
			}
		}
		q.segLo[nSeg] = int32(e)

		if nSeg == 1 {
			for _, i := range groups[a] {
				emit(i, a, int32(s), int32(e))
			}
		} else {
			for sg := 0; sg < nSeg; sg++ {
				q.segStamp[q.segA[sg]] = runID
				q.segOf[q.segA[sg]] = int32(sg)
			}
			for i := int32(0); i < k; i++ {
				if a := dirGroup[i]; q.segStamp[a] == runID {
					sg := q.segOf[a]
					emit(i, a, q.segLo[sg], q.segLo[sg+1])
				}
			}
		}
		s = e
	}
}

// checkAnglesetArgs validates the shared argument contract of the
// aggregated kernels, fills ws.dirGroup, and resolves a nil aggregate
// priority slice to all-zero scratch.
func (ws *Workspace) checkAnglesetArgs(inst *Instance, assign Assignment, groups [][]int32, aggPrio Priorities) (Priorities, error) {
	if err := assign.Validate(inst.N(), inst.M); err != nil {
		return nil, err
	}
	if cap(ws.dirGroup) < inst.K() {
		ws.dirGroup = make([]int32, inst.K())
	}
	ws.dirGroup = ws.dirGroup[:inst.K()]
	if err := fillDirGroup(ws.dirGroup, groups); err != nil {
		return nil, err
	}
	ws.ensure(inst)
	na := inst.N() * len(groups)
	if aggPrio == nil {
		return ws.zeroPrio[:na], nil
	}
	if len(aggPrio) != na {
		return nil, fmt.Errorf("sched: %d aggregate priorities for %d anglesets × %d cells", len(aggPrio), len(groups), inst.N())
	}
	return aggPrio, nil
}

// ListScheduleAnglesetInto is the angleset-aggregated form of
// ListScheduleInto: priorities are given per (angleset, cell) and
// release delays per angleset, and the produced schedule is
// bitwise-identical to ListScheduleInto on the expanded per-direction
// inputs (ExpandAnglesetPrio / ExpandAnglesetRelease). With singleton
// groups it therefore reproduces the per-direction kernel exactly. Zero
// heap allocations on a warm workspace and recycled dst.
//
// groups must be an angleset partition of the instance's directions
// (ValidateAnglesets); a nil aggRel means no release delays, a nil
// aggPrio all-equal priorities.
func ListScheduleAnglesetInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, groups [][]int32, aggPrio Priorities, aggRel []int32) error {
	return ws.schedule(dst, inst, assign, stepRule{series: anglistSeries, prio: aggPrio, aggregated: true, groups: groups, groupFloor: aggRel})
}

// CommScheduleAnglesetInto is the angleset-aggregated form of
// CommScheduleInto: aggregate priorities per (angleset, cell) under the
// uniform communication-delay model, bitwise-identical to
// CommScheduleInto on the expanded priorities. Zero heap allocations on
// a warm workspace and recycled dst.
func CommScheduleAnglesetInto(ws *Workspace, dst *Schedule, inst *Instance, assign Assignment, groups [][]int32, aggPrio Priorities, commDelay int) error {
	return ws.schedule(dst, inst, assign, stepRule{series: angcommSeries, prio: aggPrio, aggregated: true, groups: groups, commDelay: commDelay})
}
