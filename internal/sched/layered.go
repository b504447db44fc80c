package sched

import "fmt"

// LayerFloorsInto fills floor (len = NTasks) with the floors of the
// layers in layer (level_i(v) + X_i, or L′ + X_i): a layer's floor is the
// sum over the earlier layers of each one's widest per-processor load.
// The same pass ranks every task within its (layer, processor), which
// the layered kernel keeps for a rule of these layers (rankLayers).
func LayerFloorsInto(ws *Workspace, floor []int32, inst *Instance, assign Assignment, layer Priorities) error {
	if len(floor) != inst.NTasks() {
		return fmt.Errorf("sched: %d floor slots for %d tasks", len(floor), inst.NTasks())
	}
	if err := ws.rankLayers(inst, assign, layer); err != nil {
		return err
	}
	for t, l := range layer {
		floor[t] = ws.layerAt[l]
	}
	return nil
}

// layerWalk names what the workspace's layer ranks and floors were
// counted for: the instance, a print of the layers and the assignment
// (layerPrint), and the makespan, the sum of all layer widths. The zero
// value names nothing.
type layerWalk struct {
	inst     *Instance
	print    uint64
	makespan int32
}

// layerPrint is a 64-bit print of each task's layer and processor: a
// sum over the tasks of a mix of (TaskID, layer, processor), so a
// change to any one task changes it.
func layerPrint(layer Priorities, assign Assignment, n int) uint64 {
	var h uint64
	for base := 0; base < len(layer); base += n {
		for v, l := range layer[base : base+n] {
			h += layerMix(base+v, l, assign[v])
		}
	}
	return h
}

func layerMix(t int, l int64, p int32) uint64 {
	x := (uint64(l)<<32 | uint64(uint32(p))) ^ uint64(t)*0x9e3779b97f4a7c15
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>31
}

// rankLayers makes the workspace's layer ranks and floors layer's on
// assign. Unless it has them already (ws.layers: this instance, the same
// print), it sorts the tasks by (layer, TaskID) with one counting pass,
// then walks the layers in that order with one counter per processor:
// each task's rank within its (layer, processor) goes in ws.layerRank
// and layer l's floor, the sum of the earlier layers' widths (largest
// rank + 1), in ws.layerAt[l]. Its scratch is O(NTasks + K + M), sized
// from the instance alone: a layer lies in [1, NTasks + K), as a level or
// greedy completion step (≤ NTasks) plus a delay (< K) does.
func (ws *Workspace) rankLayers(inst *Instance, assign Assignment, layer Priorities) error {
	nt, n, m := inst.NTasks(), inst.N(), inst.M
	if err := assign.Validate(n, m); err != nil {
		return err
	}
	if len(layer) != nt {
		return fmt.Errorf("sched: %d layers for %d tasks", len(layer), nt)
	}
	print := layerPrint(layer, assign, n)
	if ws.layers.inst == inst && ws.layers.print == print {
		return nil
	}
	ws.layers = layerWalk{}
	// at[l] counts layer l's tasks, then is where layer l begins in order
	// until its tasks are placed, then where it ends, then its floor.
	bound := nt + inst.K()
	ws.layerOrder, ws.layerAt, ws.procCount = grow(ws.layerOrder, nt), grow(ws.layerAt, bound+1), grow(ws.procCount, m)
	ws.layerRank = grow(ws.layerRank, nt)
	order, at, count, rank := ws.layerOrder, ws.layerAt, ws.procCount, ws.layerRank // count is all zero between runs
	clear(at)
	lo, hi := int64(bound), int64(0)
	for _, l := range layer {
		if l < 1 || l >= int64(bound) {
			return fmt.Errorf("sched: layer %d outside [1, %d)", l, bound)
		}
		lo, hi = min(lo, l), max(hi, l)
		at[l+1]++
	}
	for l := lo + 1; l <= hi; l++ {
		at[l] += at[l-1]
	}
	for base := 0; base < nt; base += n {
		for v, l := range layer[base : base+n] {
			order[at[l]] = uint64(base+v)<<32 | uint64(assign[v])
			at[l]++
		}
	}
	makespan, begin := int32(0), int32(0)
	for l := lo; l <= hi; l++ {
		tasks := order[begin:at[l]]
		begin = at[l]
		width := int32(0)
		for _, tp := range tasks {
			p := int32(tp)
			rank[tp>>32] = count[p]
			count[p]++
			width = max(width, count[p])
		}
		for _, tp := range tasks {
			count[int32(tp)] = 0
		}
		at[l] = makespan
		makespan += width
	}
	ws.layers = layerWalk{inst, print, makespan}
	return nil
}

// scheduleLayered runs a Layered rule (Algorithms 1 and 3). At a layer's
// floor every earlier layer has finished and no later one is released, so
// each processor runs the layer's tasks in TaskID order: the step core's
// schedule, written without ready sets. After rankLayers (which keeps
// the floors pass's ranks for the same layers), one walk in TaskID order
// refuses a floor that is not its layer's, starts each task at its floor
// plus its rank, checks that every edge climbs a layer, counts C1 and
// charges the task's cross-processor out-edges to its step for C2.
func (ws *Workspace) scheduleLayered(dst *Schedule, inst *Instance, assign Assignment, rule Rule) error {
	ws.hasMetrics = false
	nt, n := inst.NTasks(), inst.N()
	if rule.CommDelay != 0 || rule.Anglesets != nil || rule.Done != nil || len(rule.Release) != nt {
		return fmt.Errorf("sched: a layered rule is its layers (Prio) and their floors (Release, one per task) alone")
	}
	layer := rule.Prio
	if err := ws.rankLayers(inst, assign, layer); err != nil {
		return err
	}
	makespan, start := ws.layers.makespan, ensureStart(dst, nt)
	ws.start = grow(ws.start, nt)
	stepMax, floor, rank := ws.start[:makespan], ws.layerAt, ws.layerRank
	clear(stepMax)
	var c1 int64
	for i, d := range inst.DAGs {
		seg := layer[i*n : (i+1)*n]
		for u, lu := range seg {
			t := i*n + u
			if f := floor[lu]; rule.Release[t] != f {
				return fmt.Errorf("sched: task %d of layer %d has floor %d, its layer's is %d", t, lu, rule.Release[t], f)
			}
			c := int32(0)
			for _, w := range d.Out(int32(u)) {
				if seg[w] <= lu {
					return fmt.Errorf("sched: layer not monotone on edge (%d,%d)->(%d,%d): %d -> %d", u, i, w, i, lu, seg[w])
				}
				c += 1 - zeroBit(assign[w]^assign[u])
			}
			c1 += int64(c)
			start[t] = rank[t] + floor[lu]
			stepMax[start[t]] = max(stepMax[start[t]], c)
		}
	}
	var c2 int64
	for _, x := range stepMax {
		c2 += int64(x)
	}
	dst.Inst, dst.Assign, dst.CommDelay, dst.Makespan = inst, assign, 0, int(makespan)
	ws.metrics, ws.hasMetrics = Metrics{Makespan: dst.Makespan, C1: c1, C2: c2}, true
	return nil
}
