package sched

import (
	"math"
	"math/bits"

	"sweepsched/internal/dag"
)

// Typed ready-queue primitives for the scheduling kernels. Both replace
// container/heap structures from the original implementation: rankq is
// the rank-bitmap ready set every list engine pops from — the unit-step
// core and the weighted event core with one partition per processor, the
// greedy preprocessing with a single partition — and calendar is a
// monotone bucket queue for release times. rankq preserves the
// (priority, TaskID) total order the old heaps used, so schedules
// produced through it are bitwise-identical to the container/heap ones:
// a heap pops elements of a total order in sorted order whatever its
// insertion history, and rankq pops the ready task of minimum rank in
// exactly that order.

// rankq is the ready-set structure of the list engines (stepcore.go,
// weighted.go, GreedyScheduleInto). A run never changes a task's
// priority or its processor, so the (priority, TaskID) total order can be
// materialized once per run: load ranks every task among its processor's
// tasks, giving each processor a dense local rank space over only its own
// tasks. Each processor's ready set is then a bitmap over its local ranks:
// push sets one bit; pop finds the lowest set bit — the ready task of
// minimum (priority, TaskID) — with a short forward word scan from a
// per-processor hint plus TrailingZeros64. That removes the per-pop sift
// work of a heap (the dominant cost of the kernel) in exchange for one
// ranking pass per run, and the dense per-processor bitmaps (nt bits
// total across all processors) stay resident in L1.
//
// Pop order is identical to a min-heap's: both return the minimum of
// the current ready set under the same strict total order, so schedules
// are bitwise-identical to the container/heap kernels (refimpl).
type rankq struct {
	order []TaskID // procs[p].tasks + local rank -> task
	node  []node   // task -> local rank on its processor and the engine's state, len nt+1
	procs []procq  // processor -> its queue record; procs[m] closes the last one (len m+1)
	words []uint64 // concatenated per-processor bitmaps

	// Ranking scratch: the counting path's bucket cursors, the radix
	// path's ids and priority offsets.
	cursor []int32
	sorter keyOrder
}

// procq is one processor's queue record: everything push and pop read or
// write about the processor, in 16 bytes, so each touches one line of
// queue state besides the bitmap word.
type procq struct {
	words int32 // first bitmap word
	min   int32 // scan hint: no word below it has a set bit
	count int32 // ready tasks
	tasks int32 // first slot in order
}

// node is everything a list engine reads or writes about one task between
// its release and its pop, in 16 bytes — four tasks to a cache line — so
// releasing a successor (indeg, then proc and rank for the push) and
// popping a task (off, proc) each touch one line. load writes all of it
// once per run. The array is nt+1 long: node[t+1].off ends t's successor
// list in the task graph.
type node struct {
	indeg int32 // unfinished predecessors
	rank  int32 // local rank on proc
	off   int32 // start of the task's successors in taskGraph.succ
	proc  int32 // the task's processor
}

// prelude is one run's input to load: the priorities to rank by, where
// every task runs, and the graph and release state its node and its
// filing as a source come from. Processor of task t is assign[t mod n].
type prelude struct {
	prio   Priorities // one per task
	nt, m  int
	n      int32
	assign Assignment
	dags   []*dag.DAG // the directions' in-degrees, and in-lists under done
	off    []int32    // taskGraph.off: successor offsets, nt+1 of them
	done   []bool     // tasks finished before the run; nil for none
	floor  []int32    // release floors, nil for none: a source with one above 0 waits in cal
	cal    *calendar
}

// load is the prelude every list engine runs, as one call: it ranks the
// tasks, writes every node, empties the ready sets and files each source
// as ready (or, under a release floor above 0, in the calendar), and
// returns how many tasks the run schedules. The greedy scheduler pins
// nothing: it loads with m = 1 and every cell on processor 0, one
// partition ranked by (prio, TaskID) alone. It does not allocate once the
// scratch has grown to the run's shape.
//
// How the ranks are computed depends on the priorities' spread
// (rankPathFor). On the counting path — level and delay priorities at any
// practical m — they come out of the same pass that writes the nodes;
// otherwise build radix-sorts first and that pass reads them.
func (q *rankq) load(in prelude) (remaining int) {
	nt, m := in.nt, in.m
	if cap(q.order) < nt {
		q.order = make([]TaskID, nt)
		q.node = make([]node, nt+1)
	}
	q.order, q.node = q.order[:nt], q.node[:nt+1]
	if cap(q.procs) < m+1 {
		q.procs = make([]procq, m+1)
	}
	q.procs = q.procs[:m+1]

	minP, spread := prioRange(in.prio)
	span := 0
	if rankPathFor(spread, nt, m) == countPath {
		span = int(spread) + 1
		q.countBuckets(&in, minP, span)
	} else {
		q.build(&in, minP, spread)
	}
	q.reset()
	return q.fill(&in, minP, span)
}

// rankPath is how load ranks a run's tasks.
type rankPath uint8

const (
	countPath rankPath = iota // one stable counting pass by (processor, priority)
	radixPath                 // keyOrder.sortByKey of the ids by priority
)

// rankPathFor is the one place the ranking method is chosen, from the
// spread (largest minus smallest) of the priorities of nt tasks on m
// processors. The counting pass keeps a bucket per (processor, priority
// value) and takes the run when those (spread+1)·m buckets are no more
// than the tasks, so laying them out costs no more than the pass itself.
// Any wider spread, up to the full 64 bits, goes to the radix sort.
func rankPathFor(spread uint64, nt, m int) rankPath {
	if spread < uint64(nt) && (spread+1)*uint64(m) <= uint64(nt) {
		return countPath
	}
	return radixPath
}

// prioRange returns the smallest priority and the spread up to the largest.
func prioRange(prio Priorities) (minP int64, spread uint64) {
	if len(prio) == 0 {
		return 0, 0
	}
	minP, maxP := prio[0], prio[0]
	for _, p := range prio[1:] {
		minP, maxP = min(minP, p), max(maxP, p)
	}
	return minP, uint64(maxP) - uint64(minP)
}

// countBuckets lays out the counting path: it counts the tasks of every
// (processor, priority) bucket, orders the buckets processor-major and
// priority-minor, and leaves each bucket's first slot in order in
// q.cursor and each processor's first slot and bitmap word in its record.
// fill then ranks the tasks.
func (q *rankq) countBuckets(in *prelude, minP int64, span int) {
	nb := in.m * span
	if cap(q.cursor) < nb {
		q.cursor = make([]int32, nb)
	}
	cur := q.cursor[:nb]
	q.cursor = cur
	clear(cur)
	n := int(in.n)
	for base := 0; base < in.nt; base += n {
		for v, pv := range in.prio[base:min(base+n, in.nt)] {
			cur[int(in.assign[v])*span+int(pv-minP)]++
		}
	}
	var slot, word int32
	for p := 0; p < in.m; p++ {
		first := slot
		for b, c := range cur[p*span : (p+1)*span] {
			cur[p*span+b] = slot
			slot += c
		}
		q.procs[p].tasks, q.procs[p].words = first, word
		word += (slot - first + 63) >> 6
	}
	q.procs[in.m].tasks, q.procs[in.m].words = slot, word
}

// fill writes every task's node — in-degree, rank, successor offset,
// processor — in one sequential pass in id order, files the sources, and
// returns the number of tasks to schedule. On the counting path (span > 0)
// it ranks as it goes: a task takes the next slot of its (processor,
// priority) bucket, the tasks come in id order, so each bucket fills in id
// order and a processor's buckets, in priority order, hold its tasks in
// (priority, id) order. On the radix path build has ranked them
// already. Under a done mask only edges between not-done tasks
// count; done tasks sit at in-degree 0 and are never filed, and a finished
// predecessor drives a done successor's counter negative, never to zero,
// so the engines' release loops need no mask test.
func (q *rankq) fill(in *prelude, minP int64, span int) (remaining int) {
	n := int(in.n)
	nodes, procs, order, cur := q.node, q.procs, q.order, q.cursor
	for i, base := 0, 0; base < in.nt; i, base = i+1, base+n {
		cells := min(n, in.nt-base)
		d, seg, off := in.dags[i], nodes[base:base+cells], in.off[base:base+cells]
		pr := in.prio[base : base+cells]
		var mask []bool
		if in.done != nil {
			mask = in.done[base : base+cells]
		}
		for v := range seg {
			p := in.assign[v]
			var r int32
			if span > 0 {
				b := int(p)*span + int(pr[v]-minP)
				slot := cur[b]
				cur[b] = slot + 1
				order[slot] = TaskID(base + v)
				r = slot - procs[p].tasks
			} else {
				r = seg[v].rank
			}
			var indeg int32
			switch {
			case mask == nil:
				indeg = int32(d.InDegree(int32(v)))
			case mask[v]:
				seg[v] = node{rank: r, off: off[v], proc: p}
				continue
			default:
				for _, u := range d.In(int32(v)) {
					if !mask[u] {
						indeg++
					}
				}
			}
			seg[v] = node{indeg: indeg, rank: r, off: off[v], proc: p}
			remaining++
			if indeg == 0 {
				if t := TaskID(base + v); in.floor != nil && in.floor[t] > 0 {
					in.cal.push(t, in.floor[t])
				} else {
					q.push(p, r)
				}
			}
		}
	}
	nodes[in.nt].off = in.off[in.nt]
	return remaining
}

// build ranks per-task priorities on the radix path: it lays out the
// processors' slots, sorts the ids by (prio, id) — sortByKey is stable and
// the ids go in ascending, so equal priorities keep id order — and places
// each task, in that order, at the next local rank on its processor.
func (q *rankq) build(in *prelude, minP int64, spread uint64) {
	q.partition(in.nt, in.m, in.assign, in.n)
	ids, keys := q.sorter.take(len(in.prio))
	for t, p := range in.prio {
		ids[t], keys[t] = TaskID(t), uint64(p)-uint64(minP)
	}
	ids, _ = q.sorter.sortByKey(ids, keys, spread)
	for _, t := range ids {
		pq := &q.procs[in.assign[int32(t)%in.n]]
		q.node[t].rank = pq.count
		q.order[pq.tasks+pq.count] = t
		pq.count++
	}
}

// partition lays out the processors' slots in order and their bitmap
// words for the radix path, with every record's count at zero for
// build to use as its cursor. The per-processor task counts come from
// the task→cell mapping: the Instance layout (nt = n·k, every direction
// one copy of each cell) admits the cells-times-k shortcut, but a ragged
// nt (not a multiple of n) must be counted task by task or the trailing
// partial direction mis-sizes every offset after the first affected
// processor.
func (q *rankq) partition(nt, m int, assign Assignment, n int32) {
	procs := q.procs
	for p := range procs {
		procs[p].count = 0
	}
	if k := int32(nt) / n; k*n == int32(nt) {
		for v := int32(0); v < n; v++ {
			procs[assign[v]].count += k
		}
	} else {
		for t := int32(0); t < int32(nt); t++ {
			procs[assign[t%n]].count++
		}
	}
	var slot, word int32
	for p := 0; p < m; p++ {
		c := procs[p].count
		procs[p].tasks, procs[p].words, procs[p].count = slot, word, 0
		slot += c
		word += (c + 63) >> 6
	}
	procs[m].tasks, procs[m].words = slot, word
}

// reset empties every processor's ready set. The layout (the records'
// slots and words) must be in place.
func (q *rankq) reset() {
	m := len(q.procs) - 1
	need := int(q.procs[m].words)
	if cap(q.words) < need {
		// Each processor rounds its tasks up to whole words, so the count
		// moves with the assignment; nt/64 + m covers every assignment.
		q.words = make([]uint64, need, int(q.procs[m].tasks)>>6+m)
	}
	q.words = q.words[:need]
	clear(q.words)
	for p := 0; p < m; p++ {
		q.procs[p].min, q.procs[p].count = q.procs[p+1].words, 0
	}
}

// push marks the task of local rank r on processor p ready (p must be the
// processor load ranked it on).
func (q *rankq) push(p, r int32) { q.pushIf(p, r, 1) }

// pushIf is push when ready is 1 and leaves the ready set as it was when
// ready is 0, without a branch: a release loop that would otherwise
// branch on a successor's last predecessor — a coin flip for the
// predictor — passes the outcome in as a number instead. An unready
// task's word gains no bit, the count nothing, and its word index is
// lifted past any real one before it meets the scan hint.
func (q *rankq) pushIf(p, r, ready int32) {
	pq := &q.procs[p]
	w := pq.words + r>>6
	q.words[w] |= uint64(ready) << uint(r&63)
	pq.count += ready
	pq.min = min(pq.min, w|(ready-1)&math.MaxInt32)
}

// zeroBit is 1 when x is 0 and 0 otherwise, computed without a branch:
// x|-x has its sign bit set exactly when x is not 0 (x > MinInt32).
func zeroBit(x int32) int32 { return 1 + (x|-x)>>31 }

// pop removes and returns processor p's ready task of minimum
// (priority, TaskID). The caller must check procs[p].count > 0 first.
func (q *rankq) pop(p int32) TaskID {
	pq := &q.procs[p]
	w := pq.min
	for q.words[w] == 0 {
		w++
	}
	b := bits.TrailingZeros64(q.words[w])
	q.words[w] &^= 1 << uint(b)
	pq.min = w
	pq.count--
	return q.order[pq.tasks+(w-pq.words)<<6+int32(b)]
}

// calendar is a monotone bucket queue for task release times keyed on the
// schedule step: bucket (due & mask) holds the tasks that become
// available at step due. It replaces the map[int32][]TaskID
// "future" calendars that list.go and comm.go each used to duplicate.
//
// The queue exploits the monotone structure of the scheduling loop: the
// current step only increases, and every pushed due step lies within a
// bounded horizon of the current step (releases are bounded by the
// maximum delay; comm-model availability by commDelay+1). A ring of
// size > horizon maps each in-flight due step to a distinct bucket,
// making push and drain O(1) with no hashing and no per-step map
// traffic. The ring is never larger than the task count calls for,
// though: an accepted horizon can be 2³⁰ steps on a handful of tasks.
// Past that cap due steps a whole lap apart share a bucket, so every
// entry carries its due step and drain takes only the ones due now.
// Bucket slices are reused across runs.
type calendar struct {
	buckets [][]calEntry
	mask    int32
	pending int
	out     []TaskID // drain's result, reused
}

type calEntry struct {
	t   TaskID
	due int32
}

// prepare sizes the ring for tasks entries due at most horizon steps
// ahead — the next power of two above min(horizon, tasks) — and clears
// any stale contents. The ring only ever grows, so steady-state reuse
// with a stable shape performs no allocation.
func (c *calendar) prepare(horizon int32, tasks int) {
	need := min(int(horizon), tasks) + 1
	size := max(len(c.buckets), 1)
	for size < need {
		size <<= 1
	}
	if size != len(c.buckets) {
		nb := make([][]calEntry, size)
		copy(nb, c.buckets)
		c.buckets = nb
	}
	c.mask = int32(size - 1)
	for i := range c.buckets {
		c.buckets[i] = c.buckets[i][:0]
	}
	c.pending = 0
}

// push files a task under its due step, which must lie after the step
// last drained.
func (c *calendar) push(t TaskID, due int32) {
	i := due & c.mask
	c.buckets[i] = append(c.buckets[i], calEntry{t, due})
	c.pending++
}

// drain removes and returns the tasks due exactly at step now, in push
// order; entries of a later lap of the ring stay in their bucket. The
// result is valid until the next drain.
func (c *calendar) drain(now int32) []TaskID {
	b := c.buckets[now&c.mask]
	if len(b) == 0 {
		return nil
	}
	out, keep := c.out[:0], b[:0]
	for _, e := range b {
		if e.due == now {
			out = append(out, e.t)
		} else {
			keep = append(keep, e)
		}
	}
	c.buckets[now&c.mask], c.out = keep, out
	c.pending -= len(out)
	return out
}

// earliest returns the smallest due step on file; the calendar must not
// be empty.
func (c *calendar) earliest() int32 {
	first := int32(math.MaxInt32)
	for _, b := range c.buckets {
		for _, e := range b {
			first = min(first, e.due)
		}
	}
	return first
}
