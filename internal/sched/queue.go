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
// total across all processors) stay resident in L1. The ranks follow
// TaskIDs, so no tie breaks by where a task sits; everything else the
// engines touch per task — the nodes, the ranked order, the successors —
// is indexed by the task's slot in the instance's task graph, and pop
// returns a slot.
//
// Pop order is identical to a min-heap's: both return the minimum of
// the current ready set under the same strict total order, so schedules
// are bitwise-identical to the container/heap kernels (refimpl).
type rankq struct {
	order []int32  // procs[p].tasks + local rank -> slot
	node  []node   // slot -> local rank on its processor and the engine's state, len nt+1
	procs []procq  // processor -> its queue record; procs[m] closes the last one (len m+1)
	words []uint64 // concatenated per-processor bitmaps

	// Ranking scratch: the counting path's bucket cursors and one
	// direction's ranks by cell, the radix path's ids and priority
	// offsets.
	cursor   []int32
	cellRank []int32
	sorter   keyOrder
}

// procq is one processor's queue record: everything push and pop read or
// write about the processor, in 16 bytes, so each touches one line of
// queue state besides the bitmap word.
type procq struct {
	words int32 // first bitmap word
	min   int32 // scan hint: no word below it has a set bit
	count int32 // ready tasks
	tasks int32 // first place in order
}

// node is everything a list engine reads or writes about one task between
// its release and its pop, in 16 bytes — four tasks to a cache line — so
// releasing a successor (indeg, then proc and rank for the push) and
// popping a task (off, proc) each touch one line. load writes all of it
// once per run, in slot order. The array is nt+1 long: node[s+1].off ends
// slot s's successor list in the task graph.
type node struct {
	indeg int32 // unfinished predecessors
	rank  int32 // local rank on proc
	off   int32 // start of the slot's successors in taskGraph.succ
	proc  int32 // the task's processor
}

// prelude is one run's input to load: the priorities to rank by, where
// every task runs, and the graph and release state its node and its
// filing as a source come from. Processor of task t is assign[t mod n].
// prio and done are per TaskID, floor per slot.
type prelude struct {
	prio   Priorities // one per task
	nt, m  int
	n      int32
	assign Assignment
	dags   []*dag.DAG // the directions' in-degrees, and in-lists under done
	g      *taskGraph // the slots and their successor offsets
	done   []bool     // tasks finished before the run; nil for none
	floor  []int32    // release floors by slot, nil for none: a source with one above 0 waits in cal
	cal    *calendar
}

// load is the prelude every list engine runs, as one call: it ranks the
// tasks in TaskID order, writes every node in slot order, empties the
// ready sets and files each source as ready (or, under a release floor
// above 0, in the calendar), and returns how many tasks the run
// schedules. The greedy scheduler pins
// nothing: it loads with m = 1 and every cell on processor 0, one
// partition ranked by (prio, TaskID) alone. It does not allocate once the
// scratch has grown to the run's shape.
//
// How the ranks are computed depends on the priorities' spread
// (rankPathFor). On the counting path — level and delay priorities at any
// practical m — fill counts them out one direction at a time, just
// before it writes that direction's nodes; otherwise build radix-sorts
// first and fill reads them.
func (q *rankq) load(in prelude) (remaining int) {
	nt, m := in.nt, in.m
	if cap(q.order) < nt {
		q.order = make([]int32, nt)
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
// priority-minor, and leaves each bucket's first place in order in
// q.cursor and each processor's first place and bitmap word in its
// record. fill then ranks the tasks.
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
	var next, word int32
	for p := 0; p < in.m; p++ {
		first := next
		for b, c := range cur[p*span : (p+1)*span] {
			cur[p*span+b] = next
			next += c
		}
		q.procs[p].tasks, q.procs[p].words = first, word
		word += (next - first + 63) >> 6
	}
	q.procs[in.m].tasks, q.procs[in.m].words = next, word
}

// fill writes every task's node — in-degree, rank, successor offset,
// processor — in one sequential pass in slot order per direction, files
// the sources, and returns the number of tasks to schedule. On the
// counting path (span > 0) it first ranks the direction's tasks in id
// order into q.cellRank: each takes the next place of its (processor,
// priority) bucket, the tasks come in id order, so each bucket fills in
// id order and a processor's buckets, in priority order, hold its tasks
// in (priority, id) order. On the radix path build has put the ranks in
// the nodes already. Under a done mask only edges between not-done tasks
// count; done tasks sit at in-degree 0 and are never filed, and a
// finished predecessor drives a done successor's counter negative, never
// to zero, so the engines' release loops need no mask test.
func (q *rankq) fill(in *prelude, minP int64, span int) (remaining int) {
	n := int(in.n)
	nodes, procs, order, cur := q.node, q.procs, q.order, q.cursor
	if span > 0 {
		q.cellRank = grow(q.cellRank, n)
	}
	cellRank := q.cellRank
	for i, base := 0, 0; base < in.nt; i, base = i+1, base+n {
		cells := min(n, in.nt-base)
		d, seg, off := in.dags[i], nodes[base:base+cells], in.g.off[base:base+cells]
		if span > 0 {
			slots := in.g.slot[base : base+cells]
			for v, pv := range in.prio[base : base+cells] {
				p := in.assign[v]
				b := int(p)*span + int(pv-minP)
				at := cur[b]
				cur[b] = at + 1
				order[at] = slots[v]
				cellRank[v] = at - procs[p].tasks
			}
		}
		var mask []bool
		if in.done != nil {
			mask = in.done[base : base+cells]
		}
		for j, v := range in.g.order[i][:cells] {
			p := in.assign[v]
			var r int32
			if span > 0 {
				r = cellRank[v]
			} else {
				r = seg[j].rank
			}
			var indeg int32
			switch {
			case mask == nil:
				indeg = int32(d.InDegree(v))
			case mask[v]:
				seg[j] = node{rank: r, off: off[j], proc: p}
				continue
			default:
				for _, u := range d.In(v) {
					if !mask[u] {
						indeg++
					}
				}
			}
			seg[j] = node{indeg: indeg, rank: r, off: off[j], proc: p}
			remaining++
			if indeg == 0 {
				if s := int32(base + j); in.floor != nil && in.floor[s] > 0 {
					in.cal.push(s, in.floor[s])
				} else {
					q.push(p, r)
				}
			}
		}
	}
	nodes[in.nt].off = in.g.off[in.nt]
	return remaining
}

// build ranks per-task priorities on the radix path: it lays out the
// processors' places in order, writes every slot's processor into its
// node, sorts the slots by their tasks' (prio, id) — they go in in id
// order and sortByKey is stable, so equal priorities keep id order — and
// places each, in that order, at the next local rank on its processor,
// reading the processor from the same node line it writes the rank to.
func (q *rankq) build(in *prelude, minP int64, spread uint64) {
	q.partition(in.nt, in.m, in.assign, in.n)
	n := int(in.n)
	for i, base := 0, 0; base < in.nt; i, base = i+1, base+n {
		seg := q.node[base:min(base+n, in.nt)]
		for j, v := range in.g.order[i][:len(seg)] {
			seg[j].proc = in.assign[v]
		}
	}
	slots, keys := q.sorter.take(len(in.prio))
	copy(slots, in.g.slot[:len(in.prio)])
	for t, p := range in.prio {
		keys[t] = uint64(p) - uint64(minP)
	}
	slots, _ = q.sorter.sortByKey(slots, keys, spread)
	for _, s := range slots {
		nd := &q.node[s]
		pq := &q.procs[nd.proc]
		nd.rank = pq.count
		q.order[pq.tasks+pq.count] = s
		pq.count++
	}
}

// partition lays out the processors' places in order and their bitmap
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
	var next, word int32
	for p := 0; p < m; p++ {
		c := procs[p].count
		procs[p].tasks, procs[p].words, procs[p].count = next, word, 0
		next += c
		word += (c + 63) >> 6
	}
	procs[m].tasks, procs[m].words = next, word
}

// reset empties every processor's ready set. The layout (the records'
// places and words) must be in place.
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

// pop removes processor p's ready task of minimum (priority, TaskID) and
// returns its slot. The caller must check procs[p].count > 0 first.
func (q *rankq) pop(p int32) int32 {
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
// schedule step: bucket (due & mask) holds the tasks, by slot, that
// become available at step due. It replaces the map[int32][]TaskID
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
//
// A task is on file at most once at a time, so the entries live in the
// tasks' own slots: each bucket is a list linked through next, in push
// order. prepare sizes the slots and drain's result for the run's tasks,
// so however the due steps spread, a warm calendar allocates nothing.
type calendar struct {
	head, tail []int32 // per bucket: its first and last task, -1 when empty
	next, due  []int32 // per task on file: the task after it in its bucket, its due step
	mask       int32
	pending    int
	out        []int32 // drain's result, reused
}

// prepare sizes the ring for entries due at most horizon steps ahead —
// the next power of two above min(horizon, tasks) — and the entries for
// tasks 0..tasks-1, and empties it. Nothing shrinks, so steady-state
// reuse with a stable shape performs no allocation.
func (c *calendar) prepare(horizon int32, tasks int) {
	need := min(int(horizon), tasks) + 1
	size := max(len(c.head), 1)
	for size < need {
		size <<= 1
	}
	c.head, c.tail = grow(c.head, size), grow(c.tail, size)
	for i := range c.head {
		c.head[i] = -1
	}
	c.next, c.due = grow(c.next, tasks), grow(c.due, tasks)
	if cap(c.out) < tasks {
		c.out = make([]int32, 0, tasks)
	}
	c.mask = int32(size - 1)
	c.pending = 0
}

// push files task s, not on file, under its due step, which must lie
// after the step last drained. A task past the prepared ones grows the
// entries.
func (c *calendar) push(s, due int32) {
	if n := int(s) + 1; n > len(c.next) {
		c.next = append(c.next, make([]int32, n-len(c.next))...)
		c.due = append(c.due, make([]int32, n-len(c.due))...)
	}
	c.next[s], c.due[s] = -1, due
	b := due & c.mask
	if c.head[b] < 0 {
		c.head[b] = s
	} else {
		c.next[c.tail[b]] = s
	}
	c.tail[b] = s
	c.pending++
}

// drain removes and returns the tasks due exactly at step now, in push
// order; entries of a later lap of the ring stay in their bucket. The
// result is valid until the next drain.
func (c *calendar) drain(now int32) []int32 {
	b := now & c.mask
	out, prev := c.out[:0], int32(-1)
	for e := c.head[b]; e >= 0; e = c.next[e] {
		if c.due[e] != now {
			prev = e
			continue
		}
		out = append(out, e)
		if prev < 0 {
			c.head[b] = c.next[e]
		} else {
			c.next[prev] = c.next[e]
		}
		if c.tail[b] == e {
			c.tail[b] = prev
		}
	}
	c.out = out
	c.pending -= len(out)
	return out
}

// earliest returns the smallest due step on file; the calendar must not
// be empty.
func (c *calendar) earliest() int32 {
	first := int32(math.MaxInt32)
	for _, e := range c.head {
		for ; e >= 0; e = c.next[e] {
			first = min(first, c.due[e])
		}
	}
	return first
}
