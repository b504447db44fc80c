package sched

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
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
// materialized once per run: build sorts all tasks into rank order and
// partitions them by processor, giving each processor a dense local rank
// space over only its own tasks. Each processor's ready set is then a
// bitmap over its local ranks: push sets one bit; pop finds the lowest
// set bit — the ready task of minimum (priority, TaskID) — with a short
// forward word scan from a per-processor hint plus TrailingZeros64. That removes the
// per-pop sift work of a heap (the dominant cost of the kernel) in
// exchange for one cache-friendly radix sort per run, and the dense
// per-processor bitmaps (nt bits total across all processors) stay
// resident in L1.
//
// Pop order is identical to a min-heap's: both return the minimum of
// the current ready set under the same strict total order, so schedules
// are bitwise-identical to the container/heap kernels (refimpl).
type rankq struct {
	keys     []uint64 // sort scratch: (prio - minPrio) << idBits | TaskID
	keys2    []uint64 // radix scatter buffer
	order    []TaskID // taskOff[p] + local rank -> task
	node     []node   // task -> local rank on its processor (+ the engine's state), len nt+1
	taskOff  []int32  // processor -> start of its slot in order (len m+1)
	wordsOff []int32  // processor -> start of its bitmap words (len m+1)
	next     []int32  // partition scratch (len m)
	words    []uint64 // concatenated per-processor bitmaps
	minWord  []int32  // per-processor scan hint (lowest possibly-set word)
	count    []int32  // per-processor ready count

	// Angleset expansion scratch (buildAngleset, angleset.go): segment
	// table of one equal-priority run plus the group→segment stamp map.
	segA     []int32 // segment -> angleset
	segLo    []int32 // segment -> start in sorted keys (+ end sentinel)
	segOf    []int32 // angleset -> segment index, valid when stamped
	segStamp []int32 // angleset -> run id that last stamped segOf
}

// node is everything a list engine reads or writes about one task between
// its release and its pop, in 16 bytes — four tasks to a cache line — so
// releasing a successor (indeg, then proc and rank for the push) and
// popping a task (off, proc) each touch one line. rank is the queue's,
// written by place; the engine fills the rest once per run (fillNodes).
// The array is nt+1 long: node[t+1].off ends t's successor list in the
// task graph.
type node struct {
	indeg int32 // unfinished predecessors
	rank  int32 // local rank on proc
	off   int32 // start of the task's successors in taskGraph.succ
	proc  int32 // the task's processor
}

// build sorts the nt tasks by (prio, TaskID) and partitions the sorted
// order into per-processor local ranks (processor of task t is
// assign[t mod n]): processor p's tasks, in global (prio, id) order,
// occupy order[taskOff[p]:taskOff[p+1]] and get local ranks 0..count-1.
// The greedy scheduler pins nothing: it builds with m = 1 and every cell
// on processor 0, one partition ranked by (prio, TaskID) alone.
// It does not allocate once the scratch has grown to (nt, m).
func (q *rankq) build(prio Priorities, nt, m int, assign Assignment, n int32) {
	for _, key := range q.sortAndPartition(prio, nt, nt, m, assign, n) {
		t := TaskID(key)
		q.place(assign[int32(t)%n], t)
	}
}

// place gives task t the next local rank on its processor p. Tasks
// must be placed in global (prio, TaskID) order.
func (q *rankq) place(p int32, t TaskID) {
	lr := q.next[p]
	q.next[p] = lr + 1
	q.node[t].rank = lr
	q.order[q.taskOff[p]+lr] = t
}

// sortAndPartition is the prelude build and buildAngleset share. It
// grows the scratch for nt tasks on m processors, lays out the
// per-processor partition (task slots and bitmap words) with the local
// rank cursors q.next at zero, and returns the ids 0..nkeys-1 sorted by
// (prio, id) ascending — nkeys is nt for build, n·A for buildAngleset.
//
// Priorities whose spread fits alongside an id in 64 bits — every
// practical case; level and delay priorities are small ints — pack into
// uint64 keys, which are written in id order; a stable LSD radix sort of
// the priority bits alone therefore leaves them in (prio, id) order (one
// 12-bit pass for a spread under 4096, none when all priorities are
// equal). Wider spreads fall back to an in-place comparison sort.
func (q *rankq) sortAndPartition(prio Priorities, nkeys, nt, m int, assign Assignment, n int32) []uint64 {
	if cap(q.order) < nt {
		q.order = make([]TaskID, nt)
		q.node = make([]node, nt+1)
		q.keys = make([]uint64, nt)
		q.keys2 = make([]uint64, nt)
	}
	q.order = q.order[:nt]
	q.node = q.node[:nt+1]
	q.keys = q.keys[:nkeys]
	q.keys2 = q.keys2[:nkeys]
	if cap(q.taskOff) < m+1 {
		q.taskOff = make([]int32, m+1)
		q.wordsOff = make([]int32, m+1)
		q.next = make([]int32, m)
	}
	q.taskOff = q.taskOff[:m+1]
	q.wordsOff = q.wordsOff[:m+1]
	q.next = q.next[:m]

	// Per-processor task counts come from the task→cell mapping: the
	// Instance layout (nt = n·k, every direction one copy of each cell)
	// admits the cells-times-k shortcut, but a ragged nt (not a multiple
	// of n) must be counted task by task or the trailing partial
	// direction mis-sizes every offset after the first affected processor.
	next := q.next
	clear(next)
	if k := int32(nt) / n; k*n == int32(nt) {
		for v := int32(0); v < n; v++ {
			next[assign[v]] += k
		}
	} else {
		for t := int32(0); t < int32(nt); t++ {
			next[assign[t%n]]++
		}
	}
	var to, wo int32
	for p := 0; p < m; p++ {
		q.taskOff[p], q.wordsOff[p] = to, wo
		to += next[p]
		wo += (next[p] + 63) >> 6
	}
	q.taskOff[m], q.wordsOff[m] = to, wo
	clear(next)
	if nkeys == 0 {
		return nil
	}

	keys := q.keys
	minP, maxP := prio[0], prio[0]
	for _, p := range prio[1:] {
		if p < minP {
			minP = p
		} else if p > maxP {
			maxP = p
		}
	}
	spread := uint64(maxP) - uint64(minP)
	idBits := bits.Len64(uint64(nkeys - 1))
	if spread > math.MaxUint64>>(idBits+1) {
		for t := range keys {
			keys[t] = uint64(t)
		}
		slices.SortFunc(keys, func(x, y uint64) int {
			if c := cmp.Compare(prio[x], prio[y]); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		return keys
	}
	for t := range keys {
		keys[t] = (uint64(prio[t])-uint64(minP))<<idBits | uint64(t)
	}
	q.sortKeys(idBits, bits.Len64(spread))
	keys = q.keys // sortKeys may have swapped the buffers
	idMask := uint64(1)<<idBits - 1
	for r, key := range keys {
		keys[r] = key & idMask
	}
	return keys
}

// sortKeys is a stable LSD radix sort of q.keys ascending by the width
// bits above the low idBits, in 12-bit digits. The low bits hold the ids
// the keys were laid out by, so they are already in order within every
// priority and a stable sort never needs to look at them.
func (q *rankq) sortKeys(idBits, width int) {
	const dbits = 12
	const dsize = 1 << dbits
	var counts [dsize]int32
	keys, tmp := q.keys, q.keys2
	for shift := idBits; shift < idBits+width; shift += dbits {
		clear(counts[:])
		for _, k := range keys {
			counts[(k>>shift)&(dsize-1)]++
		}
		var sum int32
		for d := range counts {
			c := counts[d]
			counts[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := (k >> shift) & (dsize - 1)
			tmp[counts[d]] = k
			counts[d]++
		}
		keys, tmp = tmp, keys
	}
	q.keys, q.keys2 = keys, tmp
}

// reset clears the per-processor bitmaps for a run. Must follow build
// (which computes the partition offsets).
func (q *rankq) reset() {
	m := len(q.taskOff) - 1
	need := int(q.wordsOff[m])
	if cap(q.words) < need {
		// Each processor rounds its tasks up to whole words, so the count
		// moves with the assignment; nt/64 + m covers every assignment.
		q.words = make([]uint64, need, int(q.taskOff[m])>>6+m)
	}
	q.words = q.words[:need]
	clear(q.words)
	if cap(q.minWord) < m {
		q.minWord = make([]int32, m)
		q.count = make([]int32, m)
	}
	q.minWord = q.minWord[:m]
	q.count = q.count[:m]
	copy(q.minWord, q.wordsOff[1:])
	clear(q.count)
}

// push marks task t ready on its processor p (p must be the processor
// build partitioned t onto).
func (q *rankq) push(p int32, t TaskID) {
	r := q.node[t].rank
	w := q.wordsOff[p] + r>>6
	q.words[w] |= 1 << uint(r&63)
	if w < q.minWord[p] {
		q.minWord[p] = w
	}
	q.count[p]++
}

// pop removes and returns processor p's ready task of minimum
// (priority, TaskID). The caller must check count[p] > 0 first.
func (q *rankq) pop(p int32) TaskID {
	w := q.minWord[p]
	for q.words[w] == 0 {
		w++
	}
	b := bits.TrailingZeros64(q.words[w])
	q.words[w] &^= 1 << uint(b)
	q.minWord[p] = w
	q.count[p]--
	lr := int32(w-q.wordsOff[p])<<6 + int32(b)
	return q.order[q.taskOff[p]+lr]
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
