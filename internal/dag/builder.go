package dag

import (
	"fmt"
	"sync"

	"sweepsched/internal/geom"
)

// Builder is the reusable scratch arena of per-direction DAG induction:
// the orientation-dot buffer, the oriented edge list, the CSR counting
// cursor, DFS cycle-break scratch and Kahn level scratch. One warm
// builder makes BuildInto allocate nothing — the scheduling kernels
// went zero-allocation in PR 3, which left DAG induction (a fresh edge
// list, two CSR halves, DFS scratch and level arrays per direction per
// build) the dominant pre-schedule cost of every trial loop that
// rebuilds DAG families.
//
// A Builder is not safe for concurrent use; parallel family builds
// draw one each from the shape-keyed pool (GetBuilder/Release).
type Builder struct {
	eu, ev []int32 // oriented edge endpoints, in face order
	color  []int8  // DFS colors (white/gray/black)
	stack  []frame // DFS frames
	indeg  []int32 // Kahn indegree scratch
	queue  []int32 // Kahn ready stack

	key builderKey
}

// frame is one iterative-DFS stack entry (identical to the frame of the
// pre-skeleton breakCycles; see internal/dag/refimpl).
type frame struct {
	v    int32
	next int32 // index into out[outStart[v]:...]
}

// NewBuilder returns an empty builder; it grows to fit the first
// skeleton it builds from and is warm from the second call on. Callers
// running build loops should prefer GetBuilder, which recycles builders
// across goroutines per skeleton shape.
func NewBuilder() *Builder { return &Builder{} }

// builderKey identifies a skeleton shape for builder pooling.
type builderKey struct {
	n, nf int
}

// builderPools holds one sync.Pool of warm builders per skeleton shape
// (cell count, interior-face count), mirroring sched.Workspace's
// shape-keyed pools: a family build's Get returns scratch already sized
// for its mesh, never scratch inflated by an unrelated larger one.
var builderPools sync.Map // builderKey -> *sync.Pool

// GetBuilder draws a builder warm for the skeleton's shape from the
// pool. Pair it with Release.
func GetBuilder(skel *Skeleton) *Builder {
	key := builderKey{skel.NCells, skel.NFaces()}
	p, ok := builderPools.Load(key)
	if !ok {
		p, _ = builderPools.LoadOrStore(key, &sync.Pool{})
	}
	b, _ := p.(*sync.Pool).Get().(*Builder)
	if b == nil {
		b = NewBuilder()
	}
	b.key = key
	return b
}

// Release returns the builder to its shape's pool. The builder must not
// be used afterwards; DAGs it built remain valid (they never alias
// builder memory).
func (b *Builder) Release() {
	if b.key == (builderKey{}) {
		return // not pool-managed (NewBuilder)
	}
	if p, ok := builderPools.Load(b.key); ok {
		p.(*sync.Pool).Put(b)
	}
}

// grow sizes the builder scratch for a skeleton shape. After the first
// call for a shape, subsequent calls for the same (or smaller) shape
// allocate nothing.
func (b *Builder) grow(n, nf int) {
	if cap(b.eu) < nf {
		b.eu = make([]int32, 0, nf)
		b.ev = make([]int32, 0, nf)
	}
	if cap(b.color) < n {
		b.color = make([]int8, n)
	}
	b.color = b.color[:n]
	if cap(b.indeg) < n {
		b.indeg = make([]int32, n)
	}
	b.indeg = b.indeg[:n]
	if cap(b.queue) < n {
		b.queue = make([]int32, 0, n)
	}
}

// growInt32 resizes a recycled destination slice, reusing its backing
// array when it is already large enough.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	return s[:n]
}

// BuildInto induces the DAG for one direction over the skeleton,
// writing into dst (whose backing arrays are reused when dst is a
// recycled DAG) and using the builder for every piece of transient
// state. On a warm builder with a recycled destination it performs zero
// heap allocations. The produced DAG is bitwise-identical to the
// pre-skeleton Build's for the same mesh and direction — same CSR
// contents, levels and RemovedEdges — which the differential tests
// against internal/dag/refimpl and FuzzBuildEquivalence enforce.
//
// dst must not alias a DAG still in use: its contents are overwritten.
func (b *Builder) BuildInto(dst *DAG, skel *Skeleton, dir geom.Vec3) {
	n := skel.NCells
	nf := skel.NFaces()
	b.grow(n, nf)

	// Fused orientation and edge-emission pass: one streaming loop over
	// the SoA normals, emitting edges in face order (upwind endpoint
	// first). The Vec3 reconstruction compiles to three loads and the
	// same dot expression the face-table walk used, keeping the float64
	// comparison against Eps bit-for-bit identical.
	eu, ev := b.eu[:0], b.ev[:0]
	nx, ny, nz := skel.NX, skel.NY, skel.NZ
	for j := 0; j < nf; j++ {
		d := (geom.Vec3{X: nx[j], Y: ny[j], Z: nz[j]}).Dot(dir)
		switch {
		case d > Eps:
			eu = append(eu, skel.U[j])
			ev = append(ev, skel.V[j])
		case d < -Eps:
			eu = append(eu, skel.V[j])
			ev = append(ev, skel.U[j])
		}
	}
	b.eu, b.ev = eu, ev
	b.finish(dst, n)
}

// finish turns the builder's oriented edge list over n cells into dst:
// both CSR halves, levels, and — only when the level peel finds a cycle —
// the DFS cycle break. BuildInto and FromEdges both end here.
func (b *Builder) finish(dst *DAG, n int) {
	eu, ev := b.eu, b.ev
	dst.N = n
	dst.RemovedEdges = 0
	dst.NumLevels = 0
	dst.memo = facts{} // whatever was derived from the previous graph
	b.buildCSR(dst, n)
	b.buildInCSR(dst, n)

	// Optimistic Kahn pass: mesh DAGs are acyclic for almost every
	// direction, and a completed level peel proves it — in that case
	// the DFS cycle hunt (a full extra pass over the graph) is skipped
	// entirely. The peel relaxes levels to their final values, so its
	// output is identical whether or not the DFS would have run.
	if b.computeLevels(dst, n) == n {
		return
	}

	// Cycles: break them exactly as the pre-skeleton Build did (same
	// DFS order, so the same back edges are removed), then rebuild both
	// CSR halves and re-peel.
	dst.RemovedEdges = b.breakCycles(dst, n)
	kept := 0
	for u := int32(0); u < int32(n); u++ {
		for _, v := range dst.Out(u) {
			if v >= 0 {
				eu[kept], ev[kept] = u, v
				kept++
			}
		}
	}
	b.eu, b.ev = eu[:kept], ev[:kept]
	dst.NumLevels = 0
	b.buildCSR(dst, n)
	b.buildInCSR(dst, n)
	if done := b.computeLevels(dst, n); done != n {
		panic(fmt.Sprintf("dag: %d of %d cells unreachable in level peel (cycle?)", n-done, n))
	}
}

// buildCSR counting-sorts the builder's oriented edge list into the
// destination's out-adjacency, stable in edge order like the
// pre-skeleton Build. The start array doubles as the fill cursor (each
// slot ends up one range to the right, then the array is shifted back),
// which drops the separate cursor array and its clear pass.
func (b *Builder) buildCSR(dst *DAG, n int) {
	eu, ev := b.eu, b.ev
	outStart := growInt32(dst.outStart, n+1)
	clear(outStart)
	for _, u := range eu {
		outStart[u]++
	}
	sum := int32(0)
	for i := 0; i < n; i++ {
		c := outStart[i]
		outStart[i] = sum
		sum += c
	}
	outStart[n] = sum
	out := growInt32(dst.out, len(eu))
	for j, u := range eu {
		out[outStart[u]] = ev[j]
		outStart[u]++
	}
	copy(outStart[1:], outStart[:n])
	outStart[0] = 0
	dst.outStart, dst.out = outStart, out
}

// buildInCSR mirrors the out-adjacency into the destination's
// in-adjacency (stable in out-list order, like the pre-skeleton Build),
// with the same start-as-cursor fill as buildCSR.
func (b *Builder) buildInCSR(dst *DAG, n int) {
	out, outStart := dst.out, dst.outStart
	inStart := growInt32(dst.inStart, n+1)
	clear(inStart)
	for _, v := range out {
		inStart[v]++
	}
	sum := int32(0)
	for i := 0; i < n; i++ {
		c := inStart[i]
		inStart[i] = sum
		sum += c
	}
	inStart[n] = sum
	in := growInt32(dst.in, len(out))
	for u := int32(0); u < int32(n); u++ {
		for j := outStart[u]; j < outStart[u+1]; j++ {
			v := out[j]
			in[inStart[v]] = u
			inStart[v]++
		}
	}
	copy(inStart[1:], inStart[:n])
	inStart[0] = 0
	dst.inStart, dst.in = inStart, in
}

// computeLevels runs the Kahn level peel with builder scratch, writing
// dst.Level and dst.NumLevels, and returns how many cells it peeled (n
// means the graph is acyclic and the levels are final). The relaxation
// is the same as the pre-skeleton computeLevels, so the level function
// is identical; unlike it, this variant reports an incomplete peel to
// the caller instead of panicking, which is what lets finish try the
// peel before paying for the DFS cycle hunt.
func (b *Builder) computeLevels(dst *DAG, n int) int {
	indeg := b.indeg
	for v := int32(0); v < int32(n); v++ {
		indeg[v] = int32(dst.InDegree(v))
	}
	level := growInt32(dst.Level, n)
	clear(level)
	queue := b.queue[:0]
	for v := int32(0); v < int32(n); v++ {
		if indeg[v] == 0 {
			level[v] = 1
			queue = append(queue, v)
		}
	}
	done := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		lv := level[v]
		if int(lv) > dst.NumLevels {
			dst.NumLevels = int(lv)
		}
		for _, w := range dst.Out(v) {
			if level[w] < lv+1 {
				level[w] = lv + 1
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	b.queue = queue
	dst.Level = level
	return done
}

// breakCycles is the pre-skeleton iterative DFS over the out-adjacency
// with builder-owned scratch: it overwrites the target of every back
// edge with -1 and returns the number of edges removed. Traversal order
// is identical to the original, so the same back edges are removed.
func (b *Builder) breakCycles(dst *DAG, n int) int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := b.color
	clear(color)
	removed := 0
	stack := b.stack
	for s := int32(0); s < int32(n); s++ {
		if color[s] != white {
			continue
		}
		color[s] = gray
		stack = append(stack[:0], frame{v: s})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			lo, hi := dst.outStart[f.v], dst.outStart[f.v+1]
			if f.next == hi-lo {
				color[f.v] = black
				stack = stack[:len(stack)-1]
				continue
			}
			idx := lo + f.next
			f.next++
			w := dst.out[idx]
			if w < 0 {
				continue
			}
			switch color[w] {
			case white:
				color[w] = gray
				stack = append(stack, frame{v: w})
			case gray:
				dst.out[idx] = -1 // back edge: remove
				removed++
			}
		}
	}
	b.stack = stack
	return removed
}
