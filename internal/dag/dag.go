// Package dag builds and analyzes the per-direction sweep dependence graphs
// (§3 of the paper). For a mesh and a sweep direction, every interior face
// whose normal has a positive component along the direction induces an edge
// from its upwind cell to its downwind cell. The induced digraph is made
// acyclic by removing back edges (the paper likewise assumes cycles are
// broken), then layered into levels: L_1 is the set of sources, L_{j} the
// sources remaining after L_1..L_{j-1} are deleted. Levels equal
// longest-path depth from a source, and the number of levels is the critical
// path length in unit tasks.
package dag

import (
	"fmt"
	"math/bits"
	"sync"

	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
	"sweepsched/internal/par"
)

// DAG is one direction's precedence graph over mesh cells in CSR form (both
// out- and in-adjacency), with topological levels precomputed.
type DAG struct {
	N int // number of cells

	outStart []int32
	out      []int32
	inStart  []int32
	in       []int32

	// Level[v] is the 1-based topological level of cell v; NumLevels is the
	// maximum (the critical path length in unit tasks).
	Level     []int32
	NumLevels int

	// RemovedEdges counts edges dropped to break cycles.
	RemovedEdges int

	memo facts
}

// facts are the quantities every priority computation starts from that
// depend on the graph alone — not on the seed, the assignment or the
// machine: the level-order permutation, the b-levels and the descendant
// counts. Each is built on first use (concurrent first readers share one
// build), read-only from then on, and dropped when Builder.BuildInto
// recycles the DAG, so a family that is planned many times pays for them
// once.
type facts struct {
	order   lazy[[]int32]
	blevels lazy[[]int32]
	exact   lazy[[]int32]
	approx  lazy[[]int64]
}

// lazy is one build-once value.
type lazy[T any] struct {
	once sync.Once
	v    T
}

func (l *lazy[T]) get(build func() T) T {
	l.once.Do(func() { l.v = build() })
	return l.v
}

// Out returns v's successors. The slice aliases internal storage.
func (d *DAG) Out(v int32) []int32 { return d.out[d.outStart[v]:d.outStart[v+1]] }

// In returns v's predecessors, in ascending order: every constructor
// mirrors the out-lists cell by cell, and sched.RecvTable.Build places an
// edge on its consumer's side by that order. The slice aliases internal
// storage.
func (d *DAG) In(v int32) []int32 { return d.in[d.inStart[v]:d.inStart[v+1]] }

// OutDegree returns the number of successors of v.
func (d *DAG) OutDegree(v int32) int { return int(d.outStart[v+1] - d.outStart[v]) }

// InDegree returns the number of predecessors of v.
func (d *DAG) InDegree(v int32) int { return int(d.inStart[v+1] - d.inStart[v]) }

// NumEdges returns the number of (surviving) edges.
func (d *DAG) NumEdges() int { return len(d.out) }

// Eps is the face-normal/direction alignment threshold below which a face is
// treated as parallel to the sweep (no dependence across it).
const Eps = 1e-9

// Build induces the DAG for one direction. Cycles, which arise on
// unstructured meshes, are broken by discarding DFS back edges. It is a
// convenience wrapper over the skeleton/builder path — callers building
// many directions over one mesh should extract the Skeleton once and
// reuse pooled Builders (or a Family), which amortizes the face walk
// and all scratch allocation. Output is bitwise-identical either way
// (and to the frozen pre-skeleton reference in internal/dag/refimpl).
func Build(m *mesh.Mesh, dir geom.Vec3) *DAG {
	skel := NewSkeleton(m)
	b := GetBuilder(skel)
	defer b.Release()
	d := &DAG{}
	b.BuildInto(d, skel, dir)
	return d
}

// FromEdges builds a DAG over n cells from an explicit edge list,
// supporting non-geometric instances (§2 notes the algorithms assume no
// relation between the DAGs in different directions). Cycles are broken the
// same way as in geometric construction, by the same code.
func FromEdges(n int, edgeList [][2]int32) (*DAG, error) {
	b := NewBuilder()
	b.grow(n, len(edgeList))
	for _, e := range edgeList {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			return nil, fmt.Errorf("dag: edge %v out of range [0,%d)", e, n)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("dag: self-loop at %d", e[0])
		}
		b.eu, b.ev = append(b.eu, e[0]), append(b.ev, e[1])
	}
	d := &DAG{}
	b.finish(d, n)
	return d, nil
}

// TopoOrder returns the cells in a topological order (by level, then id).
// The slice is shared by every caller and must not be modified.
func (d *DAG) TopoOrder() []int32 { return d.memo.order.get(d.levelOrder) }

func (d *DAG) levelOrder() []int32 {
	order := make([]int32, d.N)
	// Counting sort by level.
	counts := make([]int32, d.NumLevels+2)
	for _, l := range d.Level {
		counts[l+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for v := int32(0); v < int32(d.N); v++ {
		l := d.Level[v]
		order[counts[l]] = v
		counts[l]++
	}
	return order
}

// BLevels returns, for every cell, the number of nodes on the longest path
// from it to a sink (so sinks have b-level 1). This is the bottom-up level
// numbering used by Pautz's DFDS priorities. The slice is shared by every
// caller and must not be modified.
func (d *DAG) BLevels() []int32 { return d.memo.blevels.get(d.bottomLevels) }

func (d *DAG) bottomLevels() []int32 {
	b := make([]int32, d.N)
	order := d.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := int32(0)
		for _, w := range d.Out(v) {
			if b[w] > best {
				best = b[w]
			}
		}
		b[v] = best + 1
	}
	return b
}

// reachScratch is the transient state of one exact descendant count: the
// inverse of the level order and the reachability bitsets. It is pooled
// because a family's directions are counted in parallel, one matrix each.
type reachScratch struct {
	pos   []int32
	reach []uint64
}

var reachPool = sync.Pool{New: func() any { return new(reachScratch) }}

// DescendantsExact returns, for every cell, the exact number of distinct
// descendants (reachability-set size, excluding the cell itself), computed
// with packed bitsets in reverse topological order. The bitsets are indexed
// by level-order position: a descendant always sits later in the order, so
// the row of the cell at position i starts at word i/64 and the matrix is
// a triangle of about N²/128 words. Intended for small/medium meshes and
// for validating the proxy. The slice is shared by every caller and must
// not be modified.
func (d *DAG) DescendantsExact() []int32 { return d.memo.exact.get(d.countDescendants) }

func (d *DAG) countDescendants() []int32 {
	n := d.N
	order := d.TopoOrder()
	words := (n + 63) / 64
	// rowStart(i) = Σ_{j<i} (words − j/64): 64 rows of each length.
	rowStart := func(i int) int {
		q, r := i>>6, i&63
		return 64*(q*words-q*(q-1)/2) + r*(words-q)
	}
	sc := reachPool.Get().(*reachScratch)
	defer reachPool.Put(sc)
	sc.pos = growInt32(sc.pos, n)
	if total := rowStart(n); cap(sc.reach) < total {
		sc.reach = make([]uint64, total)
	} else {
		sc.reach = sc.reach[:total]
		clear(sc.reach)
	}
	pos, reach := sc.pos, sc.reach
	for i, v := range order {
		pos[v] = int32(i)
	}
	counts := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		q := i >> 6
		row := reach[rowStart(i):][:words-q]
		for _, w := range d.Out(v) {
			j := int(pos[w])
			tail := row[j>>6-q:]
			tail[0] |= 1 << (j & 63)
			for k, x := range reach[rowStart(j):][:len(tail)] {
				tail[k] |= x
			}
		}
		c := 0
		for _, x := range row {
			c += bits.OnesCount64(x)
		}
		counts[v] = int32(c)
	}
	return counts
}

// DescendantsApprox returns the standard reverse-topological estimate
// desc(v) = Σ_{w ∈ out(v)} (1 + desc(w)), which counts descendants with
// path multiplicity. It overestimates on shared substructure but preserves
// the ordering used by descendant-priority scheduling on mesh DAGs, and
// runs in O(N + E). Values are saturated at MaxApproxDescendants. The
// slice is shared by every caller and must not be modified.
func (d *DAG) DescendantsApprox() []int64 { return d.memo.approx.get(d.countPaths) }

func (d *DAG) countPaths() []int64 {
	counts := make([]int64, d.N)
	order := d.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var sum int64
		for _, w := range d.Out(v) {
			sum += 1 + counts[w]
			if sum > MaxApproxDescendants {
				sum = MaxApproxDescendants
				break
			}
		}
		counts[v] = sum
	}
	return counts
}

// MaxApproxDescendants caps the path-multiplicity descendant estimate to
// avoid overflow on deep DAGs.
const MaxApproxDescendants = int64(1) << 50

// Validate checks DAG structural invariants: level monotonicity on edges,
// in/out consistency, and acyclicity (implied by the level function).
func (d *DAG) Validate() error {
	if len(d.Level) != d.N {
		return fmt.Errorf("dag: level table size %d != N %d", len(d.Level), d.N)
	}
	for v := int32(0); v < int32(d.N); v++ {
		if d.Level[v] < 1 || int(d.Level[v]) > d.NumLevels {
			return fmt.Errorf("dag: cell %d level %d out of [1,%d]", v, d.Level[v], d.NumLevels)
		}
		for _, w := range d.Out(v) {
			if w < 0 || int(w) >= d.N {
				return fmt.Errorf("dag: edge %d->%d out of range", v, w)
			}
			if d.Level[w] <= d.Level[v] {
				return fmt.Errorf("dag: edge %d->%d does not increase level (%d -> %d)", v, w, d.Level[v], d.Level[w])
			}
		}
	}
	// In-adjacency must mirror out-adjacency.
	if len(d.in) != len(d.out) {
		return fmt.Errorf("dag: in/out edge counts differ: %d vs %d", len(d.in), len(d.out))
	}
	var inPairs, outPairs int64
	for v := int32(0); v < int32(d.N); v++ {
		for _, w := range d.Out(v) {
			outPairs += int64(v)*1000003 + int64(w)
		}
		for _, u := range d.In(v) {
			inPairs += int64(u)*1000003 + int64(v)
		}
	}
	if inPairs != outPairs {
		return fmt.Errorf("dag: in-adjacency does not mirror out-adjacency")
	}
	return nil
}

// BuildAll induces the DAGs for every direction in parallel on GOMAXPROCS
// workers, preserving direction order in the result.
func BuildAll(m *mesh.Mesh, dirs []geom.Vec3) []*DAG {
	return BuildAllSkeleton(NewSkeleton(m), dirs, 0)
}

// BuildAllSkeleton builds the DAG family for every direction over a
// pre-extracted skeleton, allocating fresh destination DAGs.
func BuildAllSkeleton(skel *Skeleton, dirs []geom.Vec3, workers int) []*DAG {
	return BuildAllInto(make([]*DAG, len(dirs)), skel, dirs, workers)
}

// BuildAllInto builds direction i's DAG into dst[i] (nil slots are
// allocated, non-nil DAGs are recycled in place), fanning the
// per-direction work over a bounded pool with index-slot writes so the
// result is identical for every worker count. dst must have
// len(dirs) slots; it is returned for convenience. Recycled DAGs must
// not still be in use: their contents are overwritten.
func BuildAllInto(dst []*DAG, skel *Skeleton, dirs []geom.Vec3, workers int) []*DAG {
	if len(dst) != len(dirs) {
		panic(fmt.Sprintf("dag: %d destination slots for %d directions", len(dst), len(dirs)))
	}
	_ = par.ForEach(len(dirs), workers, func(i int) error {
		b := GetBuilder(skel)
		if dst[i] == nil {
			dst[i] = &DAG{}
		}
		b.BuildInto(dst[i], skel, dirs[i])
		b.Release()
		return nil
	})
	return dst
}

// WidthProfile returns the number of cells at each level (index 0 unused;
// indices 1..NumLevels). The profile drives the random-delay analysis: wide
// levels parallelize, narrow ones serialize.
func (d *DAG) WidthProfile() []int32 {
	prof := make([]int32, d.NumLevels+1)
	for _, l := range d.Level {
		prof[l]++
	}
	return prof
}

// Profile summarizes one direction DAG for analysis and logging.
type Profile struct {
	Cells, Edges   int
	Levels         int
	Sources, Sinks int
	MaxWidth       int
	MeanWidth      float64
	RemovedEdges   int
}

// Analyze computes the DAG profile.
func (d *DAG) Analyze() Profile {
	p := Profile{
		Cells:        d.N,
		Edges:        d.NumEdges(),
		Levels:       d.NumLevels,
		RemovedEdges: d.RemovedEdges,
	}
	for _, w := range d.WidthProfile()[1:] {
		if int(w) > p.MaxWidth {
			p.MaxWidth = int(w)
		}
	}
	if d.NumLevels > 0 {
		p.MeanWidth = float64(d.N) / float64(d.NumLevels)
	}
	for v := int32(0); v < int32(d.N); v++ {
		if d.InDegree(v) == 0 {
			p.Sources++
		}
		if d.OutDegree(v) == 0 {
			p.Sinks++
		}
	}
	return p
}
