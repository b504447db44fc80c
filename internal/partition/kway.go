package partition

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"sweepsched/internal/rng"
)

// Options tunes the multilevel partitioner. The zero value is usable via
// defaults applied in KWay.
type Options struct {
	// Imbalance is the allowed load factor: every part's vertex weight stays
	// below ceil(Imbalance × total/k). Default 1.08.
	Imbalance float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// vertices (default max(30·k, 200)).
	CoarsenTo int
	// RefinePasses bounds the boundary-refinement sweeps per level
	// (default 6).
	RefinePasses int
	Seed         uint64
}

func (o Options) withDefaults(k int) Options {
	if o.Imbalance <= 1 {
		o.Imbalance = 1.08
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 30 * k
		if o.CoarsenTo < 200 {
			o.CoarsenTo = 200
		}
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 6
	}
	return o
}

// KWay partitions g into k parts, returning part labels in [0, k). The
// partitioner aims at small edge cut subject to the balance constraint in
// opts. k must be positive; k ≥ N degenerates to one vertex per part.
func KWay(g *Graph, k int, opts Options) ([]int32, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: k must be positive, got %d", k)
	}
	part := make([]int32, g.N)
	if k == 1 {
		return part, nil
	}
	if k >= g.N {
		for v := 0; v < g.N; v++ {
			part[v] = int32(v % k)
		}
		return part, nil
	}
	opts = opts.withDefaults(k)
	r := rng.New(opts.Seed)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)

	// Coarsening phase.
	graphs := []*Graph{g}
	var maps [][]int32
	for graphs[len(graphs)-1].N > opts.CoarsenTo {
		cur := graphs[len(graphs)-1]
		cg, cmap := matching(cur, r)
		if cg.N >= cur.N*95/100 {
			break // matching stalled (e.g. star graphs); stop coarsening
		}
		graphs = append(graphs, cg)
		maps = append(maps, cmap)
	}

	// Initial partition on the coarsest graph, written straight into the
	// result when nothing coarsened.
	levelPart := func(lvl int) []int32 {
		if lvl == 0 {
			return part
		}
		return make([]int32, graphs[lvl].N)
	}
	top := len(graphs) - 1
	cpart := levelPart(top)
	s.initialKWay(graphs[top], cpart, k, r)
	s.refine(graphs[top], cpart, k, opts, r)

	// Uncoarsening with refinement.
	for lvl := top - 1; lvl >= 0; lvl-- {
		fpart := levelPart(lvl)
		for v, c := range maps[lvl] {
			fpart[v] = cpart[c]
		}
		s.refine(graphs[lvl], fpart, k, opts, r)
		cpart = fpart
	}
	return part, nil
}

// maxLoad returns the balance ceiling for the given graph and k.
func maxLoad(g *Graph, k int, opts Options) int64 {
	total := g.TotalVWeight()
	lim := int64(float64(total)*opts.Imbalance/float64(k)) + 1
	// Never below the heaviest single vertex (otherwise infeasible).
	for _, w := range g.VWeight {
		if int64(w) > lim {
			lim = int64(w)
		}
	}
	return lim
}

// scratch is one KWay call's working memory; calls draw it from
// scratchPool, so a warm call allocates its result, the Perm orders and
// the coarse levels only.
type scratch struct {
	loads    []int64
	conn     []int32 // refine: v's connectivity to each part
	gain     []int32 // initialKWay: an unassigned vertex's connectivity to the growing part
	frontier []int32

	// refine's active set, stamped with the move clock (moves so far in
	// the call to refine): when each vertex was last evaluated, when it
	// or a neighbour last moved, when each part's load last changed, and
	// whether the last evaluation read loads.
	evaluated, touched, loadChanged []int
	loadSensitive                   []bool

	over    []uint64 // balance repair: the parts above the ceiling, one bit each
	members memberLists
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resliced to length n, or a fresh slice when its
// capacity falls short; the contents are unspecified.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// initialKWay grows k regions greedily on the (coarsest) graph into part:
// each part starts from a random unassigned seed and repeatedly absorbs
// the unassigned neighbor most connected to it until the part reaches its
// target weight. Leftover vertices go to the lightest adjacent or lightest
// overall part.
func (s *scratch) initialKWay(g *Graph, part []int32, k int, r *rng.Source) {
	for i := range part {
		part[i] = -1
	}
	target := g.TotalVWeight() / int64(k)
	if target < 1 {
		target = 1
	}
	s.loads, s.gain = grow(s.loads, k), grow(s.gain, g.N)
	loads, gain := s.loads, s.gain
	clear(loads)
	clear(gain)

	order := r.Perm(g.N)
	seedCursor := 0
	nextSeed := func() int32 {
		for seedCursor < len(order) {
			v := int32(order[seedCursor])
			seedCursor++
			if part[v] == -1 {
				return v
			}
		}
		return -1
	}
	frontier := s.frontier[:0]
	// push adds v's unassigned neighbours to the frontier and their
	// connectivity to gain.
	push := func(v int32) {
		adj, w := g.Neighbors(v)
		for j, u := range adj {
			if part[u] == -1 {
				if gain[u] == 0 {
					frontier = append(frontier, u)
				}
				gain[u] += w[j]
			}
		}
	}
	for p := int32(0); p < int32(k); p++ {
		seed := nextSeed()
		if seed == -1 {
			break
		}
		// Frontier as a simple slice scanned for max gain: a region grows
		// to about N/k vertices, so O(F) scans are fine.
		part[seed] = p
		loads[p] += int64(g.VWeight[seed])
		frontier = frontier[:0]
		push(seed)
		for loads[p] < target && len(frontier) > 0 {
			bi, bg := -1, int32(-1)
			for i, u := range frontier {
				if part[u] != -1 {
					continue
				}
				if gain[u] > bg {
					bi, bg = i, gain[u]
				}
			}
			if bi == -1 {
				break
			}
			u := frontier[bi]
			frontier[bi] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if part[u] != -1 {
				continue
			}
			part[u] = p
			loads[p] += int64(g.VWeight[u])
			push(u)
		}
		// Reset residual gains for the next region.
		for _, u := range frontier {
			gain[u] = 0
		}
	}
	s.frontier = frontier

	// Assign any leftovers to the lightest part among neighbors, else the
	// lightest part overall.
	for v := int32(0); v < int32(g.N); v++ {
		if part[v] != -1 {
			continue
		}
		best := int32(-1)
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if part[u] != -1 && (best == -1 || loads[part[u]] < loads[best]) {
				best = part[u]
			}
		}
		if best == -1 {
			best = 0
			for p := int32(1); p < int32(k); p++ {
				if loads[p] < loads[best] {
					best = p
				}
			}
		}
		part[v] = best
		loads[best] += int64(g.VWeight[v])
	}
}

// refine performs greedy boundary-move passes (FM-style, positive-gain and
// balance-improving moves only) until a pass makes no move or the pass
// limit is hit, then repairs any part left above the balance ceiling.
//
// A vertex's evaluation reads its own part, its neighbours' parts and,
// only when some candidate's gain is ≥ 0, the loads of its home and
// candidate parts. A pass therefore skips every vertex none of whose
// inputs changed since its last evaluation: that evaluation kept it put,
// and this one would too. The moves, the pass count and the draws from r
// are those of evaluating every vertex in every pass.
func (s *scratch) refine(g *Graph, part []int32, k int, opts Options, r *rng.Source) {
	lim := maxLoad(g, k, opts)
	s.loads, s.conn, s.loadChanged = grow(s.loads, k), grow(s.conn, k), grow(s.loadChanged, k)
	s.evaluated, s.touched, s.loadSensitive = grow(s.evaluated, g.N), grow(s.touched, g.N), grow(s.loadSensitive, g.N)
	loads, conn, loadChanged := s.loads, s.conn, s.loadChanged
	evaluated, touched, loadSensitive := s.evaluated, s.touched, s.loadSensitive
	clear(loads)
	clear(conn)
	clear(loadChanged)
	clear(touched)
	for v := range evaluated {
		evaluated[v] = -1
		loads[part[v]] += int64(g.VWeight[v])
	}

	clock := 0
	order := r.Perm(g.N)
	for pass := 0; pass < opts.RefinePasses; pass++ {
		moves := 0
		for _, vi := range order {
			v := int32(vi)
			home := part[v]
			adj, w := g.Neighbors(v)
			if seen := evaluated[v]; touched[v] <= seen {
				if !loadSensitive[v] || loadChanged[home] <= seen && !anyPartChanged(part, adj, loadChanged, seen) {
					continue
				}
			}
			evaluated[v], loadSensitive[v] = clock, false
			boundary := false
			for _, u := range adj {
				if part[u] != home {
					boundary = true
					break
				}
			}
			if !boundary {
				continue
			}
			for j, u := range adj {
				conn[part[u]] += w[j]
			}
			bestPart := home
			bestGain := int32(0)
			vw := int64(g.VWeight[v])
			for j := range adj {
				p := part[adj[j]]
				if p == home {
					continue
				}
				gain := conn[p] - conn[home]
				if gain >= 0 {
					loadSensitive[v] = true
				}
				if gain <= bestGain {
					// Equal-gain moves allowed only when they improve balance.
					if gain < bestGain || !(gain == 0 && loads[p]+vw < loads[home]) {
						continue
					}
				}
				if loads[p]+vw > lim {
					continue
				}
				bestPart, bestGain = p, gain
			}
			for j := range adj {
				conn[part[adj[j]]] = 0
			}
			if bestPart != home {
				part[v] = bestPart
				loads[home] -= vw
				loads[bestPart] += vw
				moves++
				clock++
				touched[v], loadChanged[home], loadChanged[bestPart] = clock, clock, clock
				for _, u := range adj {
					touched[u] = clock
				}
			}
		}
		if moves == 0 {
			break
		}
	}
	s.repair(g, part, k, lim)
}

// anyPartChanged reports whether the load of any neighbour's part changed
// after the move clock read seen.
func anyPartChanged(part, adj []int32, loadChanged []int, seen int) bool {
	for _, u := range adj {
		if loadChanged[part[u]] > seen {
			return true
		}
	}
	return false
}

// repair is refine's balance repair: if the projection violated the
// ceiling and gain moves could not fix it, it pushes vertices out of the
// lowest-numbered overloaded part regardless of cut gain, the part's
// lowest-numbered vertex with a neighbour in a part that has room first,
// else its lowest-numbered vertex to the globally lightest part. It stops
// after g.N moves.
func (s *scratch) repair(g *Graph, part []int32, k int, lim int64) {
	loads := s.loads
	s.over = grow(s.over, (k+63)/64)
	over := s.over
	clear(over)
	for p, l := range loads[:k] {
		if l > lim {
			over[p/64] |= 1 << (p % 64)
		}
	}
	if firstSet(over) == -1 {
		return
	}
	ml := &s.members
	ml.build(part, k)
	move := func(v, from, to int32) {
		vw := int64(g.VWeight[v])
		part[v] = to
		loads[from] -= vw
		loads[to] += vw
		ml.insert(to, v)
		for _, p := range [2]int32{from, to} {
			if bit := uint64(1) << (p % 64); loads[p] > lim {
				over[p/64] |= bit
			} else {
				over[p/64] &^= bit
			}
		}
	}
	for iter := 0; iter < g.N; iter++ {
		o := firstSet(over)
		if o == -1 {
			break
		}
		moved := false
		members := ml.compact(o, part)
		for _, v := range members {
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if p := part[u]; p != o && loads[p]+int64(g.VWeight[v]) <= lim {
					move(v, o, p)
					moved = true
					break
				}
			}
			if moved {
				break
			}
		}
		if !moved && len(members) > 0 {
			// Move any vertex to the globally lightest part.
			lightest := int32(0)
			for p := int32(1); p < int32(k); p++ {
				if loads[p] < loads[lightest] {
					lightest = p
				}
			}
			move(members[0], o, lightest)
		}
	}
}

// firstSet returns the lowest set bit of a bitset, or -1.
func firstSet(bitset []uint64) int32 {
	for i, w := range bitset {
		if w != 0 {
			return int32(i*64 + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// memberLists holds every part's vertices in ascending order, part p's in
// slab[at[p] : at[p]+n[p]] with room for room[p]. A vertex that leaves a
// part stays in its list until the next compact; a list that outgrows its
// room moves to the slab's end with twice the room.
type memberLists struct {
	slab        []int32
	at, n, room []int32
}

func (ml *memberLists) build(part []int32, k int) {
	ml.at, ml.n, ml.room = grow(ml.at, k), grow(ml.n, k), grow(ml.room, k)
	clear(ml.n)
	for _, p := range part {
		ml.n[p]++
	}
	at := int32(0)
	for p := range ml.n {
		ml.at[p], ml.room[p] = at, ml.n[p]
		at += ml.n[p]
		ml.n[p] = 0
	}
	ml.slab = grow(ml.slab, len(part))
	for v, p := range part {
		ml.slab[ml.at[p]+ml.n[p]] = int32(v)
		ml.n[p]++
	}
}

func (ml *memberLists) list(p int32) []int32 {
	return ml.slab[ml.at[p] : ml.at[p]+ml.n[p]]
}

// compact drops the vertices that have left part p from its list and
// returns the list.
func (ml *memberLists) compact(p int32, part []int32) []int32 {
	kept := slices.DeleteFunc(ml.list(p), func(v int32) bool { return part[v] != p })
	ml.n[p] = int32(len(kept))
	return kept
}

// insert puts v into part p's list in order; a v still listed there from
// before it left is kept as it is.
func (ml *memberLists) insert(p, v int32) {
	i, found := slices.BinarySearch(ml.list(p), v)
	if found {
		return
	}
	if ml.n[p] == ml.room[p] {
		room := 2*ml.room[p] + 4
		at := int32(len(ml.slab))
		ml.slab = append(slices.Grow(ml.slab, int(room)), ml.list(p)...)
		ml.slab = ml.slab[:int(at+room)]
		ml.at[p], ml.room[p] = at, room
	}
	ml.n[p]++
	l := ml.list(p)
	copy(l[i+1:], l[i:])
	l[i] = v
}

// Blocks partitions the graph into ceil(N/blockSize) balanced parts: the
// block decomposition used in §5.1 ("Partitioning into Blocks"). A block
// size of 1 returns the identity partition (every cell its own block).
func Blocks(g *Graph, blockSize int, seed uint64) ([]int32, int, error) {
	if blockSize <= 0 {
		return nil, 0, fmt.Errorf("partition: block size must be positive, got %d", blockSize)
	}
	if blockSize == 1 {
		part := make([]int32, g.N)
		for v := range part {
			part[v] = int32(v)
		}
		return part, g.N, nil
	}
	nBlocks := (g.N + blockSize - 1) / blockSize
	if nBlocks < 1 {
		nBlocks = 1
	}
	part, err := KWay(g, nBlocks, Options{Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	return part, nBlocks, nil
}
