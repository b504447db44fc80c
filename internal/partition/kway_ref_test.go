package partition

import (
	"fmt"

	"sweepsched/internal/rng"
)

// refKWay and its helpers are the partitioner as it stood before its
// refinement revisited only the vertices whose inputs moved, before its
// balance repair walked per-part member lists and before its scratch was
// pooled: every pass evaluates every vertex, every repair iteration scans
// all parts and every vertex from 0. Kept verbatim as the oracle that
// TestKWayMatchesReference and FuzzKWayEquivalence hold KWay to label for
// label.

// refKWay partitions g into k parts, returning part labels in [0, k). The
// partitioner aims at small edge cut subject to the balance constraint in
// opts. k must be positive; k ≥ N degenerates to one vertex per part.
func refKWay(g *Graph, k int, opts Options) ([]int32, error) {
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

	// Initial partition on the coarsest graph.
	coarsest := graphs[len(graphs)-1]
	cpart := refInitialKWay(coarsest, k, opts, r)
	refRefine(coarsest, cpart, k, opts, r)

	// Uncoarsening with refinement.
	for lvl := len(graphs) - 2; lvl >= 0; lvl-- {
		fine := graphs[lvl]
		fpart := make([]int32, fine.N)
		cmap := maps[lvl]
		for v := 0; v < fine.N; v++ {
			fpart[v] = cpart[cmap[v]]
		}
		refRefine(fine, fpart, k, opts, r)
		cpart = fpart
	}
	copy(part, cpart)
	return part, nil
}

// refMaxLoad returns the balance ceiling for the given graph and k.
func refMaxLoad(g *Graph, k int, opts Options) int64 {
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

// refInitialKWay grows k regions greedily on the (coarsest) graph: each part
// starts from a random unassigned seed and repeatedly absorbs the
// unassigned neighbor most connected to it until the part reaches its
// target weight. Leftover vertices go to the lightest adjacent or lightest
// overall part.
func refInitialKWay(g *Graph, k int, opts Options, r *rng.Source) []int32 {
	part := make([]int32, g.N)
	for i := range part {
		part[i] = -1
	}
	target := g.TotalVWeight() / int64(k)
	if target < 1 {
		target = 1
	}
	loads := make([]int64, k)
	gain := make([]int32, g.N) // connectivity of unassigned vertex to current part

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

	for p := int32(0); p < int32(k); p++ {
		seed := nextSeed()
		if seed == -1 {
			break
		}
		// Frontier as a simple slice scanned for max gain; coarsest graphs
		// are small (≤ CoarsenTo), so O(F) scans are fine.
		part[seed] = p
		loads[p] += int64(g.VWeight[seed])
		var frontier []int32
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
	return part
}

// refRefine performs greedy boundary-move passes (FM-style, positive-gain and
// balance-improving moves only) until a pass makes no move or the pass
// limit is hit.
func refRefine(g *Graph, part []int32, k int, opts Options, r *rng.Source) {
	lim := refMaxLoad(g, k, opts)
	loads := PartWeights(g, part, k)
	conn := make([]int32, k) // scratch: connectivity of v to each part

	order := r.Perm(g.N)
	for pass := 0; pass < opts.RefinePasses; pass++ {
		moves := 0
		for _, vi := range order {
			v := int32(vi)
			home := part[v]
			adj, w := g.Neighbors(v)
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
			}
		}
		if moves == 0 {
			break
		}
	}

	// Balance repair: if the initial projection violated the ceiling and
	// gain moves could not fix it, push boundary vertices out of overloaded
	// parts regardless of cut gain.
	for iter := 0; iter < g.N; iter++ {
		over := int32(-1)
		for p := int32(0); p < int32(k); p++ {
			if loads[p] > lim {
				over = p
				break
			}
		}
		if over == -1 {
			break
		}
		moved := false
		for v := int32(0); v < int32(g.N) && !moved; v++ {
			if part[v] != over {
				continue
			}
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				p := part[u]
				if p != over && loads[p]+int64(g.VWeight[v]) <= lim {
					part[v] = p
					loads[over] -= int64(g.VWeight[v])
					loads[p] += int64(g.VWeight[v])
					moved = true
					break
				}
			}
		}
		if !moved {
			// Move any vertex to the globally lightest part.
			lightest := int32(0)
			for p := int32(1); p < int32(k); p++ {
				if loads[p] < loads[lightest] {
					lightest = p
				}
			}
			for v := int32(0); v < int32(g.N); v++ {
				if part[v] == over {
					part[v] = lightest
					loads[over] -= int64(g.VWeight[v])
					loads[lightest] += int64(g.VWeight[v])
					break
				}
			}
		}
	}
}

// PartWeights returns the vertex-weight load of each of k parts; the
// oracle's refine starts from it, and the tests check balance with it.
func PartWeights(g *Graph, part []int32, k int) []int64 {
	loads := make([]int64, k)
	for v := 0; v < g.N; v++ {
		loads[part[v]] += int64(g.VWeight[v])
	}
	return loads
}
