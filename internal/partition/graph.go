// Package partition implements a multilevel k-way graph partitioner in the
// style of METIS (Karypis-Kumar): heavy-edge-matching coarsening, greedy
// region-growing initial partitioning on the coarsest graph, and greedy
// boundary (Fiduccia-Mattheyses style) refinement during uncoarsening.
//
// The paper partitions mesh cells into blocks with METIS and then assigns a
// random processor to each block, trading a slightly larger makespan for a
// much smaller number of interprocessor edges (C1). This package is the
// from-scratch substitute: same contract (balanced parts, small edge cut),
// same position in the pipeline.
package partition

import (
	"fmt"
	"sort"

	"sweepsched/internal/mesh"
	"sweepsched/internal/rng"
)

// Graph is an undirected weighted graph in CSR form. Every edge appears in
// both endpoint lists with the same weight.
type Graph struct {
	N       int
	Start   []int32
	Adj     []int32
	EWeight []int32
	VWeight []int32
}

// NewGraph builds a graph from an edge list with unit vertex and edge
// weights. Parallel edges are merged with summed weight; self-loops are
// dropped. Construction is fully deterministic (adjacency lists come out
// sorted), which keeps every downstream partition reproducible for a seed.
func NewGraph(n int, edges [][2]int32) *Graph {
	merged := mergeEdges(edges)
	g := &Graph{N: n, Start: make([]int32, n+1)}
	for _, e := range merged {
		g.Start[e.u+1]++
		g.Start[e.v+1]++
	}
	for i := 0; i < n; i++ {
		g.Start[i+1] += g.Start[i]
	}
	total := g.Start[n]
	g.Adj = make([]int32, total)
	g.EWeight = make([]int32, total)
	cursor := make([]int32, n)
	for _, e := range merged {
		j := g.Start[e.u] + cursor[e.u]
		g.Adj[j], g.EWeight[j] = e.v, e.w
		cursor[e.u]++
		j = g.Start[e.v] + cursor[e.v]
		g.Adj[j], g.EWeight[j] = e.u, e.w
		cursor[e.v]++
	}
	g.VWeight = make([]int32, n)
	for i := range g.VWeight {
		g.VWeight[i] = 1
	}
	return g
}

// wedge is a canonicalized weighted edge (u < v).
type wedge struct {
	u, v int32
	w    int32
}

// mergeEdges canonicalizes, sorts and merges an edge list, dropping
// self-loops. The sorted result makes graph construction deterministic.
func mergeEdges(edges [][2]int32) []wedge {
	out := make([]wedge, 0, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		out = append(out, wedge{u, v, 1})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].u != out[b].u {
			return out[a].u < out[b].u
		}
		return out[a].v < out[b].v
	})
	merged := out[:0]
	for _, e := range out {
		if len(merged) > 0 && merged[len(merged)-1].u == e.u && merged[len(merged)-1].v == e.v {
			merged[len(merged)-1].w += e.w
		} else {
			merged = append(merged, e)
		}
	}
	return merged
}

// FromMesh builds the cell-adjacency graph of a mesh with unit weights.
func FromMesh(m *mesh.Mesh) *Graph {
	edges := make([][2]int32, 0, m.NInteriorFaces())
	for i := range m.Faces {
		f := &m.Faces[i]
		if f.C1 == mesh.NoCell {
			continue
		}
		edges = append(edges, [2]int32{f.C0, f.C1})
	}
	return NewGraph(m.NCells(), edges)
}

// Neighbors returns v's adjacency and edge weights (aliasing internal
// storage).
func (g *Graph) Neighbors(v int32) (adj []int32, w []int32) {
	lo, hi := g.Start[v], g.Start[v+1]
	return g.Adj[lo:hi], g.EWeight[lo:hi]
}

// TotalVWeight returns the sum of vertex weights.
func (g *Graph) TotalVWeight() int64 {
	var t int64
	for _, w := range g.VWeight {
		t += int64(w)
	}
	return t
}

// EdgeCut returns the total weight of edges whose endpoints lie in
// different parts.
func EdgeCut(g *Graph, part []int32) int64 {
	var cut int64
	for v := int32(0); v < int32(g.N); v++ {
		adj, w := g.Neighbors(v)
		for j, u := range adj {
			if u > v && part[u] != part[v] {
				cut += int64(w[j])
			}
		}
	}
	return cut
}

// Validate checks the CSR structure, symmetry and positive weights.
func (g *Graph) Validate() error {
	if len(g.Start) != g.N+1 {
		return fmt.Errorf("partition: Start length %d != N+1", len(g.Start))
	}
	if len(g.Adj) != len(g.EWeight) {
		return fmt.Errorf("partition: Adj/EWeight length mismatch")
	}
	for v := int32(0); v < int32(g.N); v++ {
		if g.VWeight[v] <= 0 {
			return fmt.Errorf("partition: vertex %d weight %d", v, g.VWeight[v])
		}
		adj, w := g.Neighbors(v)
		for j, u := range adj {
			if u < 0 || int(u) >= g.N || u == v {
				return fmt.Errorf("partition: bad edge %d->%d", v, u)
			}
			if w[j] <= 0 {
				return fmt.Errorf("partition: edge %d-%d weight %d", v, u, w[j])
			}
			// Find mirror.
			back, bw := g.Neighbors(u)
			found := false
			for i, x := range back {
				if x == v && bw[i] == w[j] {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("partition: edge %d-%d not mirrored", v, u)
			}
		}
	}
	return nil
}

// matching contracts g by a randomized heavy-edge matching. It returns the
// coarser graph and the vertex map coarse[v] for every fine vertex.
func matching(g *Graph, r *rng.Source) (*Graph, []int32) {
	match := make([]int32, g.N)
	for i := range match {
		match[i] = -1
	}
	order := r.Perm(g.N)
	for _, vi := range order {
		v := int32(vi)
		if match[v] != -1 {
			continue
		}
		adj, w := g.Neighbors(v)
		best := int32(-1)
		bestW := int32(-1)
		for j, u := range adj {
			if match[u] == -1 && w[j] > bestW {
				best, bestW = u, w[j]
			}
		}
		if best == -1 {
			match[v] = v
		} else {
			match[v] = best
			match[best] = v
		}
	}
	// Assign coarse ids.
	coarse := make([]int32, g.N)
	for i := range coarse {
		coarse[i] = -1
	}
	nc := int32(0)
	for v := int32(0); v < int32(g.N); v++ {
		if coarse[v] != -1 {
			continue
		}
		coarse[v] = nc
		if match[v] != v {
			coarse[match[v]] = nc
		}
		nc++
	}
	// Build the coarse graph deterministically: collect weighted coarse
	// edges, sort, merge.
	vw := make([]int32, nc)
	var raw []wedge
	for v := int32(0); v < int32(g.N); v++ {
		vw[coarse[v]] += g.VWeight[v]
		adj, w := g.Neighbors(v)
		for j, u := range adj {
			if u <= v { // count each fine edge once
				continue
			}
			cu, cv := coarse[v], coarse[u]
			if cu == cv {
				continue
			}
			if cu > cv {
				cu, cv = cv, cu
			}
			raw = append(raw, wedge{cu, cv, w[j]})
		}
	}
	sort.Slice(raw, func(a, b int) bool {
		if raw[a].u != raw[b].u {
			return raw[a].u < raw[b].u
		}
		return raw[a].v < raw[b].v
	})
	merged := raw[:0]
	for _, e := range raw {
		if len(merged) > 0 && merged[len(merged)-1].u == e.u && merged[len(merged)-1].v == e.v {
			merged[len(merged)-1].w += e.w
		} else {
			merged = append(merged, e)
		}
	}
	cg := &Graph{N: int(nc), Start: make([]int32, nc+1), VWeight: vw}
	for _, e := range merged {
		cg.Start[e.u+1]++
		cg.Start[e.v+1]++
	}
	for i := int32(0); i < nc; i++ {
		cg.Start[i+1] += cg.Start[i]
	}
	cg.Adj = make([]int32, cg.Start[nc])
	cg.EWeight = make([]int32, cg.Start[nc])
	cursor := make([]int32, nc)
	for _, e := range merged {
		j := cg.Start[e.u] + cursor[e.u]
		cg.Adj[j], cg.EWeight[j] = e.v, e.w
		cursor[e.u]++
		j = cg.Start[e.v] + cursor[e.v]
		cg.Adj[j], cg.EWeight[j] = e.u, e.w
		cursor[e.v]++
	}
	return cg, coarse
}
