package partition

import (
	"fmt"
	"math"
	"testing"

	"sweepsched/internal/mesh"
	"sweepsched/internal/rng"
)

// withLogNormalWeights returns a shallow copy of g whose vertex weights
// are lognormal (median 4, sigma 0.75, plus one), the cell-work shape the
// weighted plans partition.
func withLogNormalWeights(g *Graph, seed uint64) *Graph {
	r := rng.New(seed)
	w := make([]int32, g.N)
	for v := range w {
		w[v] = int32(4*math.Exp(0.75*r.NormFloat64())) + 1
	}
	c := *g
	c.VWeight = w
	return &c
}

// equivGraphs are the graphs KWay is held to refKWay on: the four mesh
// families (well_logging at the benchmark ladder's 4,301 cells) and a
// grid.
func equivGraphs(t testing.TB) map[string]*Graph {
	gs := map[string]*Graph{"grid2d": grid2d(40, 40)}
	for name, scale := range map[string]float64{"tetonly": 0.05, "well_logging": 0.1, "long": 0.02, "prismtet": 0.01} {
		m, err := mesh.Family(name, scale, 7)
		if err != nil {
			t.Fatal(err)
		}
		gs[name] = FromMesh(m)
	}
	return gs
}

func TestKWayMatchesReference(t *testing.T) {
	blockSizes := []int{2, 3, 8, 16, 64, 256}
	seeds := 6
	if testing.Short() {
		blockSizes, seeds = []int{3, 8, 64}, 2
	}
	for name, unit := range equivGraphs(t) {
		for _, weighted := range []bool{false, true} {
			g := unit
			if weighted {
				g = withLogNormalWeights(unit, 11)
			}
			for _, bs := range blockSizes {
				k := (g.N + bs - 1) / bs
				for s := 0; s < seeds; s++ {
					opts := Options{Seed: uint64(s)*0x9e3779b97f4a7c15 + uint64(bs)}
					want, err := refKWay(g, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					got, err := KWay(g, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameLabels(t, fmt.Sprintf("%s weighted=%v block %d seed %d", name, weighted, bs, s), got, want)
				}
			}
		}
	}
}

func sameLabels(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: label %d is %d, reference %d", what, i, got[i], want[i])
		}
	}
}

// fuzzGraph builds a graph on n+1 vertices from byte pairs (each pair an
// edge, endpoints mod the vertex count) and vertex weights 1+w, cycling
// through weights; no weights means unit weights.
func fuzzGraph(n uint8, edges, weights []byte) *Graph {
	nv := int(n) + 1
	var es [][2]int32
	for i := 0; i+1 < len(edges); i += 2 {
		es = append(es, [2]int32{int32(int(edges[i]) % nv), int32(int(edges[i+1]) % nv)})
	}
	g := NewGraph(nv, es)
	if len(weights) > 0 {
		for v := range g.VWeight {
			g.VWeight[v] = 1 + int32(weights[v%len(weights)])
		}
	}
	return g
}

// FuzzKWayEquivalence holds KWay to refKWay label for label on arbitrary
// small graphs. The committed seeds are a star (matching stalls),
// disconnected components, one vertex heavier than the balance ceiling,
// k = N−1 and a graph that coarsens.
func FuzzKWayEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n, kb, coarsenTo uint8, edges, weights []byte) {
		g := fuzzGraph(n, edges, weights)
		k := 1 + int(kb)%(g.N+1)
		opts := Options{Seed: seed, CoarsenTo: int(coarsenTo)}
		want, werr := refKWay(g, k, opts)
		got, err := KWay(g, k, opts)
		if (err == nil) != (werr == nil) {
			t.Fatalf("error %v, reference %v", err, werr)
		}
		sameLabels(t, fmt.Sprintf("n=%d k=%d", g.N, k), got, want)
	})
}

// BenchmarkBlocksLadder is Blocks at block size 8 on the benchmark
// ladder's well_logging mesh (4,301 cells, 538 parts: a single-level
// partition), with unit and with lognormal cell weights.
func BenchmarkBlocksLadder(b *testing.B) {
	m, err := mesh.Family("well_logging", 0.1, 7)
	if err != nil {
		b.Fatal(err)
	}
	unit := FromMesh(m)
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"unit", unit}, {"weighted", withLogNormalWeights(unit, 11)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Blocks(c.g, 8, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
