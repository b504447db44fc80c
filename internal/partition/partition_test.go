package partition

import (
	"slices"
	"testing"
	"testing/quick"

	"sweepsched/internal/mesh"
	"sweepsched/internal/rng"
)

// grid2d builds an nx×ny 4-neighbor grid graph.
func grid2d(nx, ny int) *Graph {
	var edges [][2]int32
	id := func(i, j int) int32 { return int32(j*nx + i) }
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			if i+1 < nx {
				edges = append(edges, [2]int32{id(i, j), id(i+1, j)})
			}
			if j+1 < ny {
				edges = append(edges, [2]int32{id(i, j), id(i, j+1)})
			}
		}
	}
	return NewGraph(nx*ny, edges)
}

func TestNewGraphMergesParallelEdges(t *testing.T) {
	g := NewGraph(3, [][2]int32{{0, 1}, {1, 0}, {0, 1}, {1, 2}, {2, 2}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	adj, w := g.Neighbors(0)
	if len(adj) != 1 || adj[0] != 1 || w[0] != 3 {
		t.Fatalf("merged edge wrong: adj=%v w=%v", adj, w)
	}
	// Self-loop dropped.
	adj2, _ := g.Neighbors(2)
	if len(adj2) != 1 {
		t.Fatalf("vertex 2 adjacency %v; self loop kept?", adj2)
	}
}

func TestFromMeshMatchesAdjacency(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.1, Seed: 1})
	g := FromMesh(m)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != m.NCells() {
		t.Fatalf("N = %d, want %d", g.N, m.NCells())
	}
	total := 0
	for v := int32(0); v < int32(g.N); v++ {
		adj, _ := g.Neighbors(v)
		total += len(adj)
	}
	if total != 2*m.NInteriorFaces() {
		t.Fatalf("edge entries %d, want %d", total, 2*m.NInteriorFaces())
	}
}

func TestEdgeCutAndWeights(t *testing.T) {
	g := grid2d(4, 1) // path 0-1-2-3
	part := []int32{0, 0, 1, 1}
	if cut := EdgeCut(g, part); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
	loads := PartWeights(g, part, 2)
	if loads[0] != 2 || loads[1] != 2 {
		t.Fatalf("loads = %v", loads)
	}
}

func TestKWayErrors(t *testing.T) {
	g := grid2d(3, 3)
	if _, err := KWay(g, 0, Options{}); err == nil {
		t.Fatal("k=0 did not error")
	}
	if _, err := KWay(g, -2, Options{}); err == nil {
		t.Fatal("k<0 did not error")
	}
}

func TestKWayTrivialCases(t *testing.T) {
	g := grid2d(4, 4)
	part, err := KWay(g, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatalf("k=1 produced part %d", p)
		}
	}
	part, err = KWay(g, 100, Options{}) // k > N
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]int{}
	for _, p := range part {
		if p < 0 || p >= 100 {
			t.Fatalf("part %d out of range", p)
		}
		seen[p]++
	}
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("k>N: part %d holds %d vertices", p, c)
		}
	}
}

func checkBalance(t *testing.T, g *Graph, part []int32, k int, imbalance float64) {
	t.Helper()
	loads := PartWeights(g, part, k)
	lim := int64(float64(g.TotalVWeight())*imbalance/float64(k)) + 1
	for p, l := range loads {
		if l > lim {
			t.Fatalf("part %d load %d exceeds limit %d (loads %v)", p, l, lim, loads)
		}
	}
}

func TestKWayBalanced(t *testing.T) {
	g := grid2d(20, 20)
	for _, k := range []int{2, 4, 7, 16} {
		part, err := KWay(g, k, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range part {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: label %d out of range", k, p)
			}
		}
		checkBalance(t, g, part, k, 1.08)
	}
}

func TestKWayBeatsRandomCut(t *testing.T) {
	g := grid2d(30, 30)
	const k = 9
	part, err := KWay(g, k, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mlCut := EdgeCut(g, part)

	r := rng.New(7)
	randPart := make([]int32, g.N)
	for v := range randPart {
		randPart[v] = int32(r.Intn(k))
	}
	randCut := EdgeCut(g, randPart)
	if mlCut*3 > randCut {
		t.Fatalf("multilevel cut %d not clearly better than random cut %d", mlCut, randCut)
	}
	// A 30x30 grid split into 9 parts has an ideal cut around 6*30 = 180;
	// allow generous slack but catch catastrophic regressions.
	if mlCut > 500 {
		t.Fatalf("multilevel cut %d too large for 30x30 grid, k=9", mlCut)
	}
}

func TestKWayOnMeshGraph(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 6, NY: 6, NZ: 6, Jitter: 0.15, Seed: 2})
	g := FromMesh(m)
	for _, k := range []int{4, 16} {
		part, err := KWay(g, k, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		checkBalance(t, g, part, k, 1.08)
		cut := EdgeCut(g, part)
		if cut <= 0 {
			t.Fatalf("k=%d: zero cut on connected graph", k)
		}
	}
}

func TestGraphConstructionDeterministic(t *testing.T) {
	// Graph construction must not depend on map iteration order: building
	// the same graph twice (from shuffled edge lists) must give identical
	// CSR arrays, and downstream partitions must match exactly. A
	// borderline acceptance check once flapped because of this.
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 4, NY: 4, NZ: 3, Jitter: 0.15, Seed: 9})
	g1 := FromMesh(m)
	g2 := FromMesh(m)
	for v := int32(0); v < int32(g1.N); v++ {
		a1, w1 := g1.Neighbors(v)
		a2, w2 := g2.Neighbors(v)
		if len(a1) != len(a2) {
			t.Fatalf("vertex %d adjacency length differs", v)
		}
		for j := range a1 {
			if a1[j] != a2[j] || w1[j] != w2[j] {
				t.Fatalf("vertex %d adjacency order differs at %d", v, j)
			}
			if j > 0 && a1[j] <= a1[j-1] {
				t.Fatalf("vertex %d adjacency not sorted: %v", v, a1)
			}
		}
	}
	p1, err := KWay(g1, 8, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := KWay(g2, 8, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range p1 {
		if p1[v] != p2[v] {
			t.Fatalf("partition differs at vertex %d despite identical inputs", v)
		}
	}
}

func TestKWayDeterministic(t *testing.T) {
	g := grid2d(15, 15)
	a, _ := KWay(g, 8, Options{Seed: 42})
	b, _ := KWay(g, 8, Options{Seed: 42})
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nondeterministic partition at vertex %d", v)
		}
	}
}

func TestKWayDisconnectedGraph(t *testing.T) {
	// Two disjoint paths.
	edges := [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}}
	g := NewGraph(6, edges)
	part, err := KWay(g, 2, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkBalance(t, g, part, 2, 1.35)
}

func TestBlocks(t *testing.T) {
	g := grid2d(10, 10)
	part, nBlocks, err := Blocks(g, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nBlocks != 4 {
		t.Fatalf("nBlocks = %d, want 4", nBlocks)
	}
	checkBalance(t, g, part, nBlocks, 1.08)

	// Another seed is another random partition of the same size.
	part2, _, err := Blocks(g, 25, 999)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(part, part2) {
		t.Fatal("seeds 1 and 999 produced identical partitions; the seed is being ignored")
	}

	// Block size 1: identity.
	part1, n1, err := Blocks(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != g.N {
		t.Fatalf("blockSize 1: nBlocks = %d", n1)
	}
	for v, p := range part1 {
		if int(p) != v {
			t.Fatalf("blockSize 1 not identity at %d", v)
		}
	}

	if _, _, err := Blocks(g, 0, 1); err == nil {
		t.Fatal("blockSize 0 did not error")
	}
}

func TestBlocksLargerThanGraph(t *testing.T) {
	g := grid2d(3, 3)
	part, nBlocks, err := Blocks(g, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nBlocks != 1 {
		t.Fatalf("nBlocks = %d, want 1", nBlocks)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatalf("single block produced label %d", p)
		}
	}
}

func TestMatchingHalvesGraph(t *testing.T) {
	g := grid2d(16, 16)
	cg, cmap := matching(g, rng.New(1))
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.N >= g.N || cg.N < g.N/2 {
		t.Fatalf("coarse N = %d from %d", cg.N, g.N)
	}
	// Vertex weight conserved.
	if cg.TotalVWeight() != g.TotalVWeight() {
		t.Fatalf("vertex weight changed: %d -> %d", g.TotalVWeight(), cg.TotalVWeight())
	}
	for v, c := range cmap {
		if c < 0 || int(c) >= cg.N {
			t.Fatalf("cmap[%d] = %d out of range", v, c)
		}
	}
}

func TestQuickKWayInvariants(t *testing.T) {
	f := func(seed uint64, kRaw, nxRaw uint8) bool {
		nx := int(nxRaw%8) + 3
		k := int(kRaw%6) + 1
		g := grid2d(nx, nx)
		part, err := KWay(g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		loads := PartWeights(g, part, k)
		lim := int64(float64(g.TotalVWeight())*1.08/float64(k)) + 1
		for _, p := range part {
			if p < 0 || int(p) >= k {
				return false
			}
		}
		for _, l := range loads {
			if l > lim {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKWayMeshK32(b *testing.B) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 8, NY: 8, NZ: 8, Jitter: 0.15, Seed: 1})
	g := FromMesh(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KWay(g, 32, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
