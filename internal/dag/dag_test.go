package dag

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
)

func hex3() *mesh.Mesh { return mesh.RegularHex(3, 3, 3) }

func TestBuildRegularHexDiagonal(t *testing.T) {
	m := hex3()
	dir := geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize()
	d := Build(m, dir)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.N != 27 {
		t.Fatalf("N = %d", d.N)
	}
	// On an axis-aligned hex grid swept along +diag, every interior face
	// contributes an edge: 3 * (2*3*3) = 54.
	if d.NumEdges() != 54 {
		t.Fatalf("edges = %d, want 54", d.NumEdges())
	}
	// Levels of the diagonal sweep on a 3x3x3 grid: i+j+k+1 in 1..7.
	if d.NumLevels != 7 {
		t.Fatalf("levels = %d, want 7", d.NumLevels)
	}
	if d.RemovedEdges != 0 {
		t.Fatalf("removed %d edges on a regular grid", d.RemovedEdges)
	}
	// The corner cell nearest the direction origin is the unique source,
	// the opposite corner the unique sink.
	a := d.Analyze()
	if a.Sources != 1 || d.InDegree(0) != 0 {
		t.Fatalf("%d sources, cell 0 has in-degree %d; want cell 0 alone", a.Sources, d.InDegree(0))
	}
	if a.Sinks != 1 || d.OutDegree(26) != 0 {
		t.Fatalf("%d sinks, cell 26 has out-degree %d; want cell 26 alone", a.Sinks, d.OutDegree(26))
	}
}

func TestBuildOppositeDirectionReverses(t *testing.T) {
	m := hex3()
	dir := geom.Vec3{X: 1, Y: 0.3, Z: 0.2}.Normalize()
	fwd := Build(m, dir)
	bwd := Build(m, dir.Scale(-1))
	if fwd.NumEdges() != bwd.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", fwd.NumEdges(), bwd.NumEdges())
	}
	// Every forward edge must appear reversed.
	has := func(d *DAG, u, v int32) bool {
		for _, w := range d.Out(u) {
			if w == v {
				return true
			}
		}
		return false
	}
	for u := int32(0); u < int32(fwd.N); u++ {
		for _, v := range fwd.Out(u) {
			if !has(bwd, v, u) {
				t.Fatalf("edge %d->%d not reversed in backward DAG", u, v)
			}
		}
	}
}

func TestBuildParallelFaceSkipped(t *testing.T) {
	m := hex3()
	// Direction exactly +x: faces with ±y, ±z normals are parallel, so only
	// x-adjacency edges appear: (3-1)*3*3 = 18.
	d := Build(m, geom.Vec3{X: 1})
	if d.NumEdges() != 18 {
		t.Fatalf("edges = %d, want 18", d.NumEdges())
	}
	if d.NumLevels != 3 {
		t.Fatalf("levels = %d, want 3", d.NumLevels)
	}
}

func TestLevelsMatchPeelDefinition(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.15, Seed: 2})
	d := Build(m, geom.Vec3{X: 0.5, Y: 0.6, Z: 0.7}.Normalize())
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Peel manually and compare.
	indeg := make([]int32, d.N)
	for v := int32(0); v < int32(d.N); v++ {
		indeg[v] = int32(d.InDegree(v))
	}
	removed := make([]bool, d.N)
	level := 0
	remaining := d.N
	for remaining > 0 {
		level++
		var peel []int32
		for v := int32(0); v < int32(d.N); v++ {
			if !removed[v] && indeg[v] == 0 {
				peel = append(peel, v)
			}
		}
		if len(peel) == 0 {
			t.Fatal("peel stuck: cycle in DAG")
		}
		for _, v := range peel {
			if int(d.Level[v]) != level {
				t.Fatalf("cell %d: Level=%d, peel says %d", v, d.Level[v], level)
			}
			removed[v] = true
			remaining--
			for _, w := range d.Out(v) {
				indeg[w]--
			}
		}
	}
	if level != d.NumLevels {
		t.Fatalf("NumLevels=%d, peel found %d", d.NumLevels, level)
	}
}

func TestLevelSetsPartition(t *testing.T) {
	// The level sets are the runs of TopoOrder: level by level, WidthProfile
	// cells each, every cell once.
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 3, NZ: 2, Jitter: 0.1, Seed: 3})
	d := Build(m, geom.Vec3{X: 1, Y: 0.2, Z: 0.4}.Normalize())
	order, prof := d.TopoOrder(), d.WidthProfile()
	seen := make([]bool, d.N)
	i := 0
	for l := 1; l <= d.NumLevels; l++ {
		for end := i + int(prof[l]); i < end; i++ {
			v := order[i]
			if int(d.Level[v]) != l || seen[v] {
				t.Fatalf("position %d: cell %d (level %d, seen %v) in level set %d", i, v, d.Level[v], seen[v], l)
			}
			seen[v] = true
		}
	}
	if i != d.N {
		t.Fatalf("level sets cover %d of %d cells", i, d.N)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 2, NZ: 2, Jitter: 0.2, Seed: 4})
	d := Build(m, geom.Vec3{X: 0.3, Y: 1, Z: 0.1}.Normalize())
	pos := make([]int, d.N)
	for i, v := range d.TopoOrder() {
		pos[v] = i
	}
	for u := int32(0); u < int32(d.N); u++ {
		for _, v := range d.Out(u) {
			if pos[u] >= pos[v] {
				t.Fatalf("topo order violates edge %d->%d", u, v)
			}
		}
	}
}

func TestBLevels(t *testing.T) {
	m := hex3()
	d := Build(m, geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize())
	b := d.BLevels()
	// On the 3x3x3 diagonal sweep, b-level of cell (i,j,k) is 7-(i+j+k).
	cid := func(i, j, k int) int32 { return int32((k*3+j)*3 + i) }
	for k := 0; k < 3; k++ {
		for j := 0; j < 3; j++ {
			for i := 0; i < 3; i++ {
				want := int32(7 - (i + j + k))
				if b[cid(i, j, k)] != want {
					t.Fatalf("b-level(%d,%d,%d) = %d, want %d", i, j, k, b[cid(i, j, k)], want)
				}
			}
		}
	}
	// Fundamental identity: level(v) + blevel(v) - 1 <= NumLevels, equality
	// on critical-path cells.
	onCrit := false
	for v := int32(0); v < int32(d.N); v++ {
		s := d.Level[v] + b[v] - 1
		if int(s) > d.NumLevels {
			t.Fatalf("cell %d: level+blevel-1 = %d > %d", v, s, d.NumLevels)
		}
		if int(s) == d.NumLevels {
			onCrit = true
		}
	}
	if !onCrit {
		t.Fatal("no cell on critical path")
	}
}

func TestDescendantsExactChain(t *testing.T) {
	// 1D chain: 4x1x1 hexes along +x.
	m := mesh.RegularHex(4, 1, 1)
	d := Build(m, geom.Vec3{X: 1})
	desc := d.DescendantsExact()
	for v := 0; v < 4; v++ {
		if int(desc[v]) != 3-v {
			t.Fatalf("chain desc[%d] = %d, want %d", v, desc[v], 3-v)
		}
	}
}

func TestDescendantsApproxUpperBoundsExact(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 2, Jitter: 0.15, Seed: 5})
	d := Build(m, geom.Vec3{X: 0.7, Y: 0.5, Z: 0.5}.Normalize())
	exact := d.DescendantsExact()
	approx := d.DescendantsApprox()
	for v := range exact {
		if approx[v] < int64(exact[v]) {
			t.Fatalf("approx[%d]=%d < exact %d", v, approx[v], exact[v])
		}
		if exact[v] == 0 && approx[v] != 0 {
			t.Fatalf("sink %d has approx %d", v, approx[v])
		}
	}
}

func TestDescendantsExactSinksAndSources(t *testing.T) {
	m := hex3()
	d := Build(m, geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize())
	desc := d.DescendantsExact()
	// The unique source reaches everything.
	if desc[0] != int32(d.N-1) {
		t.Fatalf("source descendants = %d, want %d", desc[0], d.N-1)
	}
	if desc[26] != 0 {
		t.Fatalf("sink descendants = %d, want 0", desc[26])
	}
}

// descendantsExactRef is DescendantsExact as it stood when every row was a
// full N-bit set indexed by cell id: the reference the position-indexed
// triangle is compared with.
func descendantsExactRef(d *DAG) []int32 {
	n := d.N
	words := (n + 63) / 64
	bits := make([]uint64, n*words)
	counts := make([]int32, n)
	order := d.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		row := bits[int(v)*words : (int(v)+1)*words]
		for _, w := range d.Out(v) {
			row[int(w)/64] |= 1 << (uint(w) % 64)
			wrow := bits[int(w)*words : (int(w)+1)*words]
			for k := range row {
				row[k] |= wrow[k]
			}
		}
		c := int32(0)
		for _, word := range row {
			c += int32(popcount(word))
		}
		counts[v] = c
	}
	return counts
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// randomDAG draws n cells and about density·n random edges; FromEdges
// breaks whatever cycles they close.
func randomDAG(t testing.TB, seed uint64) *DAG {
	t.Helper()
	r := rng.New(seed)
	n := 1 + r.Intn(300)
	edges := make([][2]int32, 0, 4*n)
	for e := r.Intn(4*n + 1); e > 0; e-- {
		if a, b := int32(r.Intn(n)), int32(r.Intn(n)); a != b {
			edges = append(edges, [2]int32{a, b})
		}
	}
	d, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDescendantsExactMatchesReference: 200 seeded random DAGs (cell
// counts on both sides of every 64-bit word boundary up to 300) and every
// direction of the four mesh families at scale 0.02.
func TestDescendantsExactMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		d := randomDAG(t, seed)
		if got, want := d.DescendantsExact(), descendantsExactRef(d); !slices.Equal(got, want) {
			t.Fatalf("seed %d (n=%d): counts %v, reference %v", seed, d.N, got, want)
		}
	}
	dirs, err := quadrature.Octant(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range mesh.FamilyNames() {
		m, err := mesh.Family(fam, 0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range BuildAll(m, dirs) {
			if got, want := d.DescendantsExact(), descendantsExactRef(d); !slices.Equal(got, want) {
				t.Fatalf("%s direction %d: exact descendant counts differ from the reference", fam, i)
			}
		}
	}
}

// sameFacts requires every memoized fact of got to equal a freshly built
// DAG's.
func sameFacts(t *testing.T, tag string, got, fresh *DAG) {
	t.Helper()
	if !slices.Equal(got.TopoOrder(), fresh.TopoOrder()) {
		t.Fatalf("%s: stale level order", tag)
	}
	if !slices.Equal(got.BLevels(), fresh.BLevels()) {
		t.Fatalf("%s: stale b-levels", tag)
	}
	if !slices.Equal(got.DescendantsExact(), fresh.DescendantsExact()) {
		t.Fatalf("%s: stale exact descendant counts", tag)
	}
	if !slices.Equal(got.DescendantsApprox(), fresh.DescendantsApprox()) {
		t.Fatalf("%s: stale approximate descendant counts", tag)
	}
}

// TestRecycledDAGForgetsItsFacts: the facts read from a DAG belong to the
// graph it held then. Rebuilding the same *DAG for another direction — one
// DAG through BuildInto, a whole family through BuildAllInto — must leave
// every fact equal to a fresh build's.
func TestRecycledDAGForgetsItsFacts(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 4, NY: 3, NZ: 3, Jitter: 0.15, Seed: 8})
	skel := NewSkeleton(m)
	dirA := geom.Vec3{X: 1, Y: 0.2, Z: 0.1}.Normalize()
	dirB := geom.Vec3{X: -0.3, Y: -1, Z: 0.4}.Normalize()

	b := NewBuilder()
	d := &DAG{}
	b.BuildInto(d, skel, dirA)
	sameFacts(t, "first build", d, Build(m, dirA))
	b.BuildInto(d, skel, dirB)
	sameFacts(t, "rebuilt for another direction", d, Build(m, dirB))

	dirs, err := quadrature.Octant(8)
	if err != nil {
		t.Fatal(err)
	}
	flipped := make([]geom.Vec3, len(dirs))
	for i, v := range dirs {
		flipped[i] = geom.Vec3{X: -v.Y, Y: v.Z, Z: -v.X}
	}
	fam := NewFamily(m)
	for _, g := range fam.BuildAll(dirs, 2) {
		g.TopoOrder()
		g.BLevels()
		g.DescendantsExact()
		g.DescendantsApprox()
	}
	for i, g := range fam.BuildAll(flipped, 2) {
		sameFacts(t, fmt.Sprintf("recycled family direction %d", i), g, Build(m, flipped[i]))
	}
}

func TestCycleBreakingOnForcedCycle(t *testing.T) {
	// Construct a synthetic mesh whose faces force a 3-cycle for direction
	// d: three cells arranged so normals rotate. We fake it with a hand-made
	// mesh: faces (0->1), (1->2), (2->0) under direction +x by choosing
	// normals with positive x pointing "around".
	m := &mesh.Mesh{Name: "cycle"}
	m.Centroids = []geom.Vec3{{X: 0}, {X: 1}, {X: 2}}
	m.Faces = []mesh.Face{
		{C0: 0, C1: 1, Normal: geom.Vec3{X: 1}},
		{C0: 1, C1: 2, Normal: geom.Vec3{X: 1}},
		{C0: 0, C1: 2, Normal: geom.Vec3{X: -1}.Normalize()},
	}
	// Note: face 2 has normal pointing from C1(=2) toward C0(=0) violating
	// the orientation convention deliberately: under direction +x the edge
	// goes 2 -> 0, closing the cycle 0->1->2->0.
	// Build adjacency by re-deriving from faces via a submesh round-trip is
	// unnecessary: Build only reads Faces.
	d := Build(m, geom.Vec3{X: 1})
	if d.RemovedEdges != 1 {
		t.Fatalf("removed %d edges, want 1", d.RemovedEdges)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 2 {
		t.Fatalf("surviving edges = %d, want 2", d.NumEdges())
	}
}

func TestBuildAllMatchesSequential(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.15, Seed: 6})
	dirs, err := quadrature.Octant(12)
	if err != nil {
		t.Fatal(err)
	}
	par := BuildAll(m, dirs)
	for i, dir := range dirs {
		seq := Build(m, dir)
		if par[i].NumEdges() != seq.NumEdges() || par[i].NumLevels != seq.NumLevels {
			t.Fatalf("direction %d: parallel build differs from sequential", i)
		}
		for v := int32(0); v < int32(seq.N); v++ {
			if par[i].Level[v] != seq.Level[v] {
				t.Fatalf("direction %d cell %d: level %d vs %d", i, v, par[i].Level[v], seq.Level[v])
			}
		}
	}
}

func TestMaxLevels(t *testing.T) {
	// D, the §4 lower-bound term, is the deepest DAG of the family: the
	// axis sweep of the 3x3x3 grid has 3 levels, the diagonal one 7.
	m := hex3()
	dags := BuildAll(m, []geom.Vec3{
		{X: 1},
		geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize(),
	})
	if dags[0].NumLevels != 3 || dags[1].NumLevels != 7 {
		t.Fatalf("levels = %d, %d, want 3, 7", dags[0].NumLevels, dags[1].NumLevels)
	}
}

func TestWidthProfileAndAnalyze(t *testing.T) {
	m := hex3()
	d := Build(m, geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize())
	prof := d.WidthProfile()
	// Diagonal sweep of a 3x3x3 grid: widths are the diagonal plane sizes
	// 1,3,6,7,6,3,1.
	want := []int32{0, 1, 3, 6, 7, 6, 3, 1}
	if len(prof) != len(want) {
		t.Fatalf("profile length %d, want %d", len(prof), len(want))
	}
	for i, w := range want {
		if prof[i] != w {
			t.Fatalf("width[%d] = %d, want %d (profile %v)", i, prof[i], w, prof)
		}
	}
	a := d.Analyze()
	if a.Cells != 27 || a.Levels != 7 || a.MaxWidth != 7 || a.Sources != 1 || a.Sinks != 1 {
		t.Fatalf("analyze %+v", a)
	}
	total := int32(0)
	for _, w := range prof {
		total += w
	}
	if int(total) != d.N {
		t.Fatalf("profile sums to %d, want %d", total, d.N)
	}
}

func TestQuickDAGInvariants(t *testing.T) {
	f := func(seed uint64, dx, dy, dz int8) bool {
		dir := geom.Vec3{X: float64(dx), Y: float64(dy), Z: float64(dz)}
		if dir.Norm() < 1e-9 {
			dir = geom.Vec3{X: 1}
		}
		dir = dir.Normalize()
		m := mesh.KuhnBox(mesh.BoxSpec{NX: 2, NY: 2, NZ: 2, Jitter: 0.2, Seed: seed})
		d := Build(m, dir)
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTetMeshDAGEdgesBounded(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 4, NY: 4, NZ: 4, Jitter: 0.18, Seed: 7})
	d := Build(m, geom.Vec3{X: 0.4, Y: 0.5, Z: 0.8}.Normalize())
	// A tet has 4 faces, so out-degree <= 4.
	for v := int32(0); v < int32(d.N); v++ {
		if d.OutDegree(v) > 4 {
			t.Fatalf("cell %d out-degree %d > 4", v, d.OutDegree(v))
		}
		if d.OutDegree(v)+d.InDegree(v) > 4 {
			t.Fatalf("cell %d total degree > 4", v)
		}
	}
}

func BenchmarkBuildSingleDirection(b *testing.B) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 10, NY: 10, NZ: 10, Jitter: 0.15, Seed: 1})
	dir := geom.Vec3{X: 0.3, Y: 0.8, Z: 0.52}.Normalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(m, dir)
	}
}

func BenchmarkBuildAll24(b *testing.B) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 8, NY: 8, NZ: 8, Jitter: 0.15, Seed: 1})
	dirs, _ := quadrature.Octant(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildAll(m, dirs)
	}
}

// BenchmarkBuildAll sweeps worker counts over a k=24-direction instance;
// workers=1 is the serial baseline the parallel rows are compared
// against. The cold rows build fresh DAGs each iteration (skeleton
// included); the warm rows recycle a Family's
// skeleton and DAG storage, the steady state of trial loops that
// rebuild DAG families.
func BenchmarkBuildAll(b *testing.B) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 10, NY: 10, NZ: 10, Jitter: 0.15, Seed: 1})
	dirs, _ := quadrature.Octant(24)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildAllSkeleton(NewSkeleton(m), dirs, workers)
			}
		})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("warm/workers=%d", workers), func(b *testing.B) {
			fam := NewFamily(m)
			fam.BuildAll(dirs, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fam.BuildAll(dirs, workers)
			}
		})
	}
}

// TestBuildAllWorkersIdentical asserts bit-identical DAGs for every worker
// count (the slot-indexed build has no shared mutable state).
func TestBuildAllWorkersIdentical(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 4, NY: 4, NZ: 4, Jitter: 0.15, Seed: 3})
	dirs, err := quadrature.Octant(12)
	if err != nil {
		t.Fatal(err)
	}
	ref := BuildAllSkeleton(NewSkeleton(m), dirs, 1)
	for _, workers := range []int{2, 4, 8} {
		got := BuildAllSkeleton(NewSkeleton(m), dirs, workers)
		for i := range ref {
			if got[i].NumEdges() != ref[i].NumEdges() ||
				got[i].NumLevels != ref[i].NumLevels ||
				got[i].RemovedEdges != ref[i].RemovedEdges {
				t.Fatalf("workers=%d direction %d differs from serial build", workers, i)
			}
			for v := int32(0); v < int32(ref[i].N); v++ {
				if got[i].Level[v] != ref[i].Level[v] {
					t.Fatalf("workers=%d direction %d cell %d level differs", workers, i, v)
				}
			}
		}
	}
}
