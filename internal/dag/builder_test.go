package dag

import (
	"fmt"
	"math"
	"testing"

	"sweepsched/internal/dag/refimpl"
	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
)

// sameAsRef asserts that a DAG built by the skeleton/builder path is
// bitwise-identical to the frozen pre-skeleton reference: same CSR
// contents (both halves), levels and removed-edge count.
func sameAsRef(t *testing.T, tag string, got *DAG, ref *refimpl.DAG) {
	t.Helper()
	if got.N != ref.N {
		t.Fatalf("%s: N = %d, ref %d", tag, got.N, ref.N)
	}
	if got.RemovedEdges != ref.RemovedEdges {
		t.Fatalf("%s: RemovedEdges = %d, ref %d", tag, got.RemovedEdges, ref.RemovedEdges)
	}
	if got.NumLevels != ref.NumLevels {
		t.Fatalf("%s: NumLevels = %d, ref %d", tag, got.NumLevels, ref.NumLevels)
	}
	refOutStart, refOut, refInStart, refIn := ref.CSR()
	same := func(name string, a, b []int32) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d, ref %d", tag, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d, ref %d", tag, name, i, a[i], b[i])
			}
		}
	}
	same("outStart", got.outStart, refOutStart)
	same("out", got.out, refOut)
	same("inStart", got.inStart, refInStart)
	same("in", got.in, refIn)
	same("Level", got.Level, ref.Level)
}

// diffDirections covers the orientation-pass regimes: axis-parallel
// (faces exactly perpendicular dropped), generic oblique, near-parallel
// components straddling the Eps threshold, and the zero direction
// (every face parallel, empty DAG).
func diffDirections() []geom.Vec3 {
	next := math.Nextafter
	return []geom.Vec3{
		{X: 1},
		{Y: -1},
		geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize(),
		geom.Vec3{X: 0.3, Y: 0.8, Z: 0.52}.Normalize(),
		geom.Vec3{X: -0.9, Y: 0.1, Z: -0.4}.Normalize(),
		{X: Eps, Y: 1},               // X-dots of unit-x faces land exactly on Eps
		{X: next(Eps, 1), Y: 1},      // ... and just above it
		{X: next(Eps, 0), Y: 1},      // ... and just below it
		{X: -Eps, Y: next(-Eps, -1)}, // negative boundary
		{},                           // zero direction: no edges anywhere
	}
}

// diffMeshes returns the differential corpus: every synthetic mesh
// family at tiny scale, a jittered Kuhn box, and a hand-made cyclic
// mesh exercising back-edge removal.
func diffMeshes(t *testing.T) []*mesh.Mesh {
	t.Helper()
	meshes := []*mesh.Mesh{
		mesh.KuhnBox(mesh.BoxSpec{NX: 4, NY: 3, NZ: 3, Jitter: 0.2, Seed: 9}),
		mesh.RegularHex(3, 3, 3),
		cyclicMesh(),
	}
	for _, name := range mesh.FamilyNames() {
		m, err := mesh.Family(name, 0.002, 5)
		if err != nil {
			t.Fatal(err)
		}
		meshes = append(meshes, m)
	}
	return meshes
}

// cyclicMesh is the forced 3-cycle of TestCycleBreakingOnForcedCycle:
// under direction +x the faces induce 0->1->2->0.
func cyclicMesh() *mesh.Mesh {
	m := &mesh.Mesh{Name: "cycle"}
	m.Centroids = []geom.Vec3{{X: 0}, {X: 1}, {X: 2}}
	m.Faces = []mesh.Face{
		{C0: 0, C1: 1, Normal: geom.Vec3{X: 1}},
		{C0: 1, C1: 2, Normal: geom.Vec3{X: 1}},
		{C0: 0, C1: 2, Normal: geom.Vec3{X: -1}},
	}
	return m
}

// TestBuildMatchesReference is the randomized differential oracle: for
// every corpus mesh and direction, BuildAll (skeleton + pooled builder)
// and a warm Builder reused across the whole grid must both reproduce
// the frozen pre-skeleton builder bit for bit. The warm builder is
// deliberately shared across meshes of different shapes with one
// recycled destination, so stale scratch or destination state from a
// previous (larger) build would be caught here.
func TestBuildMatchesReference(t *testing.T) {
	warm := NewBuilder()
	recycled := &DAG{}
	for mi, m := range diffMeshes(t) {
		skel := NewSkeleton(m)
		for di, dir := range diffDirections() {
			tag := fmt.Sprintf("mesh %d (%s) dir %d", mi, m.Name, di)
			ref := refimpl.Build(m, dir)
			sameAsRef(t, tag+" via Build", buildOne(m, dir), ref)
			warm.BuildInto(recycled, skel, dir)
			sameAsRef(t, tag+" via warm BuildInto", recycled, ref)
			if err := recycled.Validate(); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
	}
}

// TestBuildIntoZeroAllocs is the steady-state allocation regression
// test of DAG induction: on a warm builder with a recycled destination,
// BuildInto must not allocate at all — on the acyclic fast path and on
// the cycle-breaking path (which rebuilds both CSR halves).
func TestBuildIntoZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		m    *mesh.Mesh
		dir  geom.Vec3
	}{
		{"acyclic", mesh.KuhnBox(mesh.BoxSpec{NX: 5, NY: 5, NZ: 5, Jitter: 0.2, Seed: 4}),
			geom.Vec3{X: 0.3, Y: 0.8, Z: 0.52}.Normalize()},
		{"cyclic", cyclicMesh(), geom.Vec3{X: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			skel := NewSkeleton(tc.m)
			b := NewBuilder()
			dst := &DAG{}
			// Warm up: size the builder scratch and destination arrays.
			b.BuildInto(dst, skel, tc.dir)
			if tc.name == "cyclic" && dst.RemovedEdges == 0 {
				t.Fatal("cyclic case did not exercise back-edge removal")
			}
			allocs := testing.AllocsPerRun(5, func() {
				b.BuildInto(dst, skel, tc.dir)
			})
			if allocs != 0 {
				t.Fatalf("%v allocs/op on a warm builder, want 0", allocs)
			}
		})
	}
}

// TestSkeletonBoundaryOnlyMesh covers the zero-interior-face case: two
// disconnected cells whose only faces are boundary faces. The skeleton
// is empty and every direction yields the edgeless one-level DAG, on
// both the BuildAll and BuildInto paths.
func TestSkeletonBoundaryOnlyMesh(t *testing.T) {
	m := &mesh.Mesh{Name: "boundary_only"}
	m.Centroids = []geom.Vec3{{X: 0}, {X: 3}}
	m.Faces = []mesh.Face{
		{C0: 0, C1: mesh.NoCell, Normal: geom.Vec3{X: -1}},
		{C0: 1, C1: mesh.NoCell, Normal: geom.Vec3{X: 1}},
	}
	skel := NewSkeleton(m)
	if skel.NFaces() != 0 {
		t.Fatalf("skeleton has %d interior faces, want 0", skel.NFaces())
	}
	for _, dir := range diffDirections() {
		ref := refimpl.Build(m, dir)
		d := buildOne(m, dir)
		sameAsRef(t, "boundary-only Build", d, ref)
		if d.NumEdges() != 0 || d.NumLevels != 1 {
			t.Fatalf("boundary-only: edges=%d levels=%d, want 0 and 1", d.NumEdges(), d.NumLevels)
		}
		b := GetBuilder(skel)
		into := &DAG{}
		b.BuildInto(into, skel, dir)
		b.Release()
		sameAsRef(t, "boundary-only BuildInto", into, ref)
	}
}

// TestSkeletonSingleCellMesh covers the one-cell mesh (every face a
// boundary face) on both build paths.
func TestSkeletonSingleCellMesh(t *testing.T) {
	m := mesh.RegularHex(1, 1, 1)
	skel := NewSkeleton(m)
	if skel.NCells != 1 || skel.NFaces() != 0 {
		t.Fatalf("single-cell skeleton: n=%d nf=%d, want 1 and 0", skel.NCells, skel.NFaces())
	}
	dir := geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize()
	ref := refimpl.Build(m, dir)
	sameAsRef(t, "single-cell Build", buildOne(m, dir), ref)
	b := GetBuilder(skel)
	defer b.Release()
	into := &DAG{}
	b.BuildInto(into, skel, dir)
	sameAsRef(t, "single-cell BuildInto", into, ref)
	if into.NumLevels != 1 || into.Level[0] != 1 {
		t.Fatalf("single cell: levels=%d level[0]=%d, want 1 and 1", into.NumLevels, into.Level[0])
	}
}

// TestBuildEpsThresholdFace pins the orientation boundary: a face whose
// normal-direction dot lands exactly on ±Eps induces no edge (the
// comparison is strict), while one ulp beyond induces the up- or
// downwind edge. Checked on both build paths against the reference.
func TestBuildEpsThresholdFace(t *testing.T) {
	m := &mesh.Mesh{Name: "eps"}
	m.Centroids = []geom.Vec3{{X: 0}, {X: 1}}
	m.Faces = []mesh.Face{{C0: 0, C1: 1, Normal: geom.Vec3{X: 1}}}
	skel := NewSkeleton(m)
	b := GetBuilder(skel)
	defer b.Release()
	cases := []struct {
		name  string
		dirX  float64
		edges int
	}{
		{"exactly+Eps", Eps, 0},
		{"above+Eps", math.Nextafter(Eps, 1), 1},
		{"exactly-Eps", -Eps, 0},
		{"below-Eps", math.Nextafter(-Eps, -1), 1},
		{"zero", 0, 0},
	}
	for _, tc := range cases {
		dir := geom.Vec3{X: tc.dirX, Y: 1}
		ref := refimpl.Build(m, dir)
		d := buildOne(m, dir)
		sameAsRef(t, tc.name+" Build", d, ref)
		if d.NumEdges() != tc.edges {
			t.Fatalf("%s: %d edges, want %d", tc.name, d.NumEdges(), tc.edges)
		}
		into := &DAG{}
		b.BuildInto(into, skel, dir)
		sameAsRef(t, tc.name+" BuildInto", into, ref)
	}
	// Downwind orientation: the below-Eps negative direction must emit
	// the reversed edge 1 -> 0.
	d := buildOne(m, geom.Vec3{X: math.Nextafter(-Eps, -1), Y: 1})
	if out := d.Out(1); len(out) != 1 || out[0] != 0 {
		t.Fatalf("reversed edge: Out(1) = %v, want [0]", out)
	}
}

// TestFamilyRecyclesStorage asserts that BuildAllInto reuses both the DAG
// structs and their backing arrays when a family is rebuilt into its own
// slots, and that a recycled rebuild is identical to a fresh one.
func TestFamilyRecyclesStorage(t *testing.T) {
	m := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.15, Seed: 6})
	dirsA, err := quadrature.Octant(8)
	if err != nil {
		t.Fatal(err)
	}
	dirsB, err := quadrature.Octant(4)
	if err != nil {
		t.Fatal(err)
	}
	skel := NewSkeleton(m)
	first := BuildAllInto(make([]*DAG, len(dirsA)), skel, dirsA, 1)
	firstPtrs := append([]*DAG(nil), first...)
	second := BuildAllInto(first[:len(dirsB)], skel, dirsB, 1)
	for i := range second {
		if second[i] != firstPtrs[i] {
			t.Fatalf("direction %d: rebuild allocated a fresh DAG instead of recycling", i)
		}
		sameAsRef(t, fmt.Sprintf("recycled direction %d", i), second[i], refimpl.Build(m, dirsB[i]))
	}
	// Growing the direction set again recycles the slots the shorter
	// rebuild left alone.
	third := BuildAllInto(first, skel, dirsA, 2)
	for i := range third {
		if third[i] != firstPtrs[i] {
			t.Fatalf("direction %d: regrown slot allocated a fresh DAG", i)
		}
		sameAsRef(t, fmt.Sprintf("regrown direction %d", i), third[i], refimpl.Build(m, dirsA[i]))
	}
}

// largestFamilyMesh generates the biggest paper mesh family (prismtet)
// at the benchmark scale.
func largestFamilyMesh(b *testing.B) *mesh.Mesh {
	b.Helper()
	m, err := mesh.Family("prismtet", 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkBuildInto compares single-direction DAG induction on the
// largest mesh family: the frozen pre-skeleton reference, the cold
// path (skeleton + pooled builder per call, through BuildAll), and the warm
// zero-allocation path (shared skeleton, warm builder, recycled
// destination).
func BenchmarkBuildInto(b *testing.B) {
	m := largestFamilyMesh(b)
	dir := geom.Vec3{X: 0.3, Y: 0.8, Z: 0.52}.Normalize()
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refimpl.Build(m, dir)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildOne(m, dir)
		}
	})
	b.Run("warm", func(b *testing.B) {
		skel := NewSkeleton(m)
		bld := NewBuilder()
		dst := &DAG{}
		bld.BuildInto(dst, skel, dir)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bld.BuildInto(dst, skel, dir)
		}
	})
}

// BenchmarkBuildAllFamily measures the k=24 family build on the largest
// mesh family (prismtet): ref is the frozen pre-skeleton builder run
// per direction (the pre-PR BuildAll body), cold is BuildAll (shared
// skeleton, pooled builders, fresh DAGs), and warm recycles the whole
// destination family.
func BenchmarkBuildAllFamily(b *testing.B) {
	m := largestFamilyMesh(b)
	dirs, err := quadrature.Octant(24)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dags := make([]*refimpl.DAG, len(dirs))
			for j, dir := range dirs {
				dags[j] = refimpl.Build(m, dir)
			}
			_ = dags
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildAll(m, dirs)
		}
	})
	b.Run("warm", func(b *testing.B) {
		skel := NewSkeleton(m)
		dags := BuildAllInto(make([]*DAG, len(dirs)), skel, dirs, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			BuildAllInto(dags, skel, dirs, 0)
		}
	})
}
