package mesh

import (
	"math"
	"testing"
	"testing/quick"

	"sweepsched/internal/geom"
)

// twoTets builds the simplest interior-face mesh: two tets glued on a face.
func twoTets() *Mesh {
	verts := []geom.Vec3{
		{X: 0, Y: 0, Z: 0},
		{X: 1, Y: 0, Z: 0},
		{X: 0, Y: 1, Z: 0},
		{X: 0, Y: 0, Z: 1},
		{X: 1, Y: 1, Z: 1},
	}
	cells := [][4]int32{
		{0, 1, 2, 3},
		{1, 2, 3, 4}, // orientation fixed below if needed
	}
	// Ensure positive volumes.
	for i, tet := range cells {
		if geom.TetVolume(verts[tet[0]], verts[tet[1]], verts[tet[2]], verts[tet[3]]) < 0 {
			cells[i][1], cells[i][2] = cells[i][2], cells[i][1]
		}
	}
	return FromTets("twotets", verts, cells)
}

func TestTwoTetsStructure(t *testing.T) {
	m := twoTets()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NCells() != 2 {
		t.Fatalf("NCells = %d", m.NCells())
	}
	if m.NFaces() != 7 {
		t.Fatalf("NFaces = %d, want 7 (4+4-1 shared)", m.NFaces())
	}
	if m.NInteriorFaces() != 1 {
		t.Fatalf("interior faces = %d, want 1", m.NInteriorFaces())
	}
	if m.Degree(0) != 1 || m.Degree(1) != 1 {
		t.Fatalf("degrees = %d,%d want 1,1", m.Degree(0), m.Degree(1))
	}
	cells, faces := m.Neighbors(0)
	if len(cells) != 1 || cells[0] != 1 {
		t.Fatalf("Neighbors(0) = %v", cells)
	}
	f := m.Faces[faces[0]]
	if f.C0 != 0 || f.C1 != 1 {
		t.Fatalf("shared face joins %d,%d", f.C0, f.C1)
	}
}

func TestKuhnBoxCounts(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}} {
		m := KuhnBox(BoxSpec{NX: dims[0], NY: dims[1], NZ: dims[2]})
		want := 6 * dims[0] * dims[1] * dims[2]
		if m.NCells() != want {
			t.Fatalf("dims %v: NCells = %d, want %d", dims, m.NCells(), want)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		if _, comps := m.Components(); comps != 1 {
			t.Fatalf("dims %v: %d components", dims, comps)
		}
	}
}

func TestKuhnBoxConformity(t *testing.T) {
	// In a conforming tet mesh every interior triangular face is shared by
	// exactly two tets: total faces = 4*ncells - interior.
	m := KuhnBox(BoxSpec{NX: 3, NY: 3, NZ: 3})
	if got := 4*m.NCells() - m.NInteriorFaces(); got != m.NFaces() {
		t.Fatalf("face bookkeeping: 4n-int=%d, NFaces=%d", got, m.NFaces())
	}
	// A Kuhn cube interior: each tet has 4 neighbors except near boundary;
	// max degree is 4 for tets.
	stats := m.ComputeStats()
	if stats.MaxDegree > 4 {
		t.Fatalf("tet degree %d > 4", stats.MaxDegree)
	}
}

func TestKuhnBoxJitterValid(t *testing.T) {
	m := KuhnBox(BoxSpec{NX: 4, NY: 4, NZ: 4, Jitter: 0.25, Seed: 99})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKuhnBoxJitterDeterministic(t *testing.T) {
	a := KuhnBox(BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.2, Seed: 5})
	b := KuhnBox(BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.2, Seed: 5})
	for i := range a.Verts {
		if a.Verts[i] != b.Verts[i] {
			t.Fatalf("vertex %d differs across identical seeds", i)
		}
	}
	c := KuhnBox(BoxSpec{NX: 3, NY: 3, NZ: 3, Jitter: 0.2, Seed: 6})
	diff := 0
	for i := range a.Verts {
		if a.Verts[i] != c.Verts[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestKuhnBoxPanicsOnBadSpec(t *testing.T) {
	for _, spec := range []BoxSpec{
		{NX: 0, NY: 1, NZ: 1},
		{NX: 1, NY: 1, NZ: 1, Jitter: 0.5},
		{NX: 1, NY: 1, NZ: 1, Jitter: -0.1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("spec %+v did not panic", spec)
				}
			}()
			KuhnBox(spec)
		}()
	}
}

func TestRegularHex(t *testing.T) {
	m := RegularHex(3, 2, 2)
	if m.NCells() != 12 {
		t.Fatalf("NCells = %d", m.NCells())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior faces: (nx-1)nynz + nx(ny-1)nz + nxny(nz-1) = 2*2*2+3*1*2+3*2*1 = 8+6+6 = 20.
	if got := m.NInteriorFaces(); got != 20 {
		t.Fatalf("interior faces = %d, want 20", got)
	}
	stats := m.ComputeStats()
	if stats.MaxDegree > 6 {
		t.Fatalf("hex degree %d > 6", stats.MaxDegree)
	}
	if stats.Components != 1 {
		t.Fatalf("components = %d", stats.Components)
	}
}

func TestTrimToConnected(t *testing.T) {
	m := KuhnBox(BoxSpec{NX: 4, NY: 4, NZ: 4, Jitter: 0.1, Seed: 1})
	for _, n := range []int{m.NCells(), 300, 100, 37} {
		tm := m.TrimTo(n)
		if tm.NCells() > n {
			t.Fatalf("TrimTo(%d) left %d cells", n, tm.NCells())
		}
		if tm.NCells() < n*9/10 {
			t.Fatalf("TrimTo(%d) lost too many cells: %d", n, tm.NCells())
		}
		if err := tm.Validate(); err != nil {
			t.Fatalf("TrimTo(%d): %v", n, err)
		}
		if _, comps := tm.Components(); comps != 1 {
			t.Fatalf("TrimTo(%d): %d components", n, comps)
		}
	}
}

func TestTrimToPanics(t *testing.T) {
	m := RegularHex(2, 2, 2)
	for _, n := range []int{0, -1, m.NCells() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TrimTo(%d) did not panic", n)
				}
			}()
			m.TrimTo(n)
		}()
	}
}

func TestSubMeshBoundaryOrientation(t *testing.T) {
	m := twoTets()
	sub := m.SubMesh("one", []bool{false, true})
	if sub.NCells() != 1 {
		t.Fatalf("NCells = %d", sub.NCells())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.NInteriorFaces() != 0 {
		t.Fatal("interior face survived single-cell submesh")
	}
}

func TestFamilies(t *testing.T) {
	for _, name := range FamilyNames() {
		m, err := Family(name, 0.02, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, comps := m.Components(); comps != 1 {
			t.Fatalf("%s: %d components", name, comps)
		}
		target := int(math.Round(float64(PaperCellCounts[name]) * 0.02))
		if m.NCells() < target/2 || m.NCells() > target*2 {
			t.Fatalf("%s: %d cells, target %d", name, m.NCells(), target)
		}
		if m.Name != name {
			t.Fatalf("mesh name %q, want %q", m.Name, name)
		}
	}
}

func TestFamilyErrors(t *testing.T) {
	if _, err := Family("nosuch", 1, 0); err == nil {
		t.Fatal("unknown family did not error")
	}
	if _, err := Family("tetonly", 0, 0); err == nil {
		t.Fatal("zero scale did not error")
	}
}

func TestLongAspect(t *testing.T) {
	m := Long(2000, 3)
	box := geom.NewAABB(m.Centroids...)
	e := box.Extent()
	if e.X < 4*e.Y {
		t.Fatalf("long mesh not elongated: extent %v", e)
	}
}

func TestWellLoggingAnnulus(t *testing.T) {
	m := WellLogging(1500, 4)
	for c := 0; c < m.NCells(); c++ {
		p := m.Centroids[c]
		r := math.Hypot(p.X, p.Y)
		if r < 0.12 {
			t.Fatalf("cell %d inside borehole: r=%v", c, r)
		}
	}
}

func TestComputeStatsDegreeHistogram(t *testing.T) {
	m := KuhnBox(BoxSpec{NX: 2, NY: 2, NZ: 2})
	s := m.ComputeStats()
	total := 0
	for _, c := range s.DegreeCounts {
		total += c
	}
	if total != m.NCells() {
		t.Fatalf("degree histogram covers %d of %d cells", total, m.NCells())
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestQuickSubMeshKeepsSelection(t *testing.T) {
	base := KuhnBox(BoxSpec{NX: 3, NY: 3, NZ: 2, Jitter: 0.1, Seed: 11})
	f := func(mask uint32) bool {
		keep := make([]bool, base.NCells())
		any := false
		for c := range keep {
			keep[c] = mask&(1<<(uint(c)%32)) != 0
			any = any || keep[c]
		}
		if !any {
			keep[0] = true
		}
		want := 0
		for _, k := range keep {
			if k {
				want++
			}
		}
		sub := base.SubMesh("q", keep)
		return sub.NCells() == want && sub.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKuhnBoxAlwaysValid(t *testing.T) {
	f := func(seed uint64, dims uint8, jit uint8) bool {
		d := int(dims%3) + 1
		j := float64(jit%30) / 100
		m := KuhnBox(BoxSpec{NX: d, NY: d + 1, NZ: d, Jitter: j, Seed: seed})
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKuhnBox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		KuhnBox(BoxSpec{NX: 10, NY: 10, NZ: 10, Jitter: 0.15, Seed: 1})
	}
}

func BenchmarkFamilyTetOnlySmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Family("tetonly", 0.05, 1); err != nil {
			b.Fatal(err)
		}
	}
}
