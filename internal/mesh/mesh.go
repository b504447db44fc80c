// Package mesh provides the unstructured-mesh substrate for sweep
// scheduling: a tetrahedral (and hexahedral) cell mesh with shared-face
// adjacency, plus synthetic generators reproducing the shape families of the
// meshes used in the paper (tetonly, well_logging, long, prismtet).
//
// Scheduling algorithms never look at geometry directly; they consume the
// cell adjacency together with the oriented unit normal of each shared face,
// which is exactly what determines the per-direction sweep DAGs. The Mesh
// type therefore always materializes Faces and CSR adjacency, while vertex
// and cell tables are present only for meshes built from real geometry.
package mesh

import (
	"fmt"
	"sort"

	"sweepsched/internal/geom"
)

// NoCell marks the absence of a neighboring cell on a boundary face.
const NoCell int32 = -1

// Face is a shared (or boundary) facet between cells. For interior faces
// Normal is the unit normal oriented from C0 towards C1; for boundary faces
// (C1 == NoCell) it points out of C0.
type Face struct {
	C0, C1   int32
	Normal   geom.Vec3
	Centroid geom.Vec3
}

// Mesh is a cell complex reduced to what sweep scheduling needs: cells with
// centroids, and oriented faces between them. Verts and Cells are populated
// by the tetrahedral generators and may be nil for synthetic cell graphs
// (e.g. the regular hex mesh used by the KBA comparator).
type Mesh struct {
	Name string

	Verts []geom.Vec3 // optional vertex table
	Cells [][4]int32  // optional tetrahedra (vertex indices)

	Centroids []geom.Vec3
	Faces     []Face

	// CSR adjacency over cells derived from interior faces. adjCell[j] for
	// j in [adjStart[c], adjStart[c+1]) lists the neighbors of cell c and
	// adjFace[j] the corresponding face index.
	adjStart []int32
	adjCell  []int32
	adjFace  []int32
}

// NCells returns the number of cells.
func (m *Mesh) NCells() int { return len(m.Centroids) }

// NFaces returns the total number of faces, interior and boundary.
func (m *Mesh) NFaces() int { return len(m.Faces) }

// NInteriorFaces returns the number of faces shared by two cells.
func (m *Mesh) NInteriorFaces() int {
	n := 0
	for i := range m.Faces {
		if m.Faces[i].C1 != NoCell {
			n++
		}
	}
	return n
}

// Neighbors returns the cells adjacent to c and, in parallel, the indices of
// the shared faces. The returned slices alias internal storage and must not
// be modified.
func (m *Mesh) Neighbors(c int) (cells, faces []int32) {
	lo, hi := m.adjStart[c], m.adjStart[c+1]
	return m.adjCell[lo:hi], m.adjFace[lo:hi]
}

// Degree returns the number of interior-face neighbors of cell c.
func (m *Mesh) Degree(c int) int {
	return int(m.adjStart[c+1] - m.adjStart[c])
}

// buildAdjacency fills the CSR adjacency arrays from m.Faces. Interior faces
// contribute one entry in each direction.
func (m *Mesh) buildAdjacency() {
	n := m.NCells()
	deg := make([]int32, n+1)
	for i := range m.Faces {
		f := &m.Faces[i]
		if f.C1 == NoCell {
			continue
		}
		deg[f.C0+1]++
		deg[f.C1+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	m.adjStart = deg
	total := deg[n]
	m.adjCell = make([]int32, total)
	m.adjFace = make([]int32, total)
	cursor := make([]int32, n)
	for i := range m.Faces {
		f := &m.Faces[i]
		if f.C1 == NoCell {
			continue
		}
		j := m.adjStart[f.C0] + cursor[f.C0]
		m.adjCell[j], m.adjFace[j] = f.C1, int32(i)
		cursor[f.C0]++
		j = m.adjStart[f.C1] + cursor[f.C1]
		m.adjCell[j], m.adjFace[j] = f.C0, int32(i)
		cursor[f.C1]++
	}
}

// Validate checks structural invariants and returns the first violation
// found, or nil. It is used by tests and by generators after construction.
func (m *Mesh) Validate() error {
	n := m.NCells()
	if n == 0 {
		return fmt.Errorf("mesh %q has no cells", m.Name)
	}
	if m.Cells != nil && len(m.Cells) != n {
		return fmt.Errorf("cell table length %d != centroid count %d", len(m.Cells), n)
	}
	for i := range m.Faces {
		f := &m.Faces[i]
		if f.C0 < 0 || int(f.C0) >= n {
			return fmt.Errorf("face %d: C0=%d out of range", i, f.C0)
		}
		if f.C1 != NoCell && (f.C1 < 0 || int(f.C1) >= n) {
			return fmt.Errorf("face %d: C1=%d out of range", i, f.C1)
		}
		if f.C1 == f.C0 {
			return fmt.Errorf("face %d: self-adjacency of cell %d", i, f.C0)
		}
		nn := f.Normal.Norm()
		if nn < 0.999 || nn > 1.001 {
			return fmt.Errorf("face %d: normal not unit (|n|=%v)", i, nn)
		}
		if f.C1 != NoCell {
			// Normal must point from C0 toward C1.
			d := m.Centroids[f.C1].Sub(m.Centroids[f.C0])
			if f.Normal.Dot(d) <= 0 {
				return fmt.Errorf("face %d: normal does not point from C0=%d to C1=%d", i, f.C0, f.C1)
			}
		}
	}
	// Adjacency must be symmetric and consistent with faces.
	for c := 0; c < n; c++ {
		cells, faces := m.Neighbors(c)
		for j, nb := range cells {
			f := &m.Faces[faces[j]]
			if !(f.C0 == int32(c) && f.C1 == nb) && !(f.C1 == int32(c) && f.C0 == nb) {
				return fmt.Errorf("adjacency of cell %d lists face %d that does not join it to %d", c, faces[j], nb)
			}
			found := false
			back, _ := m.Neighbors(int(nb))
			for _, b := range back {
				if b == int32(c) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("adjacency not symmetric: %d->%d", c, nb)
			}
		}
	}
	if m.Cells != nil {
		for c, tet := range m.Cells {
			v := geom.TetVolume(m.Verts[tet[0]], m.Verts[tet[1]], m.Verts[tet[2]], m.Verts[tet[3]])
			if v <= 0 {
				return fmt.Errorf("cell %d has non-positive volume %v", c, v)
			}
		}
	}
	return nil
}

// Components labels the connected components of the cell-adjacency graph and
// returns the label slice plus the number of components. Labels are assigned
// in discovery order starting at 0.
func (m *Mesh) Components() (labels []int32, count int) {
	n := m.NCells()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var stack []int32
	for start := 0; start < n; start++ {
		if labels[start] != -1 {
			continue
		}
		labels[start] = int32(count)
		stack = append(stack[:0], int32(start))
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cells, _ := m.Neighbors(int(c))
			for _, nb := range cells {
				if labels[nb] == -1 {
					labels[nb] = int32(count)
					stack = append(stack, nb)
				}
			}
		}
		count++
	}
	return labels, count
}

// Stats is a structural summary used by cmd/meshgen and the experiment logs.
type Stats struct {
	Name          string
	NCells        int
	NFaces        int
	NInterior     int
	NBoundary     int
	MinDegree     int
	MaxDegree     int
	MeanDegree    float64
	Components    int
	BBox          geom.AABB
	DegreeCounts  map[int]int
	HasCellTable  bool
	HasVertexData bool
}

// ComputeStats summarizes the mesh structure.
func (m *Mesh) ComputeStats() Stats {
	s := Stats{
		Name:         m.Name,
		NCells:       m.NCells(),
		NFaces:       m.NFaces(),
		NInterior:    m.NInteriorFaces(),
		MinDegree:    1 << 30,
		DegreeCounts: map[int]int{},
	}
	s.NBoundary = s.NFaces - s.NInterior
	total := 0
	for c := 0; c < m.NCells(); c++ {
		d := m.Degree(c)
		s.DegreeCounts[d]++
		total += d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if m.NCells() > 0 {
		s.MeanDegree = float64(total) / float64(m.NCells())
		s.BBox = geom.NewAABB(m.Centroids...)
	}
	_, s.Components = m.Components()
	s.HasCellTable = m.Cells != nil
	s.HasVertexData = m.Verts != nil
	return s
}

// String renders a one-line summary.
func (s Stats) String() string {
	degs := make([]int, 0, len(s.DegreeCounts))
	for d := range s.DegreeCounts {
		degs = append(degs, d)
	}
	sort.Ints(degs)
	return fmt.Sprintf("%s: cells=%d faces=%d (int=%d bnd=%d) deg=[%d..%d] mean=%.2f comps=%d",
		s.Name, s.NCells, s.NFaces, s.NInterior, s.NBoundary, s.MinDegree, s.MaxDegree, s.MeanDegree, s.Components)
}

// faceKey identifies a triangular face by its sorted vertex triple.
type faceKey [3]int32

func newFaceKey(a, b, c int32) faceKey {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return faceKey{a, b, c}
}

// tetFaces lists the four faces of a tetrahedron, each ordered so that the
// right-hand-rule normal points out of the cell for a positively oriented
// tet (v0,v1,v2,v3).
var tetFaces = [4][3]int{
	{1, 2, 3}, // opposite v0
	{0, 3, 2}, // opposite v1
	{0, 1, 3}, // opposite v2
	{0, 2, 1}, // opposite v3
}

// FromTets builds a Mesh from a vertex table and tetrahedra. Tets must be
// positively oriented (geom.TetVolume > 0); generators in this package
// guarantee that. The face table, normals and adjacency are derived here.
func FromTets(name string, verts []geom.Vec3, cells [][4]int32) *Mesh {
	m := &Mesh{Name: name, Verts: verts, Cells: cells}
	m.Centroids = make([]geom.Vec3, len(cells))
	for c, tet := range cells {
		m.Centroids[c] = geom.Centroid(verts[tet[0]], verts[tet[1]], verts[tet[2]], verts[tet[3]])
	}
	seen := make(map[faceKey]int32, 2*len(cells))
	for c, tet := range cells {
		for _, fv := range tetFaces {
			a, b, d := tet[fv[0]], tet[fv[1]], tet[fv[2]]
			key := newFaceKey(a, b, d)
			if fi, ok := seen[key]; ok {
				f := &m.Faces[fi]
				if f.C1 != NoCell {
					// Non-manifold input; keep first two, ignore rest.
					continue
				}
				f.C1 = int32(c)
				// Ensure the stored normal points from C0 to C1.
				dir := m.Centroids[f.C1].Sub(m.Centroids[f.C0])
				if f.Normal.Dot(dir) < 0 {
					f.Normal = f.Normal.Scale(-1)
				}
				continue
			}
			va, vb, vd := verts[a], verts[b], verts[d]
			n := geom.TriangleNormal(va, vb, vd).Normalize()
			m.Faces = append(m.Faces, Face{
				C0:       int32(c),
				C1:       NoCell,
				Normal:   n,
				Centroid: geom.Centroid(va, vb, vd),
			})
			seen[key] = int32(len(m.Faces) - 1)
		}
	}
	m.buildAdjacency()
	return m
}

// SubMesh returns the mesh induced on the cells where keep[c] is true. Cell
// ids are compacted preserving order. Vertex and cell tables are carried
// over (unused vertices retained, which is harmless for scheduling).
func (m *Mesh) SubMesh(name string, keep []bool) *Mesh {
	n := m.NCells()
	remap := make([]int32, n)
	kept := int32(0)
	for c := 0; c < n; c++ {
		if keep[c] {
			remap[c] = kept
			kept++
		} else {
			remap[c] = NoCell
		}
	}
	out := &Mesh{Name: name, Verts: m.Verts}
	out.Centroids = make([]geom.Vec3, 0, kept)
	if m.Cells != nil {
		out.Cells = make([][4]int32, 0, kept)
	}
	for c := 0; c < n; c++ {
		if !keep[c] {
			continue
		}
		out.Centroids = append(out.Centroids, m.Centroids[c])
		if m.Cells != nil {
			out.Cells = append(out.Cells, m.Cells[c])
		}
	}
	for i := range m.Faces {
		f := m.Faces[i]
		k0 := f.C0 != NoCell && keep[f.C0]
		k1 := f.C1 != NoCell && keep[f.C1]
		switch {
		case k0 && k1:
			f.C0, f.C1 = remap[f.C0], remap[f.C1]
		case k0:
			f.C0, f.C1 = remap[f.C0], NoCell
		case k1:
			// Keep orientation invariant: normal points out of the surviving
			// cell, which now becomes C0.
			f.C0, f.C1 = remap[f.C1], NoCell
			f.Normal = f.Normal.Scale(-1)
		default:
			continue
		}
		out.Faces = append(out.Faces, f)
	}
	out.buildAdjacency()
	return out
}

// LargestComponent returns the sub-mesh induced by the largest connected
// component. If the mesh is already connected it returns m unchanged.
func (m *Mesh) LargestComponent() *Mesh {
	labels, count := m.Components()
	if count <= 1 {
		return m
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	keep := make([]bool, m.NCells())
	for c, l := range labels {
		keep[c] = l == int32(best)
	}
	return m.SubMesh(m.Name, keep)
}

// TrimTo removes cells from the tail of the cell ordering until exactly n
// cells remain, then keeps the largest connected component of the result.
// Generators order cells along the lattice, so trimming the tail shortens
// the domain rather than puncturing it. It panics if n exceeds the current
// cell count or is not positive.
func (m *Mesh) TrimTo(n int) *Mesh {
	if n <= 0 || n > m.NCells() {
		panic(fmt.Sprintf("mesh: TrimTo(%d) out of range for %d cells", n, m.NCells()))
	}
	if n == m.NCells() {
		return m
	}
	keep := make([]bool, m.NCells())
	for c := 0; c < n; c++ {
		keep[c] = true
	}
	return m.SubMesh(m.Name, keep).LargestComponent()
}
