package dag

import (
	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
)

// Skeleton is the direction-independent part of a mesh's DAG family:
// the interior-face endpoints and normals, extracted once per mesh into
// packed SoA arrays. Every per-direction Build re-walked the full face
// table (boundary faces included, 56-byte Face structs, branch per
// face) even though only the interior endpoints and normals matter and
// none of them depend on the sweep direction; a Skeleton pays that walk
// once and leaves the per-direction orientation pass a branch-light
// streaming loop over flat float64/int32 arrays.
//
// A Skeleton is immutable after NewSkeleton and safe for concurrent use
// by any number of Builders.
type Skeleton struct {
	// NCells is the number of mesh cells (DAG vertices).
	NCells int

	// U and V are the endpoint cells of each interior face, in mesh face
	// order: U[j], V[j] are Face.C0, Face.C1 of the j-th interior face.
	// Preserving face order preserves the edge-emission order of the
	// original per-direction Build, which the bitwise-identity contract
	// of Builder.BuildInto depends on.
	U, V []int32

	// NX, NY, NZ are the face normals (oriented U -> V) in SoA layout,
	// so the orientation pass streams three flat arrays instead of
	// gathering Vec3 fields out of Face structs.
	NX, NY, NZ []float64
}

// NewSkeleton extracts the interior-face skeleton of the mesh.
func NewSkeleton(m *mesh.Mesh) *Skeleton {
	nf := m.NInteriorFaces()
	s := &Skeleton{
		NCells: m.NCells(),
		U:      make([]int32, 0, nf),
		V:      make([]int32, 0, nf),
		NX:     make([]float64, 0, nf),
		NY:     make([]float64, 0, nf),
		NZ:     make([]float64, 0, nf),
	}
	for i := range m.Faces {
		f := &m.Faces[i]
		if f.C1 == mesh.NoCell {
			continue
		}
		s.U = append(s.U, f.C0)
		s.V = append(s.V, f.C1)
		s.NX = append(s.NX, f.Normal.X)
		s.NY = append(s.NY, f.Normal.Y)
		s.NZ = append(s.NZ, f.Normal.Z)
	}
	return s
}

// NFaces returns the number of interior faces in the skeleton.
func (s *Skeleton) NFaces() int { return len(s.U) }

// Family amortizes DAG construction for one mesh across repeated
// direction-set builds: it owns the mesh's Skeleton plus a recycled
// destination DAG set, so a warm family rebuilds a k-direction family
// with zero allocations beyond builder-pool churn. Callers that build a
// DAG set once (most of the pipeline) use BuildAll; callers that
// rebuild per trial or per direction-set sweep hold a Family.
//
// BuildAll reuses the family-owned DAG storage: the DAGs returned by
// the previous BuildAll call are overwritten in place. Callers that
// retain a DAG set across builds must use separate families.
type Family struct {
	Skel *Skeleton

	dags []*DAG
}

// NewFamily extracts the skeleton of m and returns an empty family.
func NewFamily(m *mesh.Mesh) *Family { return &Family{Skel: NewSkeleton(m)} }

// BuildAll induces the DAGs for every direction over the family's
// skeleton, recycling the family's DAG storage (see the type comment).
// Workers bounds the parallelism as in BuildAllInto; the result is
// identical for every worker count.
func (f *Family) BuildAll(dirs []geom.Vec3, workers int) []*DAG {
	if cap(f.dags) < len(dirs) {
		grown := make([]*DAG, len(dirs))
		copy(grown, f.dags[:cap(f.dags)])
		f.dags = grown
	}
	f.dags = f.dags[:len(dirs)]
	return BuildAllInto(f.dags, f.Skel, dirs, workers)
}
