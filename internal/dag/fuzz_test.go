package dag

import (
	"math"
	"testing"

	"sweepsched/internal/dag/refimpl"
	"sweepsched/internal/geom"
	"sweepsched/internal/mesh"
)

// FuzzFromEdges checks that arbitrary edge bytes never panic the DAG
// builder and that accepted graphs always satisfy the structural
// invariants (acyclic, monotone levels, mirrored adjacency).
func FuzzFromEdges(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2, 2, 3})
	f.Add(uint8(3), []byte{0, 1, 1, 2, 2, 0}) // cycle
	f.Add(uint8(2), []byte{})
	f.Add(uint8(5), []byte{4, 0, 0, 4, 3, 3})

	f.Fuzz(func(t *testing.T, nRaw uint8, raw []byte) {
		n := int(nRaw%30) + 2
		edges := make([][2]int32, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, [2]int32{int32(raw[i]) % int32(n), int32(raw[i+1]) % int32(n)})
		}
		// Drop self-loops (FromEdges rejects them loudly; we want to probe
		// the accept path as well as the reject path, so split the corpus).
		hasSelfLoop := false
		for _, e := range edges {
			if e[0] == e[1] {
				hasSelfLoop = true
				break
			}
		}
		d, err := FromEdges(n, edges)
		if hasSelfLoop {
			if err == nil {
				t.Fatal("self-loop accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("in-range edges rejected: %v", err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("invalid DAG from fuzz edges: %v", err)
		}
		if d.NumEdges()+d.RemovedEdges != len(edges) {
			t.Fatalf("edge accounting: %d kept + %d removed != %d input",
				d.NumEdges(), d.RemovedEdges, len(edges))
		}
	})
}

// FuzzBuildEquivalence is the randomized half of the bitwise-identity
// contract: it decodes arbitrary bytes into a synthetic mesh (interior
// and boundary faces, normals drawn from a table that includes ±Eps and
// 0 to sit exactly on the orientation threshold, adjacency free to form
// cycles) plus a sweep direction, runs both the frozen pre-skeleton
// reference builder and the skeleton/builder path — cold BuildAll and a
// recycled-destination BuildInto — and demands identical CSR contents,
// levels and RemovedEdges.
func FuzzBuildEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(0), []byte{0, 1, 0, 3, 3, 1, 2, 4, 6, 2, 3, 5, 0, 7, 1})
	f.Add(uint8(3), uint8(5), []byte{0, 1, 3, 0, 0, 1, 2, 3, 0, 0, 2, 0, 3, 0, 0}) // forced cycle
	f.Add(uint8(1), uint8(2), []byte{})                                            // single cell, no faces
	f.Add(uint8(6), uint8(7), []byte{0, 6, 4, 4, 4, 1, 2, 7, 8, 9})                // boundary faces + tiny normals

	// Component values chosen to straddle the Eps threshold under the
	// direction table below (dot products land on 0, ±Eps, and beyond).
	vals := []float64{0, 1, -1, Eps, -Eps, 2 * Eps, 0.5, -0.707, 1e-12, 0.123}
	dirs := []geom.Vec3{
		{X: 1},
		{Y: -1},
		geom.Vec3{X: 1, Y: 1, Z: 1}.Normalize(),
		geom.Vec3{X: 0.3, Y: 0.8, Z: 0.52}.Normalize(),
		{X: 1, Y: Eps},
		{X: Eps, Y: math.Nextafter(Eps, 1)},
		{},
		{X: -0.9, Y: 0.1, Z: -0.4},
	}

	f.Fuzz(func(t *testing.T, nRaw, dirSel uint8, raw []byte) {
		n := int(nRaw%12) + 1
		m := &mesh.Mesh{Name: "fuzz"}
		m.Centroids = make([]geom.Vec3, n)
		for i := 0; i+4 < len(raw); i += 5 {
			c0 := int32(raw[i]) % int32(n)
			c1 := int32(raw[i+1]) % int32(n+1)
			if c1 == int32(n) {
				c1 = mesh.NoCell // boundary face
			}
			if c1 == c0 {
				continue // meshes have no self-adjacent faces
			}
			m.Faces = append(m.Faces, mesh.Face{
				C0: c0, C1: c1,
				Normal: geom.Vec3{
					X: vals[int(raw[i+2])%len(vals)],
					Y: vals[int(raw[i+3])%len(vals)],
					Z: vals[int(raw[i+4])%len(vals)],
				},
			})
		}
		dir := dirs[int(dirSel)%len(dirs)]

		ref := refimpl.Build(m, dir)
		got := buildOne(m, dir)
		skel := NewSkeleton(m)
		b := GetBuilder(skel)
		into := &DAG{}
		b.BuildInto(into, skel, dir)
		// Rebuild into the same destination to exercise recycled arrays.
		b.BuildInto(into, skel, dir)
		b.Release()
		sameAsRef(t, "Build", got, ref)
		sameAsRef(t, "BuildInto", into, ref)
	})
}
