package mesh

// A plain-text mesh interchange format, so generated meshes can be saved,
// inspected, diffed and reloaded by the CLIs:
//
//	sweepmesh 1
//	name <name>
//	verts <nv>
//	x y z            (nv lines)
//	cells <nc>
//	v0 v1 v2 v3      (nc lines)
//
// Only tetrahedral meshes with vertex tables round-trip through this format
// (faces, normals and adjacency are derived on load); synthetic cell graphs
// like RegularHex are cheap to regenerate and are not serialized.

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"sweepsched/internal/geom"
)

// formatVersion is the current sweepmesh format version.
const formatVersion = 1

// headerCap bounds the capacity a decoder reserves from a count in a
// header: past it the tables grow as the body is read, so a short input
// claiming a huge count fails at its end instead of allocating the claim.
const headerCap = 1 << 12

// Encode writes m in sweepmesh format. It fails if the mesh has no vertex
// and cell tables (derived meshes cannot round-trip).
func Encode(w io.Writer, m *Mesh) error {
	if m.Verts == nil || m.Cells == nil {
		return fmt.Errorf("mesh: %q has no vertex/cell tables to encode", m.Name)
	}
	bw := bufio.NewWriter(w)
	name := m.Name
	if name == "" {
		name = "unnamed"
	}
	if strings.ContainsAny(name, " \t\n") {
		return fmt.Errorf("mesh: name %q contains whitespace", name)
	}
	fmt.Fprintf(bw, "sweepmesh %d\n", formatVersion)
	fmt.Fprintf(bw, "name %s\n", name)
	fmt.Fprintf(bw, "verts %d\n", len(m.Verts))
	for _, v := range m.Verts {
		fmt.Fprintf(bw, "%.17g %.17g %.17g\n", v.X, v.Y, v.Z)
	}
	fmt.Fprintf(bw, "cells %d\n", len(m.Cells))
	for _, c := range m.Cells {
		fmt.Fprintf(bw, "%d %d %d %d\n", c[0], c[1], c[2], c[3])
	}
	return bw.Flush()
}

// Decode reads a sweepmesh stream and rebuilds the full mesh (faces,
// normals, adjacency).
func Decode(r io.Reader) (*Mesh, error) {
	br := bufio.NewReader(r)
	var version int
	if _, err := fmt.Fscanf(br, "sweepmesh %d\n", &version); err != nil {
		return nil, fmt.Errorf("mesh: bad header: %w", err)
	}
	if version != formatVersion {
		return nil, fmt.Errorf("mesh: unsupported format version %d", version)
	}
	var name string
	if _, err := fmt.Fscanf(br, "name %s\n", &name); err != nil {
		return nil, fmt.Errorf("mesh: bad name line: %w", err)
	}
	var nv int
	if _, err := fmt.Fscanf(br, "verts %d\n", &nv); err != nil {
		return nil, fmt.Errorf("mesh: bad verts line: %w", err)
	}
	if nv < 4 {
		return nil, fmt.Errorf("mesh: %d vertices is too few", nv)
	}
	verts := make([]geom.Vec3, 0, min(nv, headerCap))
	for i := 0; i < nv; i++ {
		var p geom.Vec3
		if _, err := fmt.Fscanf(br, "%g %g %g\n", &p.X, &p.Y, &p.Z); err != nil {
			return nil, fmt.Errorf("mesh: vertex %d: %w", i, err)
		}
		verts = append(verts, p)
	}
	var nc int
	if _, err := fmt.Fscanf(br, "cells %d\n", &nc); err != nil {
		return nil, fmt.Errorf("mesh: bad cells line: %w", err)
	}
	if nc < 1 {
		return nil, fmt.Errorf("mesh: no cells")
	}
	cells := make([][4]int32, 0, min(nc, headerCap))
	for i := 0; i < nc; i++ {
		var c [4]int32
		if _, err := fmt.Fscanf(br, "%d %d %d %d\n", &c[0], &c[1], &c[2], &c[3]); err != nil {
			return nil, fmt.Errorf("mesh: cell %d: %w", i, err)
		}
		for _, v := range c {
			if v < 0 || int(v) >= nv {
				return nil, fmt.Errorf("mesh: cell %d references vertex %d of %d", i, v, nv)
			}
		}
		// Repair orientation on load so hand-edited files stay usable.
		if geom.TetVolume(verts[c[0]], verts[c[1]], verts[c[2]], verts[c[3]]) < 0 {
			c[1], c[2] = c[2], c[1]
		}
		cells = append(cells, c)
	}
	m := FromTets(name, verts, cells)
	return m, nil
}
