// Package kba implements a KBA-style (Koch-Baker-Alcouffe, paper ref [6])
// sweep schedule for regular hexahedral grids. KBA decomposes the grid into
// columns of cells along the sweep axis, assigns columns to processors in a
// 2-D block layout, and pipelines the diagonal wavefront; it is essentially
// optimal on very regular meshes, which makes it the sanity baseline for
// the schedulers on unstructured meshes.
package kba

import (
	"fmt"

	"sweepsched/internal/sched"
)

// ColumnAssignment assigns the cells of an nx×ny×nz regular hex mesh (cell
// id (k·ny + j)·nx + i, as produced by mesh.RegularHex) to m processors by
// partitioning the xy plane into m contiguous tiles (px × py grid chosen as
// square as possible) and giving each processor all z-columns of its tile —
// the classic KBA column decomposition.
func ColumnAssignment(nx, ny, nz, m int) (sched.Assignment, error) {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("kba: bad dims %dx%dx%d", nx, ny, nz)
	}
	if m <= 0 {
		return nil, fmt.Errorf("kba: need m > 0, got %d", m)
	}
	px, py := factorNear(m)
	assign := make(sched.Assignment, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				ti := i * px / nx
				tj := j * py / ny
				if ti >= px {
					ti = px - 1
				}
				if tj >= py {
					tj = py - 1
				}
				assign[(k*ny+j)*nx+i] = int32(tj*px + ti)
			}
		}
	}
	return assign, nil
}

// factorNear returns the factor pair (px, py) of m with px ≥ py and px/py
// minimized (the most square tiling).
func factorNear(m int) (px, py int) {
	py = 1
	for f := 1; f*f <= m; f++ {
		if m%f == 0 {
			py = f
		}
	}
	return m / py, py
}
