package kba

import (
	"testing"

	"sweepsched/internal/heuristics"
	"sweepsched/internal/lb"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/sched"
)

func TestFactorNear(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		2:  {2, 1},
		4:  {2, 2},
		6:  {3, 2},
		12: {4, 3},
		7:  {7, 1},
		16: {4, 4},
	}
	for m, want := range cases {
		px, py := factorNear(m)
		if px != want[0] || py != want[1] {
			t.Fatalf("factorNear(%d) = (%d,%d), want %v", m, px, py, want)
		}
		if px*py != m {
			t.Fatalf("factorNear(%d) not a factorization", m)
		}
	}
}

func TestColumnAssignment(t *testing.T) {
	a, err := ColumnAssignment(4, 4, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(48, 4); err != nil {
		t.Fatal(err)
	}
	// Column property: same (i,j) across all k maps to the same processor.
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			p := a[j*4+i]
			for k := 1; k < 3; k++ {
				if a[(k*4+j)*4+i] != p {
					t.Fatalf("column (%d,%d) split across processors", i, j)
				}
			}
		}
	}
	// Balanced tiles: 4 procs × 12 cells each.
	counts := make([]int, 4)
	for _, p := range a {
		counts[p]++
	}
	for p, c := range counts {
		if c != 12 {
			t.Fatalf("processor %d holds %d cells, want 12", p, c)
		}
	}
}

func TestColumnAssignmentErrors(t *testing.T) {
	if _, err := ColumnAssignment(0, 1, 1, 1); err == nil {
		t.Fatal("bad dims accepted")
	}
	if _, err := ColumnAssignment(2, 2, 2, 0); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestKBANearOptimalOnRegularGrid(t *testing.T) {
	// Related-work sanity (§2): KBA is essentially optimal on regular
	// meshes. On an 8x8x8 grid with 8 octant directions and 4 processors,
	// the makespan should be within a small factor of the load bound.
	nx, ny, nz := 8, 8, 8
	msh := mesh.RegularHex(nx, ny, nz)
	dirs, err := quadrature.Diagonals(8)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 4)
	if err != nil {
		t.Fatal(err)
	}
	assign, err := ColumnAssignment(nx, ny, nz, 4)
	if err != nil {
		t.Fatal(err)
	}
	// KBA's pipeline is level-priority list scheduling on the column
	// assignment: level priorities reproduce the diagonal wavefront.
	s, err := heuristics.Run(heuristics.Level, inst, assign, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ratio := lb.Ratio(s.Makespan, inst)
	if ratio > 1.6 {
		t.Fatalf("KBA ratio %v > 1.6 on a regular grid", ratio)
	}
}
