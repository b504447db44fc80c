package quadrature

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"sweepsched/internal/geom"
)

func checkUnit(t *testing.T, dirs []geom.Vec3) {
	t.Helper()
	for i, d := range dirs {
		if math.Abs(d.Norm()-1) > 1e-12 {
			t.Fatalf("direction %d not unit: %v (|d|=%v)", i, d, d.Norm())
		}
	}
}

func TestSNCounts(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} {
		dirs, err := SN(n)
		if err != nil {
			t.Fatal(err)
		}
		if want := n * (n + 2); len(dirs) != want {
			t.Fatalf("S%d: %d directions, want %d", n, len(dirs), want)
		}
		checkUnit(t, dirs)
	}
}

func TestSNErrors(t *testing.T) {
	for _, n := range []int{0, -2, 3, 7} {
		if _, err := SN(n); err == nil {
			t.Fatalf("SN(%d) did not error", n)
		}
	}
}

func TestSNOctantSymmetry(t *testing.T) {
	dirs, err := SN(4)
	if err != nil {
		t.Fatal(err)
	}
	// For every direction, its full sign-flipped family must be present.
	has := func(v geom.Vec3) bool {
		for _, d := range dirs {
			if d.Sub(v).Norm() < 1e-12 {
				return true
			}
		}
		return false
	}
	for _, d := range dirs {
		for _, sx := range []float64{1, -1} {
			for _, sy := range []float64{1, -1} {
				for _, sz := range []float64{1, -1} {
					if !has(geom.Vec3{X: sx * d.X, Y: sy * d.Y, Z: sz * d.Z}) {
						t.Fatalf("missing mirror of %v", d)
					}
				}
			}
		}
	}
}

func TestSNBalancedMoments(t *testing.T) {
	dirs, _ := SN(6)
	var sum geom.Vec3
	for _, d := range dirs {
		sum = sum.Add(d)
	}
	if sum.Norm() > 1e-9 {
		t.Fatalf("first moment %v not zero", sum)
	}
}

func TestSNWeights(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		dirs, weights, err := SNWeights(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) != len(weights) {
			t.Fatalf("S%d: %d dirs, %d weights", n, len(dirs), len(weights))
		}
		sum := 0.0
		for _, w := range weights {
			if w <= 0 {
				t.Fatalf("S%d: non-positive weight %v", n, w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("S%d: weights sum to %v", n, sum)
		}
		// Weighted first moment vanishes by symmetry.
		var mom geom.Vec3
		for i, d := range dirs {
			mom = mom.Add(d.Scale(weights[i]))
		}
		if mom.Norm() > 1e-12 {
			t.Fatalf("S%d: weighted first moment %v", n, mom)
		}
	}
	if _, _, err := SNWeights(3); err == nil {
		t.Fatal("odd order accepted")
	}
}

func TestOrderFor(t *testing.T) {
	cases := map[int][2]int{
		1:  {2, 8},
		8:  {2, 8},
		9:  {4, 24},
		24: {4, 24},
		25: {6, 48},
		48: {6, 48},
		80: {8, 80},
	}
	for k, want := range cases {
		order, count := OrderFor(k)
		if order != want[0] || count != want[1] {
			t.Fatalf("OrderFor(%d) = (%d,%d), want %v", k, order, count, want)
		}
	}
}

func TestOctant(t *testing.T) {
	for _, k := range []int{1, 4, 8, 12, 24, 30, 48} {
		dirs, err := Octant(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) != k {
			t.Fatalf("Octant(%d) returned %d directions", k, len(dirs))
		}
		checkUnit(t, dirs)
		// No duplicate directions.
		for i := range dirs {
			for j := i + 1; j < len(dirs); j++ {
				if dirs[i].Sub(dirs[j]).Norm() < 1e-12 {
					t.Fatalf("Octant(%d): duplicate directions %d and %d", k, i, j)
				}
			}
		}
	}
	if _, err := Octant(0); err == nil {
		t.Fatal("Octant(0) did not error")
	}
}

func TestOctantSpreadWhenTruncated(t *testing.T) {
	// Round-robin interleaving means the first 8 directions of any k >= 8
	// cover all eight octants.
	dirs, _ := Octant(8)
	octants := map[[3]bool]bool{}
	for _, d := range dirs {
		octants[[3]bool{d.X > 0, d.Y > 0, d.Z > 0}] = true
	}
	if len(octants) != 8 {
		t.Fatalf("first 8 directions cover %d octants", len(octants))
	}
}

// Axes2D returns k directions confined to the xy plane at equal angles,
// offset to avoid exact axis alignment (which would make mesh faces exactly
// parallel to the sweep). The sign-grouping tests use it for planar sets.
func Axes2D(k int) ([]geom.Vec3, error) {
	if k <= 0 {
		return nil, fmt.Errorf("quadrature: need k > 0 directions, got %d", k)
	}
	dirs := make([]geom.Vec3, k)
	for i := range dirs {
		phi := (float64(i)+0.25)/float64(k)*2*math.Pi + 0.1
		dirs[i] = geom.Vec3{X: math.Cos(phi), Y: math.Sin(phi), Z: 0}
	}
	return dirs, nil
}

func TestAxes2D(t *testing.T) {
	dirs, err := Axes2D(6)
	if err != nil {
		t.Fatal(err)
	}
	checkUnit(t, dirs)
	for i, d := range dirs {
		if d.Z != 0 {
			t.Fatalf("direction %d has nonzero z: %v", i, d)
		}
	}
	if _, err := Axes2D(-1); err == nil {
		t.Fatal("Axes2D(-1) did not error")
	}
}

func TestDiagonals(t *testing.T) {
	dirs, err := Diagonals(8)
	if err != nil {
		t.Fatal(err)
	}
	checkUnit(t, dirs)
	seen := map[[3]bool]bool{}
	for _, d := range dirs {
		seen[[3]bool{d.X > 0, d.Y > 0, d.Z > 0}] = true
	}
	if len(seen) != 8 {
		t.Fatalf("diagonals cover %d octants", len(seen))
	}
	if _, err := Diagonals(9); err == nil {
		t.Fatal("Diagonals(9) did not error")
	}
	if _, err := Diagonals(0); err == nil {
		t.Fatal("Diagonals(0) did not error")
	}
}

func TestQuickOctantAlwaysUnitAndExactCount(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw%100) + 1
		dirs, err := Octant(k)
		if err != nil || len(dirs) != k {
			return false
		}
		for _, d := range dirs {
			if math.Abs(d.Norm()-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
