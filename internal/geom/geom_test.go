package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestAddSubScale(t *testing.T) {
	v := Vec3{1, 2, 3}
	w := Vec3{4, -5, 6}
	if got := v.Add(w); got != (Vec3{5, -3, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec3{-3, 7, -3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	z := Vec3{0, 0, 1}
	if !almostEq(x.Dot(y), 0) {
		t.Fatal("x·y != 0")
	}
	if x.Cross(y) != z {
		t.Fatalf("x×y = %v, want z", x.Cross(y))
	}
	if y.Cross(x) != z.Scale(-1) {
		t.Fatalf("y×x = %v, want -z", y.Cross(x))
	}
}

func TestNormNormalize(t *testing.T) {
	v := Vec3{3, 4, 0}
	if !almostEq(v.Norm(), 5) {
		t.Fatalf("Norm = %v", v.Norm())
	}
	u := v.Normalize()
	if !almostEq(u.Norm(), 1) {
		t.Fatalf("Normalize norm = %v", u.Norm())
	}
	if (Vec3{}).Normalize() != (Vec3{}) {
		t.Fatal("Normalize of zero vector changed it")
	}
}

func TestCentroid(t *testing.T) {
	c := Centroid(Vec3{0, 0, 0}, Vec3{2, 0, 0}, Vec3{0, 2, 0}, Vec3{0, 0, 2})
	if !almostEq(c.X, 0.5) || !almostEq(c.Y, 0.5) || !almostEq(c.Z, 0.5) {
		t.Fatalf("Centroid = %v", c)
	}
}

func TestCentroidPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Centroid() did not panic")
		}
	}()
	Centroid()
}

func TestTriangleNormal(t *testing.T) {
	n := TriangleNormal(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0})
	if n != (Vec3{0, 0, 1}) {
		t.Fatalf("TriangleNormal = %v, want +z", n)
	}
}

func TestTetVolume(t *testing.T) {
	// Unit right tetrahedron has volume 1/6.
	v := TetVolume(Vec3{0, 0, 0}, Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1})
	if !almostEq(v, 1.0/6) {
		t.Fatalf("TetVolume = %v, want 1/6", v)
	}
	// Swapping two vertices flips the sign.
	v2 := TetVolume(Vec3{0, 0, 0}, Vec3{0, 1, 0}, Vec3{1, 0, 0}, Vec3{0, 0, 1})
	if !almostEq(v2, -1.0/6) {
		t.Fatalf("swapped TetVolume = %v, want -1/6", v2)
	}
}

func TestAABB(t *testing.T) {
	box := NewAABB(Vec3{1, 5, -2}, Vec3{-1, 0, 3}, Vec3{0, 2, 0})
	if box.Min != (Vec3{-1, 0, -2}) || box.Max != (Vec3{1, 5, 3}) {
		t.Fatalf("NewAABB = %+v", box)
	}
}

func TestQuickDotSymmetry(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = clampVec(a), clampVec(b)
		return almostEqRel(a.Dot(b), b.Dot(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCrossOrthogonal(t *testing.T) {
	f := func(a, b Vec3) bool {
		// Keep magnitudes bounded: quick generates values up to ~1e308 whose
		// products overflow and make the orthogonality check meaningless.
		a, b = clampVec(a), clampVec(b)
		c := a.Cross(b)
		scale := a.Norm() * b.Norm() * (c.Norm() + 1)
		return math.Abs(c.Dot(a)) <= 1e-9*(scale+1) && math.Abs(c.Dot(b)) <= 1e-9*(scale+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAABBContainsInputs(t *testing.T) {
	f := func(a, b, c Vec3) bool {
		box := NewAABB(a, b, c)
		for _, p := range []Vec3{a, b, c} {
			if p.X < box.Min.X || p.X > box.Max.X || p.Y < box.Min.Y || p.Y > box.Max.Y || p.Z < box.Min.Z || p.Z > box.Max.Z {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampVec(v Vec3) Vec3 {
	c := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		for math.Abs(x) > 1e6 {
			x /= 1e6
		}
		return x
	}
	return Vec3{c(v.X), c(v.Y), c(v.Z)}
}

func almostEqRel(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return true // quick may generate NaN components; ignore
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
