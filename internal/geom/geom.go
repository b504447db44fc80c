// Package geom provides the minimal 3-D vector geometry used by the mesh
// generators and direction-set constructions: vectors, dot/cross products,
// normalization, and axis-aligned bounding boxes.
package geom

import "math"

// Vec3 is a point or direction in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s * v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Centroid returns the arithmetic mean of the given points. It panics on an
// empty argument list.
func Centroid(pts ...Vec3) Vec3 {
	if len(pts) == 0 {
		panic("geom: Centroid of no points")
	}
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// TriangleNormal returns the (unnormalized) normal of the triangle a,b,c
// following the right-hand rule on the vertex order.
func TriangleNormal(a, b, c Vec3) Vec3 {
	return b.Sub(a).Cross(c.Sub(a))
}

// TetVolume returns the signed volume of the tetrahedron (a, b, c, d):
// positive when d lies on the side of triangle abc pointed to by its
// right-hand-rule normal.
func TetVolume(a, b, c, d Vec3) float64 {
	return b.Sub(a).Cross(c.Sub(a)).Dot(d.Sub(a)) / 6
}

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Vec3
}

// NewAABB returns the bounding box of the given points. It panics on an
// empty argument list.
func NewAABB(pts ...Vec3) AABB {
	if len(pts) == 0 {
		panic("geom: NewAABB of no points")
	}
	box := AABB{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		box.Min.X = math.Min(box.Min.X, p.X)
		box.Min.Y = math.Min(box.Min.Y, p.Y)
		box.Min.Z = math.Min(box.Min.Z, p.Z)
		box.Max.X = math.Max(box.Max.X, p.X)
		box.Max.Y = math.Max(box.Max.Y, p.Y)
		box.Max.Z = math.Max(box.Max.Z, p.Z)
	}
	return box
}

// Extent returns the box dimensions (Max - Min).
func (b AABB) Extent() Vec3 { return b.Max.Sub(b.Min) }
