// Package quadrature constructs the discrete direction (ordinate) sets that
// drive sweeps. Radiation transport codes use S_N angular quadratures whose
// directions are spread symmetrically over the unit sphere; the scheduling
// algorithms in this repository only consume the unit vectors, so we provide
// a level-symmetric-style S_N construction (k = N(N+2) directions) and
// simple octant-symmetric sets for arbitrary k.
package quadrature

import (
	"fmt"
	"math"

	"sweepsched/internal/geom"
)

// SN returns a level-symmetric-style S_N quadrature direction set with
// N(N+2) unit directions (N must be even and positive): N(N+2)/8 per octant,
// mirrored into all eight octants. The construction places directions on
// "levels" of constant polar cosine with equally spaced azimuthal points per
// level, matching the symmetry structure (though not the optimized weights,
// which scheduling does not use) of production S_N sets.
func SN(n int) ([]geom.Vec3, error) {
	if n <= 0 || n%2 != 0 {
		return nil, fmt.Errorf("quadrature: S_N order must be positive and even, got %d", n)
	}
	half := n / 2
	// Polar cosines for the positive-z half: Gauss-like equally spaced
	// midpoints, mu_l in (0, 1).
	octant := make([]geom.Vec3, 0, n*(n+2)/8)
	for l := 0; l < half; l++ {
		mu := (float64(l) + 0.5) / float64(half) // z component level
		nAzi := half - l                         // points per level in one octant
		sin := math.Sqrt(1 - mu*mu)
		for a := 0; a < nAzi; a++ {
			phi := (float64(a) + 0.5) / float64(nAzi) * (math.Pi / 2)
			octant = append(octant, geom.Vec3{
				X: sin * math.Cos(phi),
				Y: sin * math.Sin(phi),
				Z: mu,
			})
		}
	}
	dirs := make([]geom.Vec3, 0, 8*len(octant))
	for _, sx := range []float64{1, -1} {
		for _, sy := range []float64{1, -1} {
			for _, sz := range []float64{1, -1} {
				for _, d := range octant {
					dirs = append(dirs, geom.Vec3{X: sx * d.X, Y: sy * d.Y, Z: sz * d.Z})
				}
			}
		}
	}
	return dirs, nil
}

// SNWeights returns the S_N directions together with angular weights
// proportional to the solid angle each direction represents (per-level
// polar bands split evenly over the level's azimuthal points and the eight
// octants). Weights sum to 1. Scheduling ignores weights; the transport
// solver uses them to integrate the scalar flux.
func SNWeights(n int) ([]geom.Vec3, []float64, error) {
	dirs, err := SN(n)
	if err != nil {
		return nil, nil, err
	}
	half := n / 2
	// Per-octant weights in level-major order, matching SN's construction.
	octant := make([]float64, 0, len(dirs)/8)
	for l := 0; l < half; l++ {
		muLo := float64(l) / float64(half)
		muHi := float64(l+1) / float64(half)
		nAzi := half - l
		w := (muHi - muLo) / (8 * float64(nAzi))
		for a := 0; a < nAzi; a++ {
			octant = append(octant, w)
		}
	}
	weights := make([]float64, 0, len(dirs))
	for o := 0; o < 8; o++ {
		weights = append(weights, octant...)
	}
	return dirs, weights, nil
}

// OrderFor returns the smallest even S_N order whose direction count
// N(N+2) is at least k, along with that count.
func OrderFor(k int) (order, count int) {
	for n := 2; ; n += 2 {
		if n*(n+2) >= k {
			return n, n * (n + 2)
		}
	}
}

// Octant returns k directions obtained by taking an S_N set for the
// smallest sufficient order and keeping the first k directions in octant
// order. This yields symmetric direction sets for k ∈ {8, 24, 48, 80, ...}
// (the full S_2, S_4, S_6, S_8 sets) and balanced truncations otherwise.
func Octant(k int) ([]geom.Vec3, error) {
	if k <= 0 {
		return nil, fmt.Errorf("quadrature: need k > 0 directions, got %d", k)
	}
	order, _ := OrderFor(k)
	dirs, err := SN(order)
	if err != nil {
		return nil, err
	}
	// Interleave octants so truncation keeps the set spread out: take
	// direction j of octant o in round-robin order.
	perOct := len(dirs) / 8
	out := make([]geom.Vec3, 0, k)
	for j := 0; j < perOct && len(out) < k; j++ {
		for o := 0; o < 8 && len(out) < k; o++ {
			out = append(out, dirs[o*perOct+j])
		}
	}
	return out, nil
}

// Diagonals returns the up-to-8 signed diagonal directions (±1,±1,±1)/√3 in
// a stable order, truncated to k. These are the classic KBA sweep octant
// directions on regular grids.
func Diagonals(k int) ([]geom.Vec3, error) {
	if k <= 0 || k > 8 {
		return nil, fmt.Errorf("quadrature: diagonals support 1..8 directions, got %d", k)
	}
	s := 1 / math.Sqrt(3)
	all := make([]geom.Vec3, 0, 8)
	for _, sx := range []float64{1, -1} {
		for _, sy := range []float64{1, -1} {
			for _, sz := range []float64{1, -1} {
				all = append(all, geom.Vec3{X: sx * s, Y: sy * s, Z: sz * s})
			}
		}
	}
	return all[:k], nil
}
