// Package rng provides small, fast, deterministic pseudo-random number
// generators for reproducible scheduling experiments.
//
// The package intentionally avoids math/rand so that experiment outputs are
// stable across Go releases: the exact bit streams of splitmix64 and
// xoshiro256** are fixed by their reference definitions and will never
// change underneath us.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny 64-bit state generator, used mostly to seed other
//     generators and to derive independent streams from a master seed.
//   - Xoshiro256: the xoshiro256** generator, the workhorse used by all
//     randomized algorithms in this repository.
//
// Derived streams (see New and (*Source).Substream) let each mesh, direction
// set and algorithm invocation draw from statistically independent sequences
// while remaining a pure function of the master experiment seed.
package rng

import "math/bits"

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. Its zero
// value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the splitmix64 sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; derive a Substream per goroutine instead, which is both
// faster and reproducible regardless of scheduling order.
type Source struct {
	s [4]uint64
}

// New returns a Source whose state is derived from seed via splitmix64, as
// recommended by the xoshiro authors (avoids the all-zero state and
// decorrelates nearby seeds).
func New(seed uint64) *Source {
	sm := NewSplitMix64(seed)
	var src Source
	for i := range src.s {
		src.s[i] = sm.Next()
	}
	// The all-zero state is invalid (it is a fixed point). splitmix64 cannot
	// produce four consecutive zeros, but keep the guard for clarity.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Substream derives the i-th member of a family of independent child
// streams as a pure function of r's *current* state and i, without
// advancing r: Substream(i) gives the same stream no matter when — or from
// which goroutine's loop iteration — it is derived.
// This is the primitive behind per-direction randomness in parallel
// regions: draws are identical at Workers=1 and Workers=N because each
// direction's stream depends only on (parent state, direction index).
//
// The caller is responsible for advancing r afterwards (a single Uint64
// draw suffices) if a later Substream family must differ from this one.
func (r *Source) Substream(i uint64) *Source {
	// Digest the four state words and the stream index through splitmix64;
	// each absorb step is a full avalanche, so nearby (state, i) pairs give
	// decorrelated seeds.
	d := NewSplitMix64(r.s[0])
	d.state ^= d.Next() ^ r.s[1]
	d.state ^= d.Next() ^ r.s[2]
	d.state ^= d.Next() ^ r.s[3]
	d.state ^= d.Next() ^ (i+1)*0x9e3779b97f4a7c15
	return New(d.Next())
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method, which is unbiased.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normally distributed float64 using the
// Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * sqrt(-2*ln(s)/s)
	}
}

// Perm returns a uniformly random permutation of [0, n) as a slice.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// sqrt and ln are tiny local implementations so that this package has zero
// dependencies beyond math/bits; they are only used by NormFloat64, which is
// not on any hot path.

func sqrt(x float64) float64 {
	if x < 0 {
		return nan()
	}
	if x == 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func ln(x float64) float64 {
	if x <= 0 {
		return nan()
	}
	// Normalize x into [1, 2) and accumulate ln 2 per halving/doubling.
	const ln2 = 0.6931471805599453
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	// atanh series: ln x = 2 atanh((x-1)/(x+1)).
	y := (x - 1) / (x + 1)
	y2 := y * y
	term := y
	sum := 0.0
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= y2
	}
	return 2*sum + float64(k)*ln2
}

func nan() float64 {
	var zero float64
	return zero / zero
}
