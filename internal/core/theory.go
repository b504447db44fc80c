package core

import "math"

// The approximation factors of §4's guarantees, which the "guarantee"
// experiment prints beside the measured ratios.

// Rho returns ρ = log m · logloglog m, the approximation factor of the
// improved analysis (values of m below e^e^e clamp the inner term at 1).
func Rho(m int) float64 {
	if m < 2 {
		return 1
	}
	lm := math.Log(float64(m))
	lll := 1.0
	if ll := math.Log(lm); ll > 1 {
		if l3 := math.Log(ll); l3 > 1 {
			lll = l3
		}
	}
	return lm * lll
}

// Log2Sq returns log²n, the Theorem 1 approximation factor, for reporting.
func Log2Sq(n int) float64 {
	if n < 2 {
		return 1
	}
	l := math.Log2(float64(n))
	return l * l
}
