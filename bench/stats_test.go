package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the functions must sort
	}
	return xs
}

// A timing is reported at the median of its samples, with the count.
func TestTimingIsTheMedian(t *testing.T) {
	if got := timing("s", ramp(5)); got.Value != 3 || got.Samples != 5 || got.Unit != "s" {
		t.Errorf("timing of 1..5 = %+v, want the median 3 of 5 samples", got)
	}
	if got := timing("s", ramp(4)); got.Value != 2.5 {
		t.Errorf("timing of 1..4 = %v, want 2.5", got.Value)
	}
	if got := timing("s", ramp(100)); got.TailPct != 90 || got.Tail != 90 {
		t.Errorf("timing of 1..100 reports tail p%v = %v, want p90 = 90", got.TailPct, got.Tail)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct, v  float64
		present bool
	}{
		{39, 0, 0, false},    // p75 of 39 leaves 9 beyond
		{40, 75, 30, true},   // p75 of 40 leaves exactly 10
		{99, 75, 75, true},   // p90 of 99 leaves 9
		{100, 90, 90, true},  // p90 leaves 10, p95 leaves 5
		{200, 95, 190, true}, // p95 leaves 10, p99 leaves 2
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		pct, v, ok := tailPercentile(ramp(c.n))
		if ok != c.present || pct != c.pct || v != c.v {
			t.Errorf("tailPercentile(%d samples) = p%v %v %v, want p%v %v %v", c.n, pct, v, ok, c.pct, c.v, c.present)
		}
	}
}

// Seeds are a pure function of (seed, stream, index): the same everywhere
// and every time, and different when any of the three differs.
func TestDeriveSeed(t *testing.T) {
	seen := map[uint64]string{}
	for _, seed := range []uint64{1, 2} {
		for stream := streamMesh; stream <= streamWeights; stream++ {
			for i := uint64(0); i < 4; i++ {
				got := deriveSeed(seed, stream, i)
				if again := deriveSeed(seed, stream, i); again != got {
					t.Fatalf("deriveSeed(%d,%d,%d) is not deterministic", seed, stream, i)
				}
				key := string(rune('a'+seed)) + string(rune('a'+stream)) + string(rune('a'+i))
				if prev, dup := seen[got]; dup {
					t.Errorf("deriveSeed gives %s and %s the same seed", prev, key)
				}
				seen[got] = key
			}
		}
	}
}

// The steal scaling: wall time times the granted share of the demanded
// CPU time, or less the stolen time when the program mostly waits; a
// stolen second counts 1+preemptionCost; exactly 1 without steal.
func TestTimeScale(t *testing.T) {
	k := 1 + preemptionCost
	for _, c := range []struct {
		name              string
		wall, busy, steal float64
		want              float64
	}{
		{"no steal", 2, 1.7, 0, 1},
		{"no accounting", 2, 0, 0, 1},
		{"one busy thread loses 0.5 s", 1.5, 1.0, 0.5, 1.0 / (1.0 + 0.5*k)},
		{"two busy threads lose 0.5 s each", 1.5, 2.0, 1.0, 2.0 / (2.0 + 1.0*k)},
		{"a waiting program is delayed by what is stolen", 3, 0.2, 0.6, (3 - 0.6*k) / 3},
	} {
		if got := timeScale(c.wall, c.busy, c.steal); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("%s: timeScale(%v, %v, %v) = %v, want %v", c.name, c.wall, c.busy, c.steal, got, c.want)
		}
	}
	// Where demand is exactly one CPU the two rules meet.
	busy := 2 - 0.5*k
	if at, below := timeScale(2, busy, 0.5), timeScale(2, busy-1e-9, 0.5); at-below > 1e-6 || below-at > 1e-6 {
		t.Errorf("the rules do not meet at a demand of one CPU: %v and %v", at, below)
	}
}
