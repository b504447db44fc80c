package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the splitmix64 reference
	// implementation (Vigna).
	sm := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
		0xf88bb8a8724c81ec,
		0x1b39896a51a8749b,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("splitmix64[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64SeedSensitivity(t *testing.T) {
	a := NewSplitMix64(1).Next()
	b := NewSplitMix64(2).Next()
	if a == b {
		t.Fatalf("seeds 1 and 2 produced identical first outputs %#x", a)
	}
}

func TestSourceDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("stream diverged at %d: %#x vs %#x", i, x, y)
		}
	}
}

func TestSourceDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds matched %d/100 outputs", same)
	}
}

func TestSubstreamPureOfStateAndIndex(t *testing.T) {
	// Same parent state + same index => same stream, independent of the
	// order substreams are derived in and of later parent draws.
	a := New(11)
	b := New(11)
	s3a := a.Substream(3)
	_ = a.Substream(0) // derivation order must not matter
	s0b := b.Substream(0)
	_ = s0b
	s3b := b.Substream(3)
	for i := 0; i < 100; i++ {
		if s3a.Uint64() != s3b.Uint64() {
			t.Fatalf("substream 3 depends on derivation order (draw %d)", i)
		}
	}
	// Deriving must not advance the parent.
	p1, p2 := New(11), New(11)
	_ = p1.Substream(42)
	for i := 0; i < 100; i++ {
		if p1.Uint64() != p2.Uint64() {
			t.Fatalf("Substream advanced the parent (draw %d)", i)
		}
	}
}

func TestSubstreamsDistinct(t *testing.T) {
	parent := New(5)
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 256; i++ {
		v := parent.Substream(i).Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("substreams %d and %d share first draw %x", j, i, v)
		}
		seen[v] = i
	}
	// And substreams differ from the parent's own stream.
	p := New(5)
	if p.Substream(0).Uint64() == p.Uint64() {
		t.Fatal("substream 0 aliases the parent stream")
	}
}

func TestSubstreamShiftsWithParentState(t *testing.T) {
	p := New(17)
	before := p.Substream(1).Uint64()
	p.Uint64()
	after := p.Substream(1).Uint64()
	if before == after {
		t.Fatal("substream family did not change after advancing the parent")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 10, 1000, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const draws = 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d count %d far from expected %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(17)
	const n = 5
	counts := make([]int, n)
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*85/100 || c > want*115/100 {
			t.Fatalf("first element %d count %d far from %d", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const draws = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < draws; i++ {
		x := r.NormFloat64()
		sum += x
		sum2 += x * x
	}
	mean := sum / draws
	variance := sum2/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestLocalSqrtAgainstMath(t *testing.T) {
	for _, x := range []float64{0, 1e-9, 0.25, 1, 2, 9, 1e6} {
		got := sqrt(x)
		want := math.Sqrt(x)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("sqrt(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLocalLnAgainstMath(t *testing.T) {
	for _, x := range []float64{1e-6, 0.5, 1, 2, 2.718281828, 10, 12345.678} {
		got := ln(x)
		want := math.Log(x)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("ln(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestQuickIntnAlwaysInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000)
	}
	_ = sink
}
