package main

import (
	"math"
	"sort"

	"sweepsched/internal/rng"
	"sweepsched/internal/stats"
)

// The independent random streams every workload derives from -seed. A
// stream index never depends on the workload, so mesh #0 of seed 7 is
// the same mesh in plan-cell and in sweep-goroutine.
const (
	streamMesh uint64 = iota
	streamSchedule
	streamFault
	streamWeights
)

// deriveSeed is the fixed rule that turns the benchmark seed into the
// i-th seed of a stream: a pure function of (seed, stream, i).
func deriveSeed(seed, stream, i uint64) uint64 {
	return rng.New(seed).Substream(stream).Substream(i).Uint64()
}

// median is the statistic every timing is reported at.
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

// nearestRank is the p-th percentile by the nearest-rank rule; 0 for no
// samples.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rankOf(p, len(s)), 1)-1]
}

// rankOf is the nearest rank of the p-th percentile among n samples:
// ceil(p*n/100), less a hair so that 99.9 % of 10000 is 9990 and not the
// 9991 floating point makes of it.
func rankOf(p float64, n int) int { return int(math.Ceil(p*float64(n)/100 - 1e-9)) }

// tailLadder is the percentiles a timing may be reported at besides its
// median, lowest first.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of the ladder that still
// has at least ten samples beyond it, with its nearest-rank value. ok is
// false when even the lowest rung has fewer than ten samples beyond it
// (fewer than 40 samples), in which case only the median is reported.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	for _, p := range tailLadder {
		if len(xs)-rankOf(p, len(xs)) < 10 {
			break
		}
		pct, ok = p, true
	}
	if !ok {
		return 0, 0, false
	}
	return pct, nearestRank(xs, pct), true
}
