package core

// Empirical verification of the §4 analysis on real workloads: the random
// delays and random assignment must produce the concentration behaviour
// Lemmas 2 and 3 claim, since the whole approximation guarantee rests on
// it.

import (
	"math"
	"testing"

	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// lemmaInstance builds a mesh workload big enough for the concentration
// statements to be meaningful.
func lemmaInstance(t *testing.T, m int) *sched.Instance {
	t.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 6, NY: 6, NZ: 6, Jitter: 0.15, Seed: 77})
	dirs, err := quadrature.Octant(16)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestLemma2CopyCountPerLayer: for every cell v and combined layer r, the
// number of copies of v in layer r should be O(log n) — and its expectation
// is at most 1 (each of the k copies lands in a given layer with
// probability <= 1/k).
func TestLemma2CopyCountPerLayer(t *testing.T) {
	inst := lemmaInstance(t, 8)
	n := inst.N()
	k := inst.K()
	logn := math.Log(float64(n))
	r := rng.New(101)

	worst := 0
	var sumMax float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		delays := Delays(k, r)
		// copies[r*n+v] would be large; count per (layer, cell) via map of
		// layer -> per-cell counts reused across layers is heavy; instead
		// exploit that a cell's copy lands in layer Level_i(v)+X_i: count,
		// per cell, collisions among its k layer values.
		layerOf := make([]int32, k)
		counts := map[int32]int{}
		for v := int32(0); v < int32(n); v++ {
			for i, d := range inst.DAGs {
				layerOf[i] = d.Level[v] + delays[i]
			}
			for key := range counts {
				delete(counts, key)
			}
			maxHere := 0
			for _, l := range layerOf {
				counts[l]++
				if counts[l] > maxHere {
					maxHere = counts[l]
				}
			}
			if maxHere > worst {
				worst = maxHere
			}
		}
		sumMax += float64(worst)
	}
	// Lemma 2: with high probability max copies <= alpha log n. Our alpha
	// here is generous (3) — what must NOT happen is copies ~ k.
	bound := 3 * logn
	if float64(worst) > bound {
		t.Fatalf("max copies per layer %d exceeds 3·ln n = %.1f", worst, bound)
	}
	if worst >= k {
		t.Fatalf("all %d copies of some cell collided in one layer", k)
	}
}

// TestLemma3LayerLoadPerProcessor: for every combined layer and processor,
// the number of layer tasks on that processor should stay within
// O(max(|V_r|/m, 1) · polylog); we check the practical form the makespan
// argument needs: layer work / (|L_r|/m + 1) bounded by a modest factor.
func TestLemma3LayerLoadPerProcessor(t *testing.T) {
	inst := lemmaInstance(t, 16)
	n := int32(inst.N())
	k := inst.K()
	r := rng.New(202)
	delays := Delays(k, r)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)

	// Layer sizes and per-(layer, proc) loads.
	layerSize := map[int32]int{}
	load := map[[2]int32]int{}
	for i, d := range inst.DAGs {
		for v := int32(0); v < n; v++ {
			l := d.Level[v] + delays[i]
			layerSize[l]++
			load[[2]int32{l, assign[v]}]++
		}
	}
	logn := math.Log(float64(inst.N()))
	worstFactor := 0.0
	for key, c := range load {
		expected := float64(layerSize[key[0]])/float64(inst.M) + 1
		factor := float64(c) / expected
		if factor > worstFactor {
			worstFactor = factor
		}
	}
	// Lemma 3's bound is O(log² n) over the expectation; in practice the
	// factor is small. Catch regressions at 2·ln n.
	if worstFactor > 2*logn {
		t.Fatalf("worst per-processor layer load factor %.2f exceeds 2·ln n = %.2f",
			worstFactor, 2*logn)
	}
}

// TestExpectedCopiesAtMostOne verifies E[N_{r,v}] <= 1 (the first step of
// Lemma 2's proof) by averaging over many delay draws.
func TestExpectedCopiesAtMostOne(t *testing.T) {
	inst := lemmaInstance(t, 4)
	k := inst.K()
	r := rng.New(303)
	// Pick a few (cell, layer) pairs and estimate the expected copy count.
	const trials = 400
	type probe struct {
		v int32
		l int32
	}
	probes := []probe{{0, 5}, {100, 10}, {500, 8}, {900, 12}}
	counts := make([]float64, len(probes))
	for trial := 0; trial < trials; trial++ {
		delays := Delays(k, r)
		for pi, pr := range probes {
			c := 0
			for i, d := range inst.DAGs {
				if d.Level[pr.v]+delays[i] == pr.l {
					c++
				}
			}
			counts[pi] += float64(c)
		}
	}
	for pi, sum := range counts {
		mean := sum / trials
		// E <= 1 with statistical slack (stderr ~ sqrt(1/400) ≈ 0.05).
		if mean > 1.25 {
			t.Fatalf("probe %d: expected copies %.3f > 1 + slack", pi, mean)
		}
	}
}

// TestMakespanTracksLemma4Decomposition: the Algorithm 1 makespan equals
// the sum over layers of the per-layer maximum processor load — the
// identity the Lemma 4 proof sums over.
func TestMakespanTracksLemma4Decomposition(t *testing.T) {
	inst := lemmaInstance(t, 8)
	n := int32(inst.N())
	k := inst.K()
	seed := uint64(404)
	r := rng.New(seed)
	delays := Delays(k, r)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)

	// Algorithm 1's layers, level_i(v) + X_i with the delays drawn before
	// the assignment as random_delays draws them, run on the layered kernel.
	layer := make(sched.Priorities, inst.NTasks())
	for i, d := range inst.DAGs {
		base := int32(i) * n
		for v := int32(0); v < n; v++ {
			layer[base+v] = int64(d.Level[v] + delays[i])
		}
	}
	ws := sched.NewWorkspace()
	floor := make([]int32, inst.NTasks())
	if err := sched.LayerFloorsInto(ws, floor, inst, assign, layer); err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{}
	if err := ws.Schedule(s, inst, assign, sched.Rule{Prio: layer, Release: floor, Layered: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Sum of per-layer max loads.
	load := map[[2]int64]int32{}
	maxPerLayer := map[int64]int32{}
	for tid, l := range layer {
		v, _ := inst.Split(sched.TaskID(tid))
		key := [2]int64{l, int64(assign[v])}
		load[key]++
		if load[key] > maxPerLayer[l] {
			maxPerLayer[l] = load[key]
		}
	}
	var want int32
	for _, mx := range maxPerLayer {
		want += mx
	}
	if int32(s.Makespan) != want {
		t.Fatalf("layered makespan %d != Σ per-layer max load %d", s.Makespan, want)
	}
}
