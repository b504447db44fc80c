package sweepsched_test

// One benchmark per paper figure/table (see the DESIGN.md per-experiment
// index). Each bench runs the corresponding experiment driver end to end —
// mesh generation, DAG induction, partitioning, scheduling, metrics — at a
// reduced mesh scale so `go test -bench=.` stays interactive. cmd/sweepbench
// runs the same drivers with table output and paper-scale knobs.

import (
	"fmt"
	"io"
	"testing"

	"sweepsched"
	"sweepsched/internal/experiments"
)

// benchConfig is the shared workload shape for the figure benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:  0.02,
		Seed:   1,
		Procs:  []int{2, 8, 32, 128},
		Trials: 1,
		Out:    io.Discard,
	}
}

func runExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if err := experiments.Run(name, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2aMakespanBlocks regenerates Figure 2(a): makespan of
// random-delay scheduling under cell vs block assignment on tetonly, k=24.
func BenchmarkFig2aMakespanBlocks(b *testing.B) { runExperiment(b, "fig2a") }

// BenchmarkFig2bCommCost regenerates Figure 2(b): C1 (interprocessor
// edges) and C2 (max off-proc outdegree rounds) under cell vs block
// assignment.
func BenchmarkFig2bCommCost(b *testing.B) { runExperiment(b, "fig2b") }

// BenchmarkFig2cPriorities regenerates Figure 2(c): Random Delays vs
// Random Delays with Priorities on the long mesh across k and m.
func BenchmarkFig2cPriorities(b *testing.B) { runExperiment(b, "fig2c") }

// BenchmarkFig3aLevel regenerates Figure 3(a): level priorities with and
// without random delays (long, block 64).
func BenchmarkFig3aLevel(b *testing.B) { runExperiment(b, "fig3a") }

// BenchmarkFig3bDescendant regenerates Figure 3(b): descendant priorities
// ± random delays vs the random-delays algorithm (tetonly, block 256).
func BenchmarkFig3bDescendant(b *testing.B) { runExperiment(b, "fig3b") }

// BenchmarkFig3cDFDS regenerates Figure 3(c): DFDS priorities ± random
// delays vs the random-delays algorithm (well_logging, block 128).
func BenchmarkFig3cDFDS(b *testing.B) { runExperiment(b, "fig3c") }

// BenchmarkSpeedupTable regenerates the §5.1 scaling observation: makespan
// ≤ 3·nk/m across meshes, directions and processor counts.
func BenchmarkSpeedupTable(b *testing.B) { runExperiment(b, "speedup") }

// BenchmarkGuaranteeRatios regenerates §5.1 observation 1: observed
// approximation ratios vs the O(log²n) and O(log m logloglog m) factors.
func BenchmarkGuaranteeRatios(b *testing.B) { runExperiment(b, "guarantee") }

// BenchmarkBlockTradeoff regenerates §5.1 observation 2: the block-size
// sweep trading makespan against C1/C2.
func BenchmarkBlockTradeoff(b *testing.B) { runExperiment(b, "blocks") }

// BenchmarkImprovedRandomDelay regenerates the §4.3 comparison of
// Algorithm 1 vs Algorithm 3.
func BenchmarkImprovedRandomDelay(b *testing.B) { runExperiment(b, "improved") }

// BenchmarkKBARegular regenerates the related-work sanity check: KBA on a
// regular grid vs the randomized algorithms.
func BenchmarkKBARegular(b *testing.B) { runExperiment(b, "kba") }

// BenchmarkCommDelay regenerates the §3/§5.1 uniform communication-cost
// extension: cell vs block assignment as c grows.
func BenchmarkCommDelay(b *testing.B) { runExperiment(b, "commdelay") }

// BenchmarkNonGeometric regenerates the §2 non-geometric applicability
// study on random chains, layered DAGs, and the heuristic trap.
func BenchmarkNonGeometric(b *testing.B) { runExperiment(b, "nongeom") }

// BenchmarkColorRounds regenerates the edge-coloring realization of the C2
// communication rounds (§5 ref [11]).
func BenchmarkColorRounds(b *testing.B) { runExperiment(b, "colorrounds") }

// BenchmarkAblateDelayRange ablates the delay range R (the paper draws
// X_i from {0..k-1}; this sweeps R around k).
func BenchmarkAblateDelayRange(b *testing.B) { runExperiment(b, "ablate_delay") }

// BenchmarkAblateAssignment ablates the assignment policy (random vs
// round-robin vs slabs vs multilevel blocks).
func BenchmarkAblateAssignment(b *testing.B) { runExperiment(b, "ablate_assign") }

// BenchmarkOptRatio measures true approximation ratios against the exact
// optimum on tiny instances.
func BenchmarkOptRatio(b *testing.B) { runExperiment(b, "optratio") }

// BenchmarkAcceptance runs the machine-checkable acceptance criteria
// distilled from the paper's claims.
func BenchmarkAcceptance(b *testing.B) { runExperiment(b, "accept") }

// BenchmarkWeighted runs the heterogeneous-cell-cost extension (log-normal
// weights, weight-aware balanced partition vs random assignment).
func BenchmarkWeighted(b *testing.B) { runExperiment(b, "weighted") }

// BenchmarkIdleAnalysis quantifies the §4.2 idle time Algorithm 2's
// compaction removes from Algorithm 1's layer barriers.
func BenchmarkIdleAnalysis(b *testing.B) { runExperiment(b, "idle") }

// BenchmarkMeshCharacter tabulates the structural character of the four
// synthetic mesh families (cells, faces, DAG depth, level widths).
func BenchmarkMeshCharacter(b *testing.B) { runExperiment(b, "meshes") }

// BenchmarkPipelineEndToEnd measures the full public-API pipeline on one
// mid-size instance: mesh generation through validated schedule.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := sweepsched.NewProblemFromFamily("tetonly", 0.05, 24, 32, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{
			BlockSize: 64,
			Seed:      uint64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportSolve measures the end application: an S_N transport
// source iteration driven by a schedule (serial executor).
func BenchmarkTransportSolve(b *testing.B) {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.03, 8, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sweepsched.TransportConfig{SigmaT: 1, SigmaS: 0.5, Source: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveTransport(res, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule sweeps the Workers knob over a k=24-direction instance
// for the descendant scheduler (its counts are built by the first plan and
// copied by the rest, so the fan-out that is left is the per-direction copy
// and the metrics); workers=1 is the serial baseline the parallel rows are
// compared against.
// The schedule is bit-identical across rows (see TestTraceDeterminism);
// only wall-clock changes.
func BenchmarkSchedule(b *testing.B) {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.05, 24, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Schedule(sweepsched.Descendant, sweepsched.ScheduleOptions{
					Seed:    uint64(i + 1),
					Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScheduleOnly isolates scheduling cost (mesh and DAGs prebuilt).
func BenchmarkScheduleOnly(b *testing.B) {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.05, 24, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
