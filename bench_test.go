package sweepsched_test

// BenchmarkExperiments regenerates every paper figure and table (DESIGN.md,
// "Experiments and acceptance criteria") end to end — mesh generation, DAG
// induction, partitioning, scheduling, metrics — at a reduced mesh scale so
// `go test -bench=.` stays interactive. cmd/sweepbench runs the same figures
// with table output and paper-scale knobs.

import (
	"fmt"
	"io"
	"testing"

	"sweepsched"
	"sweepsched/internal/experiments"
)

// BenchmarkExperiments runs each experiment id as a sub-benchmark, a new
// seed per iteration.
func BenchmarkExperiments(b *testing.B) {
	for _, name := range experiments.Names() {
		b.Run(name, func(b *testing.B) {
			cfg := experiments.Config{Scale: 0.02, Procs: []int{2, 8, 32, 128}, Trials: 1, Out: io.Discard}
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if err := experiments.Run(name, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
