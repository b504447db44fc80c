package verify_test

import (
	"testing"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

// The audit benchmarks run on the KuhnBox 8³ k=24 m=32 shape (73,728
// tasks), the same one internal/sched's BenchmarkValidate uses. Run with
// -benchmem: bytes/op is what one sampled audit allocates.

func BenchmarkVerifySchedule(b *testing.B) {
	inst := meshInstance(b, 8, 24, 32, 1)
	s, err := sched.ListSchedule(inst, sched.RandomAssignment(inst.N(), inst.M, rng.New(1)), nil)
	if err != nil {
		b.Fatal(err)
	}
	metrics := sched.Measure(s, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verify.Schedule(inst, s, verify.Opts{Metrics: &metrics}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyWeighted(b *testing.B) {
	inst := meshInstance(b, 8, 24, 32, 1)
	assign := sched.RandomAssignment(inst.N(), inst.M, rng.New(1))
	s, err := sched.ListScheduleMachine(inst, assign, nil, testWeights(inst.N(), 2, 9), heteroModel(inst.M))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verify.Weighted(inst, s); err != nil {
			b.Fatal(err)
		}
	}
}
