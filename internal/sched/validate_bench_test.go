package sched

import (
	"testing"

	"sweepsched/internal/rng"
)

// BenchmarkValidate times the feasibility checks every plan pays — the
// unit Validate, the comm-delay pair (Validate + ValidateComm) and the
// weighted Validate — on the KuhnBox 8³ k=24 m=32 shape (73,728 tasks).
// Run with -benchmem: bytes/op is the garbage one plan's check leaves.
func BenchmarkValidate(b *testing.B) {
	inst := testInstance(b, 8, 24, 32, 1)
	r := rng.New(1)
	assign := RandomAssignment(inst.N(), inst.M, r)
	prio := levelPrio(inst, r)

	b.Run("unit", func(b *testing.B) {
		s, err := into(inst, assign, Rule{Prio: prio})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("comm", func(b *testing.B) {
		const commDelay = 3
		s, err := into(inst, assign, Rule{Prio: prio, CommDelay: commDelay})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
			if err := ValidateComm(s, commDelay); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("weighted", func(b *testing.B) {
		s, err := ListScheduleMachine(inst, assign, prio, randomWeights(inst.N(), r, 9), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
