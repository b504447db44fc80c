package transport

import (
	"context"
	"math"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/sched"
)

func twoGroupConfig() MultigroupConfig {
	return MultigroupConfig{
		Groups: []GroupSpec{
			{SigmaT: 1.0, Source: 1.0},
			{SigmaT: 0.8, Source: 0.2},
		},
		Scatter: [][]float64{
			{0.3, 0.4}, // group 0: within 0.3, down to group 1: 0.4
			{0.0, 0.5}, // group 1: within 0.5
		},
		Tol: 1e-11,
	}
}

func TestMultigroupValidation(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 61)
	bad := twoGroupConfig()
	bad.Scatter[1][0] = 0.1 // upscatter
	if _, err := SolveMultigroup(s, bad); err == nil {
		t.Fatal("upscatter accepted")
	}
	bad2 := twoGroupConfig()
	bad2.Scatter[0][0] = 2.0 // supercritical
	if _, err := SolveMultigroup(s, bad2); err == nil {
		t.Fatal("supercritical within-group scatter accepted")
	}
	bad3 := twoGroupConfig()
	bad3.Scatter = bad3.Scatter[:1]
	if _, err := SolveMultigroup(s, bad3); err == nil {
		t.Fatal("ragged scatter matrix accepted")
	}
	if _, err := SolveMultigroup(s, MultigroupConfig{}); err == nil {
		t.Fatal("empty group list accepted")
	}
}

func TestMultigroupIsolatedCellAnalytic(t *testing.T) {
	// Isolated cell, 2 groups, downscatter chain has a closed form:
	//   φ0 = q0 / (1 + σt0 − σs00)
	//   φ1 = (q1 + σs01·φ0) / (1 + σt1 − σs11)
	d, err := dag.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{Inst: inst, Assign: sched.Assignment{0}, Start: []int32{0}, Makespan: 1}
	cfg := twoGroupConfig()
	res, err := SolveMultigroup(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("not converged")
	}
	phi0 := cfg.Groups[0].Source / (1 + cfg.Groups[0].SigmaT - cfg.Scatter[0][0])
	phi1 := (cfg.Groups[1].Source + cfg.Scatter[0][1]*phi0) / (1 + cfg.Groups[1].SigmaT - cfg.Scatter[1][1])
	if math.Abs(res.Phi[0][0]-phi0) > 1e-9 {
		t.Fatalf("group 0 flux %v, want %v", res.Phi[0][0], phi0)
	}
	if math.Abs(res.Phi[1][0]-phi1) > 1e-9 {
		t.Fatalf("group 1 flux %v, want %v", res.Phi[1][0], phi1)
	}
}

func TestMultigroupOnMesh(t *testing.T) {
	s := testSchedule(t, 3, 8, 4, 62)
	res, err := SolveMultigroup(s, twoGroupConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Phi) != 2 {
		t.Fatalf("result %+v", res.Iterations)
	}
	// Downscatter feeds group 1, so its flux must exceed the flux of a
	// standalone group-1 solve without the coupling.
	solo, err := SolveCtx(context.Background(), s, Config{
		SigmaT: 0.8, SigmaS: 0.5, Source: 0.2, Tol: 1e-11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range solo.Phi {
		if res.Phi[1][v] <= solo.Phi[v] {
			t.Fatalf("cell %d: coupled group-1 flux %v not above uncoupled %v",
				v, res.Phi[1][v], solo.Phi[v])
		}
	}
}

func TestSourceFieldOverridesUniform(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 63)
	n := s.Inst.N()
	field := make([]float64, n)
	for v := range field {
		field[v] = 2.0
	}
	cfg := testCfg
	cfg.Source = 123456 // must be ignored when SourceField is set
	cfg.SourceField = field
	withField, err := SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uniform := testCfg
	uniform.Source = 2.0
	want, err := SolveCtx(context.Background(), s, uniform)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want.Phi {
		if withField.Phi[v] != want.Phi[v] {
			t.Fatalf("cell %d: field flux %v != uniform flux %v", v, withField.Phi[v], want.Phi[v])
		}
	}
	// Negative sources rejected.
	cfg.SourceField[0] = -1
	if _, err := SolveCtx(context.Background(), s, cfg); err == nil {
		t.Fatal("negative source accepted")
	}
}

func TestSourceFieldParallelMatches(t *testing.T) {
	s := testSchedule(t, 2, 4, 2, 64)
	n := s.Inst.N()
	field := make([]float64, n)
	for v := range field {
		field[v] = float64(v%3) + 0.5
	}
	cfg := testCfg
	cfg.SourceField = field
	serial, err := SolveCtx(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := solveParallel(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for v := range serial.Phi {
		if serial.Phi[v] != par.Phi[v] {
			t.Fatalf("cell %d differs with source field", v)
		}
	}
}
