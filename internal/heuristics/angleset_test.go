package heuristics

import (
	"testing"

	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/verify"
)

func hexInstance(t testing.TB, nx, k, m int) *sched.Instance {
	t.Helper()
	msh := mesh.RegularHex(nx, nx, nx)
	dirs, err := quadrature.Octant(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// runInto runs the named scheduler's rule, angleset-aggregated with
// groups, into dst.
func runInto(ws *sched.Workspace, dst *sched.Schedule, name Name, inst *sched.Instance, assign sched.Assignment, groups [][]int32, r *rng.Source, workers int) error {
	rule, err := Rule(ws, name, inst, assign, groups, r, workers)
	if err != nil {
		return err
	}
	return ws.Schedule(dst, inst, assign, rule)
}

// runAngleset is runInto on a pooled workspace and a new schedule.
func runAngleset(name Name, inst *sched.Instance, assign sched.Assignment, groups [][]int32, r *rng.Source, workers int) (*sched.Schedule, error) {
	ws := sched.GetWorkspace(inst)
	defer ws.Release()
	dst := &sched.Schedule{}
	if err := runInto(ws, dst, name, inst, assign, groups, r, workers); err != nil {
		return nil, err
	}
	return dst, nil
}

// TestRunAnglesetMatchesPerDirectionOnHex: on a regular hex mesh every
// octant's member DAGs are identical, so the representative priorities
// ARE the per-direction priorities and the aggregated runner must
// reproduce the per-direction runner bitwise for the deterministic
// schedulers.
func TestRunAnglesetMatchesPerDirectionOnHex(t *testing.T) {
	inst := hexInstance(t, 4, 16, 4)
	groups, err := quadrature.AnglesetsByOctant(16)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	for _, name := range []Name{Level, Descendant, DFDS} {
		got, err := runAngleset(name, inst, assign, groups, rng.New(1), 1)
		if err != nil {
			t.Fatalf("%s aggregated: %v", name, err)
		}
		want, err := Run(name, inst, assign, rng.New(1), 1)
		if err != nil {
			t.Fatalf("%s per-direction: %v", name, err)
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("%s: aggregated makespan %d != per-direction %d", name, got.Makespan, want.Makespan)
		}
		for i := range want.Start {
			if got.Start[i] != want.Start[i] {
				t.Fatalf("%s: start[%d] = %d, want %d", name, i, got.Start[i], want.Start[i])
			}
		}
	}
}

// TestRunAnglesetAllValid: every aggregation-capable scheduler yields a
// schedule that passes both its own validation and the angleset audit
// (true-DAG precedence per member direction) on an unstructured mesh,
// and the delay variants are deterministic in the rng seed.
func TestRunAnglesetAllValid(t *testing.T) {
	inst := testInstance(t, 3, 12, 4, 6)
	groups, err := quadrature.AnglesetsByOctant(12)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	names := []Name{RandomDelaysPriority, Level, LevelDelays, Descendant, DescendantDelays, DFDS, DFDSDelays}
	for _, name := range names {
		s, err := runAngleset(name, inst, assign, groups, rng.New(21), 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.Schedule(inst, s, verify.Opts{Anglesets: groups}); err != nil {
			t.Fatalf("%s: angleset audit: %v", name, err)
		}
		again, err := runAngleset(name, inst, assign, groups, rng.New(21), 2)
		if err != nil {
			t.Fatalf("%s rerun: %v", name, err)
		}
		for i := range s.Start {
			if s.Start[i] != again.Start[i] {
				t.Fatalf("%s: nondeterministic at task %d", name, i)
			}
		}
	}
}

// TestRunAnglesetRejects: random_delays and improved_delays, unknown names
// and malformed partitions are refused.
func TestRunAnglesetRejects(t *testing.T) {
	inst := testInstance(t, 2, 4, 2, 1)
	groups, err := quadrature.AnglesetsByOctant(4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	assign := sched.RandomAssignment(inst.N(), inst.M, r)
	for _, name := range []Name{RandomDelays, ImprovedDelays} {
		if _, err := runAngleset(name, inst, assign, groups, r, 1); err == nil {
			t.Fatalf("%s accepted aggregated execution", name)
		}
	}
	if _, err := runAngleset(Name("nope"), inst, assign, groups, r, 1); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := runAngleset(Level, inst, assign, [][]int32{{0}}, r, 1); err == nil {
		t.Fatal("partial partition accepted")
	}
}
