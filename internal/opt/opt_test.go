package opt

import (
	"testing"

	"sweepsched/internal/core"
	"sweepsched/internal/dag"
	"sweepsched/internal/lb"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/synth"
)

// chainDAG builds a single chain 0->1->...->n-1.
func chainDAG(t *testing.T, n int) *dag.DAG {
	t.Helper()
	edges := make([][2]int32, n-1)
	for i := 0; i+1 < n; i++ {
		edges[i] = [2]int32{int32(i), int32(i + 1)}
	}
	d, err := dag.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// emptyDAG builds n independent cells.
func emptyDAG(t *testing.T, n int) *dag.DAG {
	t.Helper()
	d, err := dag.FromEdges(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExactChain(t *testing.T) {
	// One chain of 5 cells: OPT = 5 regardless of m.
	d := chainDAG(t, 5)
	for _, m := range []int{1, 2, 3} {
		inst, err := sched.FromDAGs([]*dag.DAG{d}, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exact(inst)
		if err != nil {
			t.Fatal(err)
		}
		if got != 5 {
			t.Fatalf("m=%d: OPT=%d, want 5", m, got)
		}
	}
}

func TestExactIndependent(t *testing.T) {
	// 6 independent cells, 1 direction: OPT = ceil(6/m).
	d := emptyDAG(t, 6)
	for m, want := range map[int]int{1: 6, 2: 3, 3: 2, 6: 1, 8: 1} {
		inst, err := sched.FromDAGs([]*dag.DAG{d}, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Exact(inst)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("m=%d: OPT=%d, want %d", m, got, want)
		}
	}
}

func TestExactPinningConstraintBites(t *testing.T) {
	// 2 cells, 2 directions, no edges: 4 tasks. With m=2 and the pinning
	// constraint, both copies of a cell share its processor, so OPT = 2
	// (not 1, which unpinned scheduling of 4 tasks on 4 procs would give).
	d1 := emptyDAG(t, 2)
	d2 := emptyDAG(t, 2)
	inst, err := sched.FromDAGs([]*dag.DAG{d1, d2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("OPT=%d, want 2 (pinning forces k steps per cell)", got)
	}
}

func TestExactOpposingChains(t *testing.T) {
	// Two directions over 3 cells: chain 0->1->2 and reversed 2->1->0.
	// OPT >= k + D - 1? Let's verify against brute force logic: Exact
	// should at least satisfy the generic lower bounds.
	e1 := [][2]int32{{0, 1}, {1, 2}}
	e2 := [][2]int32{{2, 1}, {1, 0}}
	d1, err := dag.FromEdges(3, e1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dag.FromEdges(3, e2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs([]*dag.DAG{d1, d2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exact(inst)
	if err != nil {
		t.Fatal(err)
	}
	b := lb.Compute(inst)
	if got < b.Max() {
		t.Fatalf("OPT=%d below lower bound %d", got, b.Max())
	}
	// Both chains have length 3 and share cells; 4 steps suffice
	// (run chain 1 fully while interleaving chain 2's reversal): verify the
	// solver found something <= 2*3 (serial).
	if got > 6 {
		t.Fatalf("OPT=%d exceeds serial bound 6", got)
	}
}

func TestExactRejectsLargeInstances(t *testing.T) {
	d := emptyDAG(t, MaxTasks+1)
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Exact(inst); err == nil {
		t.Fatal("oversized instance accepted")
	}
}

func TestExactGivenAssignmentSerialOnOneProc(t *testing.T) {
	d := emptyDAG(t, 4)
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ExactGivenAssignment(inst, sched.Assignment{0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ms != 4 {
		t.Fatalf("all-on-one OPT=%d, want 4", ms)
	}
	ms, err = ExactGivenAssignment(inst, sched.Assignment{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ms != 2 {
		t.Fatalf("split OPT=%d, want 2", ms)
	}
}

func TestExactGivenAssignmentValidates(t *testing.T) {
	d := emptyDAG(t, 3)
	inst, err := sched.FromDAGs([]*dag.DAG{d}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExactGivenAssignment(inst, sched.Assignment{0, 9, 0}); err == nil {
		t.Fatal("bad assignment accepted")
	}
}

func TestLowerBoundsNeverExceedOPT(t *testing.T) {
	// On random tiny instances, every lower bound must hold: LB <= OPT.
	for seed := uint64(1); seed <= 8; seed++ {
		dags, err := synth.LayeredRandom(5, 3, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sched.FromDAGs(dags, 2)
		if err != nil {
			t.Fatal(err)
		}
		optimal, err := Exact(inst)
		if err != nil {
			t.Fatal(err)
		}
		if b := lb.Compute(inst); b.Max() > optimal {
			t.Fatalf("seed %d: lower bound %d exceeds OPT %d", seed, b.Max(), optimal)
		}
	}
}

func TestAlgorithmsNeverBeatOPT(t *testing.T) {
	// The provable algorithms' makespans must always be >= OPT, and on tiny
	// instances their true ratio should be small.
	worst := 0.0
	for seed := uint64(1); seed <= 6; seed++ {
		dags, err := synth.RandomChains(4, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sched.FromDAGs(dags, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.RandomDelayPriorities(inst, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ratio, err := TrueRatio(s)
		if err != nil {
			t.Fatal(err)
		}
		if ratio < 1 {
			t.Fatalf("seed %d: algorithm beat OPT (ratio %v)", seed, ratio)
		}
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > 2.5 {
		t.Fatalf("true approximation ratio %v too large on tiny chains", worst)
	}
}

func BenchmarkExactTiny(b *testing.B) {
	dags, err := synth.LayeredRandom(5, 3, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := sched.FromDAGs(dags, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(inst); err != nil {
			b.Fatal(err)
		}
	}
}
