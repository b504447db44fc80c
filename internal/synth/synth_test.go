package synth

import (
	"testing"
	"testing/quick"

	"sweepsched/internal/heuristics"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

func TestRandomChainsShape(t *testing.T) {
	dags, err := RandomChains(50, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dags) != 4 {
		t.Fatalf("got %d DAGs", len(dags))
	}
	for i, d := range dags {
		if err := d.Validate(); err != nil {
			t.Fatalf("dag %d: %v", i, err)
		}
		if d.NumLevels != 50 {
			t.Fatalf("dag %d: %d levels, want 50 (a chain)", i, d.NumLevels)
		}
		if d.NumEdges() != 49 {
			t.Fatalf("dag %d: %d edges, want 49", i, d.NumEdges())
		}
		if d.RemovedEdges != 0 {
			t.Fatalf("dag %d: chain needed cycle breaking?", i)
		}
	}
}

func TestRandomChainsIndependent(t *testing.T) {
	dags, _ := RandomChains(30, 2, 2)
	// Two independent random chains should differ.
	same := true
	for v := int32(0); v < 30 && same; v++ {
		a, b := dags[0].Out(v), dags[1].Out(v)
		if len(a) != len(b) {
			same = false
		} else if len(a) == 1 && a[0] != b[0] {
			same = false
		}
	}
	if same {
		t.Fatal("two random chains identical")
	}
}

func TestRandomChainsErrors(t *testing.T) {
	if _, err := RandomChains(1, 1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := RandomChains(5, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestLayeredRandomShape(t *testing.T) {
	dags, err := LayeredRandom(60, 3, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dags {
		if err := d.Validate(); err != nil {
			t.Fatalf("dag %d: %v", i, err)
		}
		// Width-10 layering of 60 cells: at least 6 levels.
		if d.NumLevels < 6 {
			t.Fatalf("dag %d: only %d levels", i, d.NumLevels)
		}
	}
}

func TestLayeredRandomErrors(t *testing.T) {
	if _, err := LayeredRandom(1, 1, 1, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := LayeredRandom(10, 1, 0, 0); err == nil {
		t.Fatal("width=0 accepted")
	}
}

func TestHeuristicTrapShape(t *testing.T) {
	const g, L, k = 5, 8, 4
	dags, err := HeuristicTrap(g, L, k, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dags {
		if err := d.Validate(); err != nil {
			t.Fatalf("dag %d: %v", i, err)
		}
		// Groups chained: the whole DAG is one chain of length g*L.
		if d.NumLevels != g*L {
			t.Fatalf("dag %d: %d levels, want %d", i, d.NumLevels, g*L)
		}
	}
}

func TestHeuristicTrapErrors(t *testing.T) {
	if _, err := HeuristicTrap(0, 1, 1, 0); err == nil {
		t.Fatal("g=0 accepted")
	}
	if _, err := HeuristicTrap(1, 1, 1, 0); err == nil {
		t.Fatal("1-cell instance accepted")
	}
}

func TestSchedulersRunOnSyntheticInstances(t *testing.T) {
	chains, err := RandomChains(40, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.FromDAGs(chains, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Chains of length n: OPT >= n. With k=m=4 the delays should keep the
	// makespan well under the serial nk bound.
	if s.Makespan >= inst.NTasks() {
		t.Fatalf("no parallelism at all: makespan %d = nk", s.Makespan)
	}
}

func TestQuickSynthValid(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw%40) + 5
		k := int(kRaw%4) + 1
		chains, err := RandomChains(n, k, seed)
		if err != nil {
			return false
		}
		for _, d := range chains {
			if d.Validate() != nil {
				return false
			}
		}
		layered, err := LayeredRandom(n, k, 5, seed)
		if err != nil {
			return false
		}
		for _, d := range layered {
			if d.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
