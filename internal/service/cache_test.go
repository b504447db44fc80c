package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sweepsched"
	"sweepsched/internal/partition"
)

func TestLRUBasics(t *testing.T) {
	l := newLRU(100)
	if _, ok := l.get("a"); ok {
		t.Fatal("empty LRU returned a value")
	}
	l.put("a", 1, 40)
	l.put("b", 2, 40)
	if v, ok := l.get("a"); !ok || v.(int) != 1 {
		t.Fatalf("get(a) = %v, %v", v, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	l.put("c", 3, 40)
	if _, ok := l.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := l.get(k); !ok {
			t.Fatalf("%s was evicted, want it resident", k)
		}
	}
	st := l.stats()
	if st.Entries != 2 || st.Bytes != 80 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 80 bytes / 1 eviction", st)
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	l := newLRU(100)
	l.put("a", 1, 30)
	l.put("a", 2, 50)
	if v, _ := l.get("a"); v.(int) != 2 {
		t.Fatalf("updated value = %v, want 2", v)
	}
	if st := l.stats(); st.Bytes != 50 || st.Entries != 1 {
		t.Fatalf("stats after update = %+v, want 50 bytes / 1 entry", st)
	}
}

func TestLRUOversizedValueNotCached(t *testing.T) {
	l := newLRU(100)
	l.put("huge", 1, 101)
	if _, ok := l.get("huge"); ok {
		t.Fatal("value larger than the whole budget was cached")
	}
	if st := l.stats(); st.Bytes != 0 {
		t.Fatalf("bytes = %d after rejecting oversized value", st.Bytes)
	}
}

func TestLRUDisabled(t *testing.T) {
	l := newLRU(0)
	l.put("a", 1, 1)
	if _, ok := l.get("a"); ok {
		t.Fatal("limit<=0 tier cached a value")
	}
}

func TestLRUEvictionCascade(t *testing.T) {
	l := newLRU(100)
	for i := 0; i < 10; i++ {
		l.put(fmt.Sprintf("k%d", i), i, 10)
	}
	// One 95-byte value must push out everything but itself.
	l.put("big", "x", 95)
	st := l.stats()
	if st.Entries != 1 || st.Bytes != 95 {
		t.Fatalf("stats = %+v, want only the big entry resident", st)
	}
	if _, ok := l.get("big"); !ok {
		t.Fatal("big entry missing after cascade")
	}
}

// TestFamilyBytesCountsDAGFacts: a cached family grows after it was sized
// — the first descendant or DFDS plan leaves a level order, b-levels and
// descendant counts on every DAG, the first list-scheduled plan the task
// graph on the instance — so the estimate charges them up front: 16 bytes
// per task for the facts and about 16 per task (an offset, a slot, and a
// successor for each of ≈ 2 edges) for the graph and 4 per task for the
// greedy levels an improved_delays plan leaves on the instance, on top of
// the CSR and level arrays — and, once per family, 40 bytes per cell for
// the cell graph a block plan leaves on the Problem. The real graphs of a
// planned family stay within it.
func TestFamilyBytesCountsDAGFacts(t *testing.T) {
	p, err := sweepsched.NewProblemFromFamily("tetonly", 0.02, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, k := int64(p.N()), int64(p.K())
	csr := k * (3*4*(n+1) + 2*4*2*n)
	graph := k * (4*(n+1) + 4*n + 4*2*n)
	cells := 4*(n+1) + 4*n + 2*4*2*2*n
	got := familyBytes(&familyEntry{prob: p})
	if want := 128 + csr + 16*n*k + graph + 4*n*k + cells; got != want {
		t.Fatalf("familyBytes = %d for n=%d k=%d, want %d (CSR %d + 16 bytes per task + task graph %d + 4 bytes per task + cell graph %d)", got, n, k, want, csr, graph, cells)
	}
	res, err := p.Schedule(sweepsched.DescendantDelays, sweepsched.ScheduleOptions{Seed: 1, BlockSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var edges int64
	for _, d := range res.Schedule.Inst.DAGs {
		edges += int64(d.NumEdges())
	}
	if real := 4*(n*k+1) + 4*n*k + 4*edges; real > graph {
		t.Fatalf("task graph of the planned family is %d bytes (%d edges), estimate %d", real, edges, graph)
	}
	cg := partition.FromMesh(res.Schedule.Inst.Mesh) // what the block plan left on p
	if real := 4 * int64(len(cg.Start)+len(cg.Adj)+len(cg.EWeight)+len(cg.VWeight)); real > cells {
		t.Fatalf("cell graph of the block-planned family is %d bytes, estimate %d", real, cells)
	}
}

func TestLRUConcurrent(t *testing.T) {
	l := newLRU(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%37)
				l.put(k, i, 64)
				l.get(k)
			}
		}(g)
	}
	wg.Wait()
	if st := l.stats(); st.Bytes > 1<<16 {
		t.Fatalf("budget exceeded: %d bytes", st.Bytes)
	}
}

func TestFlightCoalesces(t *testing.T) {
	var g flightGroup
	var builds atomic.Int64
	gate := make(chan struct{})
	const callers = 16

	var wg sync.WaitGroup
	vals := make([]any, callers)
	shared := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, sh := g.do(context.Background(), "k", func() (any, error) {
				builds.Add(1)
				<-gate
				return "built", nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shared[i] = v, sh
		}(i)
	}
	// Let every caller reach the flight, then release the winner.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for %d concurrent identical calls, want 1", n, callers)
	}
	winners := 0
	for i := range vals {
		if vals[i] != "built" {
			t.Fatalf("caller %d got %v", i, vals[i])
		}
		if !shared[i] {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("%d winners, want exactly 1", winners)
	}
}

func TestFlightFollowerAbandonsOnContext(t *testing.T) {
	var g flightGroup
	gate := make(chan struct{})
	winnerIn := make(chan struct{})

	go func() {
		g.do(context.Background(), "k", func() (any, error) {
			close(winnerIn)
			<-gate
			return "built", nil
		})
	}()
	<-winnerIn

	ctx, cancel := context.WithCancel(context.Background())
	followerErr := make(chan error, 1)
	go func() {
		_, err, sh := g.do(ctx, "k", func() (any, error) { return "never", nil })
		if !sh {
			t.Error("follower was not marked shared")
		}
		followerErr <- err
	}()
	cancel()
	select {
	case err := <-followerErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower did not abandon the wait after cancellation")
	}
	close(gate) // release the winner; its build completes normally
}

func TestFlightSequentialCallsRunSeparately(t *testing.T) {
	var g flightGroup
	n := 0
	for i := 0; i < 3; i++ {
		v, err, sh := g.do(context.Background(), "k", func() (any, error) {
			n++
			return n, nil
		})
		if err != nil || sh {
			t.Fatalf("call %d: err=%v shared=%v", i, err, sh)
		}
		if v.(int) != i+1 {
			t.Fatalf("call %d returned %v, want %d (no coalescing across time)", i, v, i+1)
		}
	}
}
