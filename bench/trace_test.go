package main

import "testing"

// A span's self time is its duration minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNS: 0, EndNS: 100},   // root
		{ID: 1, Parent: 0, StartNS: 10, EndNS: 40},    // child
		{ID: 2, Parent: 0, StartNS: 30, EndNS: 60},    // overlaps child 1 (a concurrent client)
		{ID: 3, Parent: 0, StartNS: 90, EndNS: 120},   // runs past the root: clipped
		{ID: 4, Parent: 1, StartNS: 15, EndNS: 25},    // grandchild
		{ID: 5, Parent: -1, StartNS: 200, EndNS: 230}, // a second operation
	}
	want := []int64{100 - (50 + 10), 30 - 10, 30, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	tr.root("op", func(sc *scope) {
		sc.do("a", func() { sc.do("b", func() {}) })
		id := sc.begin("c")
		sc.end(id)
	})
	tr.root("op", func(*scope) {})
	parents := map[string]int{}
	for _, s := range tr.spans {
		parents[s.Name] = s.Parent
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if parents["a"] != 0 || parents["b"] != 1 || parents["c"] != 0 {
		t.Errorf("parents = %v, want a and c under the root and b under a", parents)
	}
	if tr.spans[0].Op == tr.spans[len(tr.spans)-1].Op {
		t.Error("two operations share an op id")
	}
	rows, rootS := selfByName(tr.spans)
	var sum float64
	for _, row := range rows {
		sum += row.SelfS
	}
	if diff := sum - rootS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("self times sum to %v, the roots to %v", sum, rootS)
	}

	// A nil tracer runs the same code and records nothing.
	var off *tracer
	ran := false
	off.root("op", func(sc *scope) { sc.do("a", func() { ran = true }) })
	if !ran {
		t.Error("a nil tracer did not run the operation")
	}
}
