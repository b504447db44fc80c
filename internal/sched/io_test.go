package sched

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sweepsched/internal/dag"
	"sweepsched/internal/rng"
)

func TestTraceRoundTrip(t *testing.T) {
	inst := testInstance(t, 3, 8, 4, 51)
	assign := RandomAssignment(inst.N(), inst.M, rng.New(1))
	s, err := into(inst, assign, Rule{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != s.Makespan {
		t.Fatalf("makespan %d -> %d", s.Makespan, got.Makespan)
	}
	if got.Inst.N() != inst.N() || got.Inst.K() != inst.K() || got.Inst.M != inst.M {
		t.Fatal("shape changed through trace")
	}
	for v := range s.Assign {
		if s.Assign[v] != got.Assign[v] {
			t.Fatalf("assign[%d] changed", v)
		}
	}
	for tid := range s.Start {
		if s.Start[tid] != got.Start[tid] {
			t.Fatalf("start[%d] changed", tid)
		}
	}
}

// TestEncodeTraceBytes: EncodeTrace writes the format byte for byte —
// the text below is what the encoder wrote when it printed every integer
// with fmt's " %d" — DecodeTrace reads it back, and the encoder's
// allocations do not grow with the task count.
func TestEncodeTraceBytes(t *testing.T) {
	const want = "sweeptrace 1\nshape 3 2 2 1235\nassign 0 1 1\nstart 0 9 10 1234 5 67\n"
	empty, err := dag.FromEdges(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := FromDAGs([]*dag.DAG{empty, empty}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &Schedule{Inst: inst, Assign: Assignment{0, 1, 1}, Start: []int32{0, 9, 10, 1234, 5, 67}, Makespan: 1235}
	var buf bytes.Buffer
	if err := EncodeTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("encoded\n%q\nwant\n%q", got, want)
	}
	back, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Makespan != s.Makespan || !slices.Equal(back.Assign, s.Assign) || !slices.Equal(back.Start, s.Start) {
		t.Fatalf("decoded %+v, encoded %+v", back, s)
	}

	allocs := func(s *Schedule) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := EncodeTrace(io.Discard, s); err != nil {
				t.Fatal(err)
			}
		})
	}
	big := testInstance(t, 4, 8, 4, 3)
	bs, err := into(big, RandomAssignment(big.N(), big.M, rng.New(2)), Rule{})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 16
	for _, s := range []*Schedule{s, bs} {
		if n := allocs(s); n > bound {
			t.Fatalf("encoding %d tasks allocated %v times, want at most %d", len(s.Start), n, bound)
		}
	}
}

func TestTraceDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "nottrace 1\n",
		"bad version":  "sweeptrace 9\n",
		"bad shape":    "sweeptrace 1\nshape 0 1 1 1\n",
		"short assign": "sweeptrace 1\nshape 2 1 1 2\nassign 0\n",
		"assign range": "sweeptrace 1\nshape 2 1 1 2\nassign 0 5\nstart 0 1\n",
		"start range":  "sweeptrace 1\nshape 2 1 1 2\nassign 0 0\nstart 0 9\n",
		"makespan lie": "sweeptrace 1\nshape 2 1 1 5\nassign 0 0\nstart 0 1\n",
	}
	for what, text := range cases {
		if _, err := DecodeTrace(strings.NewReader(text)); err == nil {
			t.Fatalf("%s: decode succeeded", what)
		}
	}
}

func TestTraceValidForViews(t *testing.T) {
	// Decoded traces support shape-based analysis (per-proc loads).
	text := "sweeptrace 1\nshape 2 2 2 2\nassign 0 1\nstart 0 0 1 1\n"
	s, err := DecodeTrace(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 2 {
		t.Fatalf("makespan %d", s.Makespan)
	}
	if s.Inst.NTasks() != 4 {
		t.Fatalf("tasks %d", s.Inst.NTasks())
	}
}

// TestTraceDecodeHugeShapeAllocatesLittle: the shape line is a claim the
// body has to back. A short trace claiming 2,000,000 cells fails at its
// end, wrapping io.EOF, and shapes past a TaskID's range fail at the
// shape line; neither allocates 1 MB.
func TestTraceDecodeHugeShapeAllocatesLittle(t *testing.T) {
	cases := map[string]struct {
		text string
		eof  bool
	}{
		"cells":      {"sweeptrace 1\nshape 2000000 1 1 1\nassign 0\n", true},
		"directions": {"sweeptrace 1\nshape 1 1125899906842624 1 1\nassign 0\nstart 0\n", false},
		"wrapping":   {"sweeptrace 1\nshape 1125899906842624 1048576 1 1\nassign 0\n", false},
	}
	for what, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeTrace(strings.NewReader(tc.text))
		runtime.ReadMemStats(&after)
		if err == nil || tc.eof && !errors.Is(err, io.EOF) {
			t.Errorf("%s: err = %v", what, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: decoding a short trace allocated %d bytes", what, d)
		}
	}
}
