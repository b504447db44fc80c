package sched

// A plain-text schedule trace format: enough to replay, inspect or render
// a schedule (n, k, m, per-cell assignment, per-task start step) without
// the mesh or DAGs. cmd/sweepsim writes traces, cmd/sweepview renders them.
//
//	sweeptrace 1
//	shape <n> <k> <m> <makespan>
//	assign <n ints>
//	start <nk ints>
//
// Decoded traces carry empty dependence graphs, so structural views
// (Gantt, utilization, per-processor load) are exact, while anything that
// needs edges (validation, C1, C2) is meaningless and should not be
// computed on them.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"

	"sweepsched/internal/dag"
)

// traceVersion is the current sweeptrace format version.
const traceVersion = 1

// traceCap bounds the capacity DecodeTrace reserves from the shape line.
const traceCap = 1 << 12

// EncodeTrace writes the schedule's trace. The integers go through one
// strconv buffer, so a trace costs a constant number of allocations
// whatever its task count.
func EncodeTrace(w io.Writer, s *Schedule) error {
	bw := bufio.NewWriter(w)
	inst := s.Inst
	fmt.Fprintf(bw, "sweeptrace %d\n", traceVersion)
	fmt.Fprintf(bw, "shape %d %d %d %d\n", inst.N(), inst.K(), inst.M, s.Makespan)
	var num []byte
	for _, sec := range [2]struct {
		name string
		vals []int32
	}{{"assign", s.Assign}, {"start", s.Start}} {
		bw.WriteString(sec.name)
		for _, x := range sec.vals {
			num = strconv.AppendInt(append(num[:0], ' '), int64(x), 10)
			bw.Write(num)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// DecodeTrace reads a trace and reconstructs a Schedule over an instance
// with empty dependence graphs (see the package comment for what remains
// valid on such schedules).
func DecodeTrace(r io.Reader) (*Schedule, error) {
	br := bufio.NewReader(r)
	var version int
	if _, err := fmt.Fscanf(br, "sweeptrace %d\n", &version); err != nil {
		return nil, fmt.Errorf("sched: bad trace header: %w", err)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("sched: unsupported trace version %d", version)
	}
	var n, k, m, makespan int
	if _, err := fmt.Fscanf(br, "shape %d %d %d %d\n", &n, &k, &m, &makespan); err != nil {
		return nil, fmt.Errorf("sched: bad shape line: %w", err)
	}
	if n < 1 || k < 1 || m < 1 || makespan < 1 {
		return nil, fmt.Errorf("sched: degenerate shape n=%d k=%d m=%d makespan=%d", n, k, m, makespan)
	}
	if k > math.MaxInt32/n {
		return nil, fmt.Errorf("sched: shape n=%d k=%d has more tasks than a TaskID holds", n, k)
	}
	// The tables grow as the body is read: the shape line is a claim,
	// and a short trace claiming a huge one must fail at its end, not
	// allocate the claim first.
	var word string
	if _, err := fmt.Fscan(br, &word); err != nil || word != "assign" {
		return nil, fmt.Errorf("sched: missing assign section")
	}
	assign := make(Assignment, 0, min(n, traceCap))
	for v := 0; v < n; v++ {
		var p int32
		if _, err := fmt.Fscan(br, &p); err != nil {
			return nil, fmt.Errorf("sched: assign[%d]: %w", v, err)
		}
		if p < 0 || int(p) >= m {
			return nil, fmt.Errorf("sched: assign[%d]=%d out of range", v, p)
		}
		assign = append(assign, p)
	}
	if _, err := fmt.Fscan(br, &word); err != nil || word != "start" {
		return nil, fmt.Errorf("sched: missing start section")
	}
	start := make([]int32, 0, min(n*k, traceCap))
	for t := 0; t < n*k; t++ {
		var st int32
		if _, err := fmt.Fscan(br, &st); err != nil {
			return nil, fmt.Errorf("sched: start[%d]: %w", t, err)
		}
		if st < 0 || int(st) >= makespan {
			return nil, fmt.Errorf("sched: start[%d]=%d outside [0,%d)", t, st, makespan)
		}
		start = append(start, st)
	}
	dags := make([]*dag.DAG, k)
	empty, err := dag.FromEdges(n, nil)
	if err != nil {
		return nil, err
	}
	for i := range dags {
		dags[i] = empty
	}
	inst, err := FromDAGs(dags, m)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Inst: inst, Assign: assign, Start: start}
	s.computeMakespan()
	if s.Makespan != makespan {
		return nil, fmt.Errorf("sched: trace claims makespan %d but starts imply %d", makespan, s.Makespan)
	}
	return s, nil
}
