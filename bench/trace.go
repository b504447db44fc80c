package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files (the program under test is not edited). Spans of one operation
// share Op; Parent is the ID of the span that caused this one, -1 for the
// operation's root.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A nil *tracer records nothing, so the same workload code runs
// traced and untraced.
type tracer struct {
	mu       sync.Mutex
	workload string
	epoch    time.Time
	spans    []span
	ops      int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Workload: t.workload, Op: op, ID: id, Name: name, Parent: parent,
		StartNS: int64(time.Since(t.epoch)),
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// scope is the span stack of one operation running on one goroutine.
// Concurrent children (the service clients) hang off the root through
// begin/end instead of the stack.
type scope struct {
	t     *tracer
	op    int
	stack []int
}

// root runs f as a new operation under a root span called name.
func (t *tracer) root(name string, f func(sc *scope)) {
	sc := &scope{t: t}
	if t != nil {
		t.mu.Lock()
		sc.op = t.ops
		t.ops++
		t.mu.Unlock()
	}
	id := t.begin(sc.op, -1, name)
	sc.stack = []int{id}
	f(sc)
	t.end(id)
}

// inertScope is a scope that records nothing: for running traced code
// whose spans must not be counted.
func inertScope() *scope { return &scope{stack: []int{-1}} }

// do runs f under a child span of the innermost open span.
func (sc *scope) do(name string, f func()) {
	id := sc.t.begin(sc.op, sc.stack[len(sc.stack)-1], name)
	sc.stack = append(sc.stack, id)
	f()
	sc.stack = sc.stack[:len(sc.stack)-1]
	sc.t.end(id)
}

// begin opens a child of the operation's root from any goroutine; pair
// it with end.
func (sc *scope) begin(name string) int { return sc.t.begin(sc.op, sc.stack[0], name) }

func (sc *scope) end(id int) { sc.t.end(id) }

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its child spans cover (children may overlap each other:
// the union of their intervals, clipped to the parent, is subtracted).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := spans[k].StartNS, spans[k].EndNS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// durations returns the duration in seconds of every span called name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// layerShare is one row of the "where the time goes" table: the self
// time of the spans called Name inside operations whose root span is
// called Op, and its share of those operations' time.
type layerShare struct {
	Op     string  `json:"op"`
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	SelfS  float64 `json:"self_s"`
	Share  float64 `json:"share"`
	MeanMS float64 `json:"mean_self_ms"`
}

// selfByName sums self time by (operation, span name), ranks the rows of
// each operation by self time, and returns them with the summed root
// duration (the traced wall time the self times add up to, unless
// children ran concurrently).
func selfByName(spans []span) (rows []layerShare, rootS float64) {
	self := selfTimes(spans)
	type key struct{ op, name string }
	total := map[key]*layerShare{}
	opSelf := map[string]float64{}
	var ops []string
	for i, s := range spans {
		root := s
		for root.Parent >= 0 {
			root = spans[root.Parent]
		}
		if s.Parent < 0 {
			rootS += float64(s.EndNS-s.StartNS) / 1e9
		}
		k := key{root.Name, s.Name}
		row := total[k]
		if row == nil {
			row = &layerShare{Op: k.op, Name: k.name}
			total[k] = row
			if _, seen := opSelf[k.op]; !seen {
				ops = append(ops, k.op)
			}
		}
		row.Spans++
		row.SelfS += float64(self[i]) / 1e9
		opSelf[k.op] += float64(self[i]) / 1e9
	}
	rank := map[string]int{}
	for i, op := range ops {
		rank[op] = i
	}
	for _, row := range total {
		if opSelf[row.Op] > 0 {
			row.Share = row.SelfS / opSelf[row.Op]
		}
		row.MeanMS = row.SelfS / float64(row.Spans) * 1e3
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].Op != rows[b].Op {
			return rank[rows[a].Op] < rank[rows[b].Op]
		}
		if rows[a].SelfS != rows[b].SelfS {
			return rows[a].SelfS > rows[b].SelfS
		}
		return rows[a].Name < rows[b].Name
	})
	return rows, rootS
}
