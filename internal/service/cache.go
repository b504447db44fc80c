package service

import (
	"context"
	"sync"

	"sweepsched"
	"sweepsched/internal/dag"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
)

// lru is a byte-budgeted LRU map. Values are immutable once inserted —
// eviction never invalidates a value a caller already holds, it only
// drops the cache's own reference. All methods are safe for concurrent
// use. A limit <= 0 disables the tier (get always misses, put no-ops),
// so the daemon can run cacheless for A/B measurements.
type lru struct {
	mu    sync.Mutex
	limit int64
	bytes int64
	m     map[string]*lruEntry
	// root is the sentinel of a doubly-linked ring; root.next is the
	// most recently used entry, root.prev the eviction candidate.
	root lruEntry

	hits, misses, evictions int64
}

type lruEntry struct {
	key        string
	val        any
	bytes      int64
	prev, next *lruEntry
}

func newLRU(limit int64) *lru {
	l := &lru{limit: limit, m: make(map[string]*lruEntry)}
	l.root.prev = &l.root
	l.root.next = &l.root
	return l
}

func (l *lru) unlink(e *lruEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (l *lru) pushFront(e *lruEntry) {
	e.prev = &l.root
	e.next = l.root.next
	e.prev.next = e
	e.next.prev = e
}

// get returns the cached value and marks it most recently used.
func (l *lru) get(key string) (any, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.m[key]
	if !ok {
		l.misses++
		return nil, false
	}
	l.hits++
	l.unlink(e)
	l.pushFront(e)
	return e.val, true
}

// put inserts val under key, charging bytes against the budget and
// evicting least-recently-used entries until it fits. A value larger
// than the whole budget is not cached at all.
func (l *lru) put(key string, val any, bytes int64) {
	if l.limit <= 0 || bytes > l.limit {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.m[key]; ok {
		l.bytes += bytes - e.bytes
		e.val, e.bytes = val, bytes
		l.unlink(e)
		l.pushFront(e)
	} else {
		e = &lruEntry{key: key, val: val, bytes: bytes}
		l.m[key] = e
		l.pushFront(e)
		l.bytes += bytes
	}
	for l.bytes > l.limit {
		victim := l.root.prev
		l.unlink(victim)
		delete(l.m, victim.key)
		l.bytes -= victim.bytes
		l.evictions++
	}
}

// TierStats is one tier's point-in-time accounting for /v1/stats.
type TierStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Limit     int64 `json:"limit"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (l *lru) stats() TierStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return TierStats{
		Entries:   len(l.m),
		Bytes:     l.bytes,
		Limit:     l.limit,
		Hits:      l.hits,
		Misses:    l.misses,
		Evictions: l.evictions,
	}
}

// flightGroup coalesces concurrent calls with the same key into one
// execution (a stdlib-only singleflight). The winner runs fn; everyone
// else blocks on its completion and shares the result.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// do runs fn once per key at a time; the caller that starts an
// execution (the winner) runs fn inline under its own context, every
// other concurrent caller with the same key (a follower) blocks until
// the winner finishes and shares its result. shared reports whether
// this caller was a follower. A follower whose own ctx ends stops
// waiting and returns ctx.Err() — the build keeps running for the
// remaining waiters. A follower can also inherit the winner's context
// error (the winner's client vanished mid-build); callers retry in
// that case — see Server.scheduleEntryFor.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	func() {
		defer func() {
			// A panicking build must not strand the waiters: record the
			// panic as an error, release everyone, then re-panic.
			if r := recover(); r != nil {
				c.err = &panicError{r}
				g.finish(key, c)
				panic(r)
			}
		}()
		c.val, c.err = fn()
	}()
	g.finish(key, c)
	return c.val, c.err, false
}

func (g *flightGroup) finish(key string, c *flightCall) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
}

type panicError struct{ r any }

func (p *panicError) Error() string { return "service: build panicked" }

// skeletonEntry is a skeleton-tier value: the realized mesh plus its
// direction-independent DAG skeleton. Both are immutable.
type skeletonEntry struct {
	mesh *mesh.Mesh
	skel *dag.Skeleton
}

// familyEntry is a DAG-family-tier value: a ready-to-schedule Problem
// (mesh + induced immutable DAG set + m) and its lower bounds. The
// Problem also carries the VerifyEvery sampling sequence, so audit
// sampling spans all requests that hit this entry.
type familyEntry struct {
	prob   *sweepsched.Problem
	bounds sweepsched.Bounds
}

// scheduleEntry is a schedule-tier value: the finished run. res is
// immutable; handlers serialize from it, never mutate it. fam pins the
// family entry that produced the run, so shape/bounds reporting (and
// transport solves over a cached schedule) survive family-tier
// eviction.
type scheduleEntry struct {
	// Exactly one of res (unit-task run) and wres (weighted run) is set.
	res  *sweepsched.Result
	wres *sweepsched.WeightedResult
	fam  *familyEntry
	// verified records whether the producing run was audited by
	// internal/verify (VerifyEvery sampling may have skipped it).
	verified bool
}

// cache is the three-tier content-addressed cache. Each tier has its
// own LRU budget and all builds are singleflighted, so N concurrent
// identical cold requests perform one build.
type cache struct {
	skeletons *lru // meshKey -> *skeletonEntry
	families  *lru // familyKey -> *familyEntry
	schedules *lru // scheduleKey -> *scheduleEntry
	flight    flightGroup
	col       *obs.Collector
}

// Tier budget split of the total cache byte budget. Schedules are the
// hottest tier (a warm identical request touches nothing else) but the
// cheapest per entry; families dominate bytes (CSR edge arrays × k).
const (
	skeletonShare = 4 // 1/4 of the budget
	familyShare   = 2 // 1/2 of the budget
	scheduleShare = 4 // 1/4 of the budget
)

func newCache(totalBytes int64, col *obs.Collector) *cache {
	return &cache{
		skeletons: newLRU(totalBytes / skeletonShare),
		families:  newLRU(totalBytes / familyShare),
		schedules: newLRU(totalBytes / scheduleShare),
		col:       col,
	}
}

// skeletonBytes estimates the resident size of a skeleton entry: the
// skeleton's SoA arrays plus the mesh's faces, centroids and CSR
// adjacency. An estimate, not an accounting — the LRU budget bounds
// order of magnitude, not bytes on the wire.
func skeletonBytes(e *skeletonEntry) int64 {
	nf := int64(e.skel.NFaces())
	b := nf*(2*4+3*8) + 64
	if m := e.mesh; m != nil {
		b += int64(len(m.Faces))*56 + int64(len(m.Centroids))*24 +
			int64(len(m.Verts))*24 + int64(len(m.Cells))*16
		// CSR adjacency: ~2 int32 per interior-face side.
		b += 2 * 3 * 4 * int64(m.NInteriorFaces())
	}
	return b
}

// familyBytes estimates a family entry: per direction, the DAG's CSR
// offsets and level array (3·(n+1) int32) plus out- and in-edge arrays
// (≈ 2 int32 per edge, with edges ≈ 2n on tetrahedral meshes: ≤ 4
// faces per cell, about half oriented downwind), plus what the family
// grows once it has been planned on: the facts of each DAG after a
// descendant or DFDS request (level order, b-levels and descendant
// counts: up to 16 bytes per task), the instance's task graph after
// any list-scheduled request (one int32 per task and one per edge) and,
// once for the family, the cell graph the Problem keeps after a block
// request (an offset and a weight per cell; a neighbour and an edge
// weight for both ends of each of ≈ 2n interior faces).
func familyBytes(e *familyEntry) int64 {
	n := int64(e.prob.N())
	k := int64(e.prob.K())
	const edgesPerCell = 2
	dags := 3*4*(n+1) + 2*4*edgesPerCell*n
	facts := 16 * n
	taskGraph := 4*(n+1) + 4*edgesPerCell*n
	cellGraph := 4*(n+1) + 4*n + 2*4*2*edgesPerCell*n
	return 128 + k*(dags+facts+taskGraph) + cellGraph
}

// scheduleBytes estimates a schedule entry: start steps + assignment
// (weighted entries carry int64 start/finish arrays plus the weights).
func scheduleBytes(e *scheduleEntry) int64 {
	if e.wres != nil {
		s := e.wres.Schedule
		return 128 + 8*int64(len(s.Start)+len(s.Finish)) +
			4*int64(len(s.Assign)+len(s.Weights))
	}
	return 96 + 4*int64(len(e.res.Schedule.Start)) + 4*int64(len(e.res.Schedule.Assign))
}
