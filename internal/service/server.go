package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sweepsched"
	"sweepsched/internal/dag"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
	"sweepsched/internal/verify"
)

// Config tunes a scheduling daemon.
type Config struct {
	// MaxConcurrent bounds how many requests may be in the expensive
	// build/schedule/solve section at once (the admission semaphore).
	// 0 selects 2×GOMAXPROCS. Cache hits bypass admission entirely.
	MaxConcurrent int
	// QueueTimeout is how long an arriving request may wait for an
	// admission slot before being 429'd. 0 selects 2s; negative means
	// no queue at all (reject unless a slot is immediately free).
	QueueTimeout time.Duration
	// CacheBytes is the total LRU byte budget across the three cache
	// tiers (split skeleton ¼ / DAG family ½ / schedule ¼). 0 selects
	// 256 MiB; negative disables caching (every request builds).
	CacheBytes int64
	// Verify enables internal/verify audits of produced schedules, as
	// the CLIs' -verify flag does; the SWEEPSCHED_VERIFY environment
	// variable forces it on. An audit failure is a 500.
	Verify bool
	// VerifyEvery audits only every Nth schedule built on one cached DAG
	// family (≤ 1: every one). The daemon is the one place audits are
	// sampled: the counter lives with the cached family, so it spans
	// requests, and the API audits exactly the runs it is told to.
	VerifyEvery int
	// Workers is the per-request default for the per-direction pipeline
	// stages (0 = GOMAXPROCS); a request's workers field overrides it.
	// Scheduling output is bit-identical for every value.
	Workers int
	// MaxBodyBytes bounds request bodies (0 selects MaxBody).
	MaxBodyBytes int64
	// Collector receives server-wide counters, gauges and timers (the
	// service.* series, surfaced by GET /v1/stats). nil allocates one.
	Collector *obs.Collector
}

func (cfg Config) withDefaults() Config {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 256 << 20
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = MaxBody
	}
	if cfg.Collector == nil {
		cfg.Collector = obs.New()
	}
	return cfg
}

// Server is the scheduling service: an http.Handler exposing
//
//	POST /v1/schedule  — build (or fetch) a schedule, return metrics
//	POST /v1/transport — schedule + discrete-ordinates transport solve
//	GET  /v1/stats     — cache/admission/metrics accounting
//	GET  /healthz      — liveness; 503 once draining
//	GET  /readyz       — readiness; 503 while draining
//
// Construct with New, serve with Handler, stop with BeginDrain +
// http.Server.Shutdown (see cmd/sweepschedd).
type Server struct {
	cfg      Config
	col      *obs.Collector
	cache    *cache
	adm      *admission
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool

	// testHook, when non-nil, runs with the named stage inside the
	// admitted section of every request ("admitted") and inside every
	// skeleton build ("skeleton"). Tests use it to hold requests in
	// flight deterministically (429s, drain, cancellation, shared builds).
	testHook func(stage string, ctx context.Context)
}

// New builds a Server from the config (zero value = defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		col:   cfg.Collector,
		cache: newCache(cfg.CacheBytes, cfg.Collector),
		adm:   newAdmission(cfg.MaxConcurrent, cfg.QueueTimeout),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/schedule", handlePost(s, "schedule", DecodeScheduleRequest, s.schedule))
	s.mux.HandleFunc("POST /v1/transport", handlePost(s, "transport", DecodeTransportRequest, s.transport))
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.probe("healthz", "ok"))
	s.mux.HandleFunc("GET /readyz", s.probe("readyz", "ready"))
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into draining: /healthz turns 503 (so a
// load balancer stops routing here) and new work requests are refused
// with 503, while requests already admitted run to completion under
// http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// CacheTrace reports which tiers served a request. Inner tiers are
// only consulted (and reported) when the outer tier missed.
type CacheTrace struct {
	Schedule string `json:"schedule"`           // "hit" or "miss"
	Family   string `json:"family,omitempty"`   // on schedule miss
	Skeleton string `json:"skeleton,omitempty"` // on family miss, mesh specs only
	// Coalesced marks a request that joined another in-flight identical
	// build instead of building itself.
	Coalesced bool `json:"coalesced,omitempty"`
}

// BoundsInfo is the §4 lower-bound terms for the instance.
type BoundsInfo struct {
	Load         float64 `json:"load"`          // nk/m
	PerCell      int     `json:"per_cell"`      // k
	CriticalPath int     `json:"critical_path"` // D
}

// ScheduleResponse is the body of a successful POST /v1/schedule.
type ScheduleResponse struct {
	Mesh      string `json:"mesh"`
	N         int    `json:"n"`
	K         int    `json:"k"`
	M         int    `json:"m"`
	Tasks     int    `json:"tasks"`
	Scheduler string `json:"scheduler"`

	Makespan int        `json:"makespan"`
	C1       int64      `json:"c1"`
	C2       int64      `json:"c2"`
	Ratio    float64    `json:"ratio"`
	Bounds   BoundsInfo `json:"bounds"`

	// Weighted marks a weighted run; WeightedBounds and StrongRatio
	// report the speed-aware lower bounds and makespan/max-bound ratio.
	// C1 and C2 are zero for weighted runs (depth metrics are unit-task
	// notions), and Bounds still describes the unit-task family.
	Weighted       bool                `json:"weighted,omitempty"`
	WeightedBounds *WeightedBoundsInfo `json:"weighted_bounds,omitempty"`
	StrongRatio    float64             `json:"strong_ratio,omitempty"`

	// Verified reports whether the daemon's audit sample (Config.Verify,
	// Config.VerifyEvery) picked the run that produced this schedule; a
	// cache hit reports the producing run's. SWEEPSCHED_VERIFY audits
	// every in-process plan, sampled out or not, without setting it.
	Verified bool       `json:"verified"`
	Cache    CacheTrace `json:"cache"`

	ElapsedNanos int64         `json:"elapsed_nanos"`
	Stats        *obs.Snapshot `json:"stats,omitempty"`

	// Assign and Start are included only when include_schedule is set.
	// Weighted runs report Start64/Finish64 (event times, not steps)
	// instead of Start.
	Assign   []int32 `json:"assign,omitempty"`
	Start    []int32 `json:"start,omitempty"`
	Start64  []int64 `json:"start64,omitempty"`
	Finish64 []int64 `json:"finish64,omitempty"`
}

// WeightedBoundsInfo is the weighted/heterogeneous lower-bound terms
// (internal/lb.WeightedBounds) for a weighted run.
type WeightedBoundsInfo struct {
	Load         float64 `json:"load"`          // sum k·w(v) / sum speed(p)
	PerCell      int64   `json:"per_cell"`      // max_v k·ceil(w(v)/maxspeed)
	CriticalPath int64   `json:"critical_path"` // heaviest chain
}

// TransportResponse is the body of a successful POST /v1/transport.
type TransportResponse struct {
	Schedule ScheduleResponse `json:"schedule"`

	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Residual   float64 `json:"residual"`
	FluxSum    float64 `json:"flux_sum"`

	ElapsedNanos int64     `json:"elapsed_nanos"`
	Flux         []float64 `json:"flux,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeNanos int64 `json:"uptime_nanos"`
	Draining    bool  `json:"draining"`
	Admission   struct {
		Slots            int   `json:"slots"`
		InFlight         int   `json:"in_flight"`
		QueueTimeoutMSec int64 `json:"queue_timeout_msec"`
	} `json:"admission"`
	Cache struct {
		Skeletons TierStats `json:"skeletons"`
		Families  TierStats `json:"families"`
		Schedules TierStats `json:"schedules"`
	} `json:"cache"`
	Metrics obs.Snapshot `json:"metrics"`
}

// errorBody is every non-2xx response body.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client vanishing mid-write is not actionable
}

// writeError classifies err and writes the JSON error body. Admission
// timeouts become 429 + Retry-After; a vanished client becomes 499
// (never seen by the client, but visible in status counters).
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := StatusOf(err)
	switch {
	case errors.Is(err, errBusy):
		status = http.StatusTooManyRequests
		// An honest estimate beats a constant: queue depth over observed
		// service rate, so clients under sustained overload spread out
		// instead of hammering in lockstep.
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.retryAfterSeconds()))
	case errors.Is(err, context.Canceled):
		status = 499
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	s.countStatus(status)
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) countStatus(status int) {
	s.col.Counter(fmt.Sprintf("service.status.%d", status)).Inc()
}

// probe is the body of /healthz (liveness) and /readyz (readiness): both
// answer 503 once draining, so a live server that is draining is taken
// out of rotation without being restarted. New returns a server whose
// caches and admission semaphore are already live, so there is no
// initializing window to report.
func (s *Server) probe(name, ok string) http.HandlerFunc {
	requests := "service.requests." + name
	return func(w http.ResponseWriter, r *http.Request) {
		s.col.Counter(requests).Inc()
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, ok)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.col.Counter("service.requests.stats").Inc()
	var resp StatsResponse
	resp.UptimeNanos = int64(time.Since(s.start))
	resp.Draining = s.draining.Load()
	resp.Admission.Slots = s.cfg.MaxConcurrent
	resp.Admission.InFlight = s.adm.inFlight()
	resp.Admission.QueueTimeoutMSec = s.cfg.QueueTimeout.Milliseconds()
	resp.Cache.Skeletons = s.cache.skeletons.stats()
	resp.Cache.Families = s.cache.families.stats()
	resp.Cache.Schedules = s.cache.schedules.stats()
	resp.Metrics = s.col.Snapshot()
	s.countStatus(http.StatusOK)
	writeJSON(w, http.StatusOK, resp)
}

// handlePost is the body of both POST endpoints: it counts the request
// and times it (service.requests.<name>, service.request.<name>.time),
// refuses it with 503 once draining, decodes and validates the body
// (bounded by MaxBodyBytes), runs it and writes the response or the
// classified error.
func handlePost[Req, Resp any](s *Server, name string, decode func(io.Reader) (Req, error), run func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	requests, timer := "service.requests."+name, "service.request."+name+".time"
	return func(w http.ResponseWriter, r *http.Request) {
		s.col.Counter(requests).Inc()
		defer s.col.Span(timer).End()
		if s.draining.Load() {
			s.countStatus(http.StatusServiceUnavailable)
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining"})
			return
		}
		req, err := decode(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		var resp Resp
		if err == nil {
			resp, err = run(r.Context(), req)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.countStatus(http.StatusOK)
		writeJSON(w, http.StatusOK, resp)
	}
}

// admit is the one admission gate of builds and solves: it waits for a
// slot (service.admission.wait), counts the request admitted or, refused
// with errBusy, rejected, runs the "admitted" test hook, and returns the
// release that hands the slot back with its service time.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	wait := s.col.Span("service.admission.wait")
	err = s.adm.acquire(ctx)
	wait.End()
	if err != nil {
		if errors.Is(err, errBusy) {
			s.col.Counter("service.admission.rejected").Inc()
		}
		return nil, err
	}
	admitted := time.Now()
	s.col.Counter("service.admission.admitted").Inc()
	if s.testHook != nil {
		s.testHook("admitted", ctx)
	}
	return func() { s.adm.release(time.Since(admitted)) }, nil
}

// job is one request's schedule spec on its way through the cache: its
// key at each tier, the inline mesh its mesh key was taken of (nil for
// family and synthetic meshes), the worker count its builds run with and
// the collector its plan and solve report to.
type job struct {
	req                       *ScheduleRequest
	mesh                      *mesh.Mesh
	meshKey, famKey, schedKey string
	workers                   int
	col                       *obs.Collector
}

func (s *Server) newJob(req *ScheduleRequest) (*job, error) {
	meshKey, m, err := req.Mesh.meshKey()
	if err != nil {
		return nil, err
	}
	j := &job{req: req, mesh: m, meshKey: meshKey, workers: req.Workers, col: obs.New()}
	j.famKey = req.familyKey(meshKey)
	j.schedKey = req.scheduleKey(j.famKey)
	if j.workers == 0 {
		j.workers = s.cfg.Workers
	}
	return j, nil
}

// schedule answers a validated /v1/schedule request. A schedule-tier
// hit is served without an admission slot (it is a map lookup plus the
// JSON encode); a miss builds inside one.
func (s *Server) schedule(ctx context.Context, req *ScheduleRequest) (*ScheduleResponse, error) {
	begin := time.Now()
	j, err := s.newJob(req)
	if err != nil {
		return nil, err
	}
	ent, fam, trace, err := s.scheduleFor(ctx, j, s.admit)
	if err != nil {
		return nil, err
	}
	return s.scheduleResponse(j, ent, fam, trace, begin), nil
}

// transport answers a validated /v1/transport request: resolve the
// schedule through the cache, then run the serial discrete-ordinates
// source iteration over it. Solves are not cached (they are pure
// functions of a cached schedule, but carry per-cell flux fields whose
// retention the schedule tiers should not pay for); the schedule reuse
// is where the amortization lives.
func (s *Server) transport(ctx context.Context, req *TransportRequest) (*TransportResponse, error) {
	begin := time.Now()
	j, err := s.newJob(&req.Schedule)
	if err != nil {
		return nil, err
	}
	// The solve is always heavy, so transport requests take an
	// admission slot even when the schedule tier hits.
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	ent, fam, trace, err := s.scheduleFor(ctx, j, nil)
	if err != nil {
		return nil, err
	}

	cfg := transport.Config{
		SigmaT:    req.SigmaT,
		SigmaS:    req.SigmaS,
		Source:    req.Source,
		Tol:       req.Tol,
		MaxIters:  req.MaxIters,
		Collector: j.col,
	}
	span := s.col.Span("service.solve.transport.time")
	// The schedule carries its own instance. fam may be a family entry
	// rebuilt after an eviction, a Problem other than the one that made
	// ent.res, so the solve does not go through it.
	tres, err := transport.SolveCtx(ctx, ent.res.Schedule, cfg)
	span.End()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &RequestError{Msg: err.Error()}
	}
	s.col.Counter("service.solve.transport").Inc()

	sum := 0.0
	for _, phi := range tres.Phi {
		sum += phi
	}
	resp := &TransportResponse{
		Schedule:     *s.scheduleResponse(j, ent, fam, trace, begin),
		Iterations:   tres.Iterations,
		Converged:    tres.Converged,
		Residual:     tres.Residual,
		FluxSum:      sum,
		ElapsedNanos: int64(time.Since(begin)),
	}
	if req.IncludeFlux {
		resp.Flux = append([]float64(nil), tres.Phi...)
	}
	return resp, nil
}

// fetched is how a cache tier answered: its entry; hit when the
// request's own counted lookup found it; built when a build made it —
// this request's or the one it joined (shared) — with what that build
// saw of the inner tiers in trace.
type fetched struct {
	val                any
	hit, built, shared bool
	trace              CacheTrace
}

// fetch resolves key on tier t; every tier resolves through it. The
// lookup counts in the tier's stats and its service.cache.<tier>.hit|miss
// series. A miss runs one build per key at a time (flightGroup.do, under
// the tier's flight key, which also retries a build its winner's client
// abandoned): it looks again, uncounted — a racer may have put the entry
// since the miss — and otherwise runs build and puts the entry at the
// size build gives. gate, when set, runs between the miss and the
// flight: the admission slot a build needs and a hit does not, released
// when fetch returns.
func (s *Server) fetch(ctx context.Context, t *tier, key string, gate func(context.Context) (func(), error), build func() (any, int64, CacheTrace, error)) (fetched, error) {
	if v, ok := t.get(key); ok {
		s.col.Counter(t.hit).Inc()
		return fetched{val: v, hit: true}, nil
	}
	s.col.Counter(t.miss).Inc()
	if gate != nil {
		release, err := gate(ctx)
		if err != nil {
			return fetched{}, err
		}
		defer release()
	}
	v, err, shared := s.cache.flight.do(ctx, t.name+"|"+key, func() (any, error) {
		if v, ok := t.peek(key); ok {
			return fetched{val: v}, nil
		}
		v, bytes, trace, err := build()
		if err != nil {
			return nil, err
		}
		t.put(key, v, bytes)
		return fetched{val: v, built: true, trace: trace}, nil
	})
	if err != nil {
		return fetched{}, err
	}
	got := v.(fetched)
	got.shared = shared
	return got, nil
}

// tierState is a tier's CacheTrace value.
var tierState = map[bool]string{false: "miss", true: "hit"}

// scheduleFor resolves the job's schedule-tier entry, building through
// the family and skeleton tiers on a miss inside gate (when set), and
// the family entry behind it for bounds and shape: the family tier's,
// its LRU position refreshed without counting a lookup, or, once that
// tier evicted it, the one the schedule entry pins. An entry a build did
// not make for this request reads as a schedule hit. The build may
// outrun cancellation on tiny problems: if the client is already gone
// there is no one to deliver to, but the entry stays cached for the
// next caller.
func (s *Server) scheduleFor(ctx context.Context, j *job, gate func(context.Context) (func(), error)) (*scheduleEntry, *familyEntry, CacheTrace, error) {
	got, err := s.fetch(ctx, s.cache.schedules, j.schedKey, gate, func() (any, int64, CacheTrace, error) {
		return s.buildSchedule(ctx, j)
	})
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, nil, CacheTrace{}, err
	}
	trace := CacheTrace{Schedule: "hit"}
	if got.built {
		trace = got.trace
	}
	if got.shared {
		s.col.Counter("service.flight.coalesced").Inc()
		trace.Coalesced = true
	}
	ent := got.val.(*scheduleEntry)
	if v, ok := s.cache.families.peek(j.famKey); ok {
		return ent, v.(*familyEntry), trace, nil
	}
	return ent, ent.fam, trace, nil
}

// buildSchedule is the schedule tier's build: resolve the DAG family
// (itself cached and coalesced), run the scheduler through the API entry
// point of the request's model, and size the entry.
func (s *Server) buildSchedule(ctx context.Context, j *job) (any, int64, CacheTrace, error) {
	fam, trace, err := s.familyFor(ctx, j)
	if err != nil {
		return nil, 0, trace, err
	}
	req := j.req
	// The audit sample is drawn before the plan, so a run that fails has
	// advanced the family's sequence too.
	audit := (s.cfg.Verify || verify.ForcedByEnv()) &&
		(s.cfg.VerifyEvery <= 1 || (fam.runs.Add(1)-1)%uint64(s.cfg.VerifyEvery) == 0)
	opts := sweepsched.ScheduleOptions{
		BlockSize: req.BlockSize,
		Seed:      req.Seed,
		Workers:   j.workers,
		Verify:    audit,
		Collector: j.col,
		Anglesets: req.Anglesets,
	}
	span := s.col.Span("service.build.schedule.time")
	defer span.End()
	var (
		res  *sweepsched.Result
		wres *sweepsched.WeightedResult
	)
	if req.Weighted || req.CommDelay > 0 {
		// These paths have no Ctx variant; cancellation is observed
		// before and after the kernel run.
		if err := ctx.Err(); err != nil {
			return nil, 0, trace, err
		}
	}
	switch {
	case req.Weighted:
		weights := sweepsched.LogNormalWeights(fam.prob.N(), 4, 0.75, req.WeightSeed)
		model := sched.CycledSpeeds(req.Speeds, fam.prob.M())
		wres, err = fam.prob.ScheduleWeightedMachine(sweepsched.Scheduler(req.Scheduler), opts, weights, model)
	case req.CommDelay > 0:
		res, err = fam.prob.ScheduleComm(sweepsched.Scheduler(req.Scheduler), opts, req.CommDelay)
	default:
		res, err = fam.prob.ScheduleCtx(ctx, sweepsched.Scheduler(req.Scheduler), opts)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, 0, trace, ctx.Err()
		}
		// Every client-classifiable rejection is caught at validation
		// or family build; what reaches here (an invalid schedule, a
		// failed audit) indicates a server-side bug and stays a 500.
		return nil, 0, trace, err
	}
	s.col.Counter("service.build.schedule").Inc()
	ent := &scheduleEntry{
		res:      res,
		wres:     wres,
		verified: audit,
		fam:      fam,
	}
	if ent.verified {
		s.col.Counter("service.verify.audited").Inc()
	} else if s.cfg.Verify {
		s.col.Counter("service.verify.sampled_out").Inc()
	}
	trace.Schedule = "miss"
	return ent, scheduleBytes(ent), trace, nil
}

// familyFor resolves the DAG-family tier: a ready-to-schedule Problem
// for (mesh content, direction set, m), built over the skeleton tier
// on miss. The entry carries the VerifyEvery sampling sequence, so audits
// are sampled across all requests that share it.
func (s *Server) familyFor(ctx context.Context, j *job) (*familyEntry, CacheTrace, error) {
	got, err := s.fetch(ctx, s.cache.families, j.famKey, nil, func() (any, int64, CacheTrace, error) {
		span := s.col.Span("service.build.family.time")
		defer span.End()
		var (
			prob  *sweepsched.Problem
			trace CacheTrace
			err   error
		)
		if req := j.req; req.Mesh.Synthetic != "" {
			prob, err = sweepsched.NewProblemNonGeometric(
				sweepsched.NonGeometricKind(req.Mesh.Synthetic), req.Mesh.N, req.Directions, req.Procs, req.Mesh.Seed)
			if err != nil {
				return nil, 0, trace, &RequestError{Msg: err.Error()}
			}
		} else {
			skelEnt, hit, err := s.skeletonFor(ctx, j)
			if err != nil {
				return nil, 0, trace, err
			}
			trace.Skeleton = tierState[hit]
			if tasks := int64(skelEnt.skel.NCells) * int64(req.Directions); tasks > MaxTasks {
				return nil, 0, trace, badRequest("mesh has %d cells: n*k = %d tasks exceeds the %d-task ceiling",
					skelEnt.skel.NCells, tasks, int64(MaxTasks))
			}
			dirs, err := quadrature.Octant(req.Directions)
			if err != nil {
				return nil, 0, trace, &RequestError{Msg: err.Error()}
			}
			dags := dag.BuildAllInto(make([]*dag.DAG, len(dirs)), skelEnt.skel, dirs, j.workers)
			s.col.Counter("service.build.dag_family").Inc()
			if prob, err = sweepsched.NewProblemFromPrebuiltDAGs(skelEnt.mesh, dirs, dags, req.Procs); err != nil {
				return nil, 0, trace, err
			}
		}
		ent := &familyEntry{prob: prob, bounds: prob.Bounds()}
		return ent, familyBytes(ent), trace, nil
	})
	if err != nil {
		return nil, CacheTrace{}, err
	}
	trace := got.trace
	trace.Family = tierState[got.hit]
	return got.val.(*familyEntry), trace, nil
}

// skeletonFor resolves the skeleton tier: the realized mesh plus its
// direction-independent interior-face skeleton, by mesh content key. An
// inline mesh is the one its key was taken of, validated here.
func (s *Server) skeletonFor(ctx context.Context, j *job) (*skeletonEntry, bool, error) {
	got, err := s.fetch(ctx, s.cache.skeletons, j.meshKey, nil, func() (any, int64, CacheTrace, error) {
		if s.testHook != nil {
			s.testHook("skeleton", ctx)
		}
		span := s.col.Span("service.build.skeleton.time")
		defer span.End()
		m := j.mesh
		if spec := &j.req.Mesh; spec.Family != "" {
			var err error
			if m, err = mesh.Family(spec.Family, spec.Scale, spec.Seed); err != nil {
				return nil, 0, CacheTrace{}, &RequestError{Msg: err.Error()}
			}
		} else if err := m.Validate(); err != nil {
			return nil, 0, CacheTrace{}, badRequest("mesh: invalid encoded mesh: %v", err)
		}
		ent := &skeletonEntry{mesh: m, skel: dag.NewSkeleton(m)}
		s.col.Counter("service.build.skeleton").Inc()
		return ent, skeletonBytes(ent), CacheTrace{}, nil
	})
	if err != nil {
		return nil, false, err
	}
	return got.val.(*skeletonEntry), got.hit, nil
}

// scheduleResponse shapes the response for one request from an
// (immutable, possibly shared) schedule entry.
func (s *Server) scheduleResponse(j *job, ent *scheduleEntry, fam *familyEntry, trace CacheTrace, begin time.Time) *ScheduleResponse {
	req, p := j.req, fam.prob
	resp := &ScheduleResponse{
		Mesh:      req.Mesh.describe(),
		N:         p.N(),
		K:         p.K(),
		M:         p.M(),
		Tasks:     p.Tasks(),
		Scheduler: req.Scheduler,
		Bounds: BoundsInfo{
			Load:         fam.bounds.Load,
			PerCell:      fam.bounds.PerCell,
			CriticalPath: fam.bounds.CriticalPath,
		},
		Verified:     ent.verified,
		Cache:        trace,
		ElapsedNanos: int64(time.Since(begin)),
	}
	// The schedule is copied: the cached entry is shared and immutable.
	if w := ent.wres; w != nil {
		resp.Weighted = true
		resp.Makespan = int(w.Makespan)
		resp.Ratio = w.Ratio
		resp.StrongRatio = w.StrongRatio
		resp.WeightedBounds = &WeightedBoundsInfo{
			Load:         w.Bounds.Load,
			PerCell:      w.Bounds.PerCell,
			CriticalPath: w.Bounds.CriticalPath,
		}
		if req.IncludeSchedule {
			resp.Assign = append([]int32(nil), w.Schedule.Assign...)
			resp.Start64 = append([]int64(nil), w.Schedule.Start...)
			resp.Finish64 = append([]int64(nil), w.Schedule.Finish...)
		}
	} else {
		resp.Makespan = ent.res.Metrics.Makespan
		resp.C1 = ent.res.Metrics.C1
		resp.C2 = ent.res.Metrics.C2
		resp.Ratio = ent.res.Ratio
		if req.IncludeSchedule {
			resp.Assign = append([]int32(nil), ent.res.Schedule.Assign...)
			resp.Start = append([]int32(nil), ent.res.Schedule.Start...)
		}
	}
	if req.IncludeStats {
		snap := j.col.Snapshot()
		resp.Stats = &snap
	}
	return resp
}

// describe names the mesh for responses.
func (ms *MeshSpec) describe() string {
	switch {
	case ms.Family != "":
		return ms.Family
	case ms.Synthetic != "":
		return ms.Synthetic
	default:
		return "inline"
	}
}
