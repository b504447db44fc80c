package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sweepsched"
	"sweepsched/internal/dag"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/transport"
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
	// Verify enables internal/verify audits of produced schedules,
	// sampled per problem by VerifyEvery exactly as the CLIs' -verify
	// / -verify-every flags do. An audit failure is a 500.
	Verify bool
	// VerifyEvery audits only every Nth run per cached problem (≤ 1:
	// every run). Sampling state lives with the cached DAG family, so
	// it spans requests.
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
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/transport", s.handleTransport)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
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

	// Verified reports whether the run that produced this schedule was
	// audited by internal/verify (sampling may skip runs; a cache hit
	// reports the producing run's audit).
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

// rejectDraining refuses new work with 503 once BeginDrain was called.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	s.countStatus(http.StatusServiceUnavailable)
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server is draining"})
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.col.Counter("service.requests.healthz").Inc()
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness, distinct from /healthz liveness: a live
// server that is draining should be taken out of rotation without being
// restarted. New returns a server whose caches and admission semaphore
// are already live, so there is no initializing window to report.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.col.Counter("service.requests.readyz").Inc()
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
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

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.col.Counter("service.requests.schedule").Inc()
	defer s.col.Span("service.request.schedule.time").End()
	if s.rejectDraining(w) {
		return
	}
	req, err := DecodeScheduleRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.schedule(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.countStatus(http.StatusOK)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTransport(w http.ResponseWriter, r *http.Request) {
	s.col.Counter("service.requests.transport").Inc()
	defer s.col.Span("service.request.transport.time").End()
	if s.rejectDraining(w) {
		return
	}
	req, err := DecodeTransportRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.transport(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.countStatus(http.StatusOK)
	writeJSON(w, http.StatusOK, resp)
}

// schedule answers a validated /v1/schedule request. A schedule-tier
// hit is served without an admission slot (it is a map lookup plus the
// JSON encode); everything else runs inside the admission section.
func (s *Server) schedule(ctx context.Context, req *ScheduleRequest) (*ScheduleResponse, error) {
	begin := time.Now()
	reqCol := obs.New()

	meshKey, err := req.Mesh.meshKey()
	if err != nil {
		return nil, err
	}
	famKey := req.familyKey(meshKey)
	schedKey := req.scheduleKey(famKey)

	if v, ok := s.cache.schedules.get(schedKey); ok {
		s.col.Counter("service.cache.schedule.hit").Inc()
		ent := v.(*scheduleEntry)
		fam := s.familyPeek(famKey, ent)
		return s.scheduleResponse(req, ent, fam, CacheTrace{Schedule: "hit"}, reqCol, begin), nil
	}
	s.col.Counter("service.cache.schedule.miss").Inc()

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
	defer func() { s.adm.release(time.Since(admitted)) }()
	s.col.Counter("service.admission.admitted").Inc()
	if s.testHook != nil {
		s.testHook("admitted", ctx)
	}

	ent, fam, trace, err := s.scheduleEntryFor(ctx, req, meshKey, famKey, schedKey, reqCol)
	if err != nil {
		return nil, err
	}
	// The build may outrun cancellation on tiny problems: if the
	// client is already gone there is no one to deliver to, but the
	// entry stays cached for the next caller.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.scheduleResponse(req, ent, fam, trace, reqCol, begin), nil
}

// familyPeek fetches the family entry backing a cached schedule for
// bounds/shape reporting, refreshing its LRU position without counting a
// family-tier lookup; if the family tier already evicted it, the
// schedule entry's own pinned reference serves (the entry keeps its
// producing family alive).
func (s *Server) familyPeek(famKey string, ent *scheduleEntry) *familyEntry {
	if v, ok := s.cache.families.peek(famKey); ok {
		return v.(*familyEntry)
	}
	return ent.fam
}

// scheduleFlightResult carries a build's outcome through singleflight.
type scheduleFlightResult struct {
	ent   *scheduleEntry
	fam   *familyEntry
	trace CacheTrace
}

// scheduleEntryFor resolves the schedule-tier entry, building through
// the family and skeleton tiers on miss. Concurrent identical requests
// coalesce (flightGroup.do, which also retries a build its winner's
// client abandoned).
func (s *Server) scheduleEntryFor(ctx context.Context, req *ScheduleRequest, meshKey, famKey, schedKey string, reqCol *obs.Collector) (*scheduleEntry, *familyEntry, CacheTrace, error) {
	v, err, shared := s.cache.flight.do(ctx, "sched|"+schedKey, func() (any, error) {
		// A racer may have completed between our miss and this
		// flight: serve its entry.
		if v, ok := s.cache.schedules.peek(schedKey); ok {
			ent := v.(*scheduleEntry)
			return scheduleFlightResult{ent, s.familyPeek(famKey, ent), CacheTrace{Schedule: "hit"}}, nil
		}
		return s.buildSchedule(ctx, req, meshKey, famKey, schedKey, reqCol)
	})
	if err != nil {
		return nil, nil, CacheTrace{}, err
	}
	res := v.(scheduleFlightResult)
	if shared {
		s.col.Counter("service.flight.coalesced").Inc()
		res.trace.Coalesced = true
	}
	return res.ent, res.fam, res.trace, nil
}

// buildSchedule is the cold path: resolve the DAG family (itself
// cached and coalesced), run the scheduler, and store the result.
func (s *Server) buildSchedule(ctx context.Context, req *ScheduleRequest, meshKey, famKey, schedKey string, reqCol *obs.Collector) (any, error) {
	fam, famTrace, skelTrace, err := s.familyFor(ctx, req, meshKey, famKey)
	if err != nil {
		return nil, err
	}

	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.Workers
	}
	opts := sweepsched.ScheduleOptions{
		BlockSize:   req.BlockSize,
		Seed:        req.Seed,
		Workers:     workers,
		Verify:      s.cfg.Verify,
		VerifyEvery: s.cfg.VerifyEvery,
		Collector:   reqCol,
		Anglesets:   req.Anglesets,
	}
	span := s.col.Span("service.build.schedule.time")
	defer span.End()
	var (
		res  *sweepsched.Result
		wres *sweepsched.WeightedResult
	)
	switch {
	case req.Weighted:
		// The weighted path has no Ctx variant; cancellation is
		// observed before and after the kernel run.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		weights := sweepsched.LogNormalWeights(fam.prob.N(), 4, 0.75, req.WeightSeed)
		var model *sweepsched.MachineModel
		if len(req.Speeds) > 0 {
			speeds := make([]int32, fam.prob.M())
			for p := range speeds {
				speeds[p] = req.Speeds[p%len(req.Speeds)]
			}
			model = &sweepsched.MachineModel{Speeds: speeds}
		}
		wres, err = fam.prob.ScheduleWeightedMachine(sweepsched.Scheduler(req.Scheduler), opts, weights, model)
	case req.CommDelay > 0:
		// The comm-delay path has no Ctx variant; cancellation is
		// observed before and after the kernel run.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err = fam.prob.ScheduleComm(sweepsched.Scheduler(req.Scheduler), opts, req.CommDelay)
	default:
		res, err = fam.prob.ScheduleCtx(ctx, sweepsched.Scheduler(req.Scheduler), opts)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Every client-classifiable rejection is caught at validation
		// or family build; what reaches here (an invalid schedule, a
		// failed audit) indicates a server-side bug and stays a 500.
		return nil, err
	}
	s.col.Counter("service.build.schedule").Inc()
	ent := &scheduleEntry{
		res:      res,
		wres:     wres,
		verified: reqCol.Counter("api.verified").Value() > 0,
		fam:      fam,
	}
	if ent.verified {
		s.col.Counter("service.verify.audited").Inc()
	} else if s.cfg.Verify {
		s.col.Counter("service.verify.sampled_out").Inc()
	}
	s.cache.schedules.put(schedKey, ent, scheduleBytes(ent))
	return scheduleFlightResult{ent, fam, CacheTrace{Schedule: "miss", Family: famTrace, Skeleton: skelTrace}}, nil
}

// familyFor resolves the DAG-family tier: a ready-to-schedule Problem
// for (mesh content, direction set, m), built over the skeleton tier
// on miss. Sampling state for VerifyEvery lives on the cached Problem,
// so audits are sampled across all requests that share it.
func (s *Server) familyFor(ctx context.Context, req *ScheduleRequest, meshKey, famKey string) (*familyEntry, string, string, error) {
	if v, ok := s.cache.families.get(famKey); ok {
		s.col.Counter("service.cache.family.hit").Inc()
		return v.(*familyEntry), "hit", "", nil
	}
	s.col.Counter("service.cache.family.miss").Inc()

	type famOut struct {
		ent      *familyEntry
		skelText string
	}
	v, err, _ := s.cache.flight.do(ctx, "fam|"+famKey, func() (any, error) {
		if v, ok := s.cache.families.peek(famKey); ok {
			return famOut{v.(*familyEntry), ""}, nil
		}
		span := s.col.Span("service.build.family.time")
		defer span.End()

		var (
			prob     *sweepsched.Problem
			skelText string
			err      error
		)
		if syn := req.Mesh.Synthetic; syn != "" {
			prob, err = sweepsched.NewProblemNonGeometric(
				sweepsched.NonGeometricKind(syn), req.Mesh.N, req.Directions, req.Procs, req.Mesh.Seed)
			if err != nil {
				return nil, &RequestError{Msg: err.Error()}
			}
		} else {
			skelEnt, st, serr := s.skeletonFor(ctx, &req.Mesh, meshKey)
			if serr != nil {
				return nil, serr
			}
			skelText = st
			if tasks := int64(skelEnt.skel.NCells) * int64(req.Directions); tasks > MaxTasks {
				return nil, badRequest("mesh has %d cells: n*k = %d tasks exceeds the %d-task ceiling",
					skelEnt.skel.NCells, tasks, int64(MaxTasks))
			}
			workers := req.Workers
			if workers == 0 {
				workers = s.cfg.Workers
			}
			dirs, derr := quadrature.Octant(req.Directions)
			if derr != nil {
				return nil, &RequestError{Msg: derr.Error()}
			}
			dags := dag.BuildAllInto(make([]*dag.DAG, len(dirs)), skelEnt.skel, dirs, workers)
			s.col.Counter("service.build.dag_family").Inc()
			prob, err = sweepsched.NewProblemFromPrebuiltDAGs(skelEnt.mesh, dirs, dags, req.Procs)
			if err != nil {
				return nil, err
			}
		}
		ent := &familyEntry{prob: prob, bounds: prob.Bounds()}
		s.cache.families.put(famKey, ent, familyBytes(ent))
		return famOut{ent, skelText}, nil
	})
	if err != nil {
		return nil, "", "", err
	}
	out := v.(famOut)
	return out.ent, "miss", out.skelText, nil
}

// skeletonFor resolves the skeleton tier: the realized mesh plus its
// direction-independent interior-face skeleton, by mesh content key.
func (s *Server) skeletonFor(ctx context.Context, spec *MeshSpec, meshKey string) (*skeletonEntry, string, error) {
	if v, ok := s.cache.skeletons.get(meshKey); ok {
		s.col.Counter("service.cache.skeleton.hit").Inc()
		return v.(*skeletonEntry), "hit", nil
	}
	s.col.Counter("service.cache.skeleton.miss").Inc()

	v, err, _ := s.cache.flight.do(ctx, "skel|"+meshKey, func() (any, error) {
		if v, ok := s.cache.skeletons.peek(meshKey); ok {
			return v.(*skeletonEntry), nil
		}
		if s.testHook != nil {
			s.testHook("skeleton", ctx)
		}
		span := s.col.Span("service.build.skeleton.time")
		defer span.End()
		var (
			m   *mesh.Mesh
			err error
		)
		if spec.Family != "" {
			m, err = mesh.Family(spec.Family, spec.Scale, spec.Seed)
			if err != nil {
				return nil, &RequestError{Msg: err.Error()}
			}
		} else {
			m, err = mesh.Decode(strings.NewReader(spec.Encoded))
			if err != nil {
				return nil, badRequest("mesh: invalid encoded mesh: %v", err)
			}
			if err := m.Validate(); err != nil {
				return nil, badRequest("mesh: invalid encoded mesh: %v", err)
			}
		}
		ent := &skeletonEntry{mesh: m, skel: dag.NewSkeleton(m)}
		s.col.Counter("service.build.skeleton").Inc()
		s.cache.skeletons.put(meshKey, ent, skeletonBytes(ent))
		return ent, nil
	})
	if err != nil {
		return nil, "", err
	}
	return v.(*skeletonEntry), "miss", nil
}

// scheduleResponse shapes the response for one request from an
// (immutable, possibly shared) schedule entry.
func (s *Server) scheduleResponse(req *ScheduleRequest, ent *scheduleEntry, fam *familyEntry, trace CacheTrace, reqCol *obs.Collector, begin time.Time) *ScheduleResponse {
	p := fam.prob
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
	} else {
		resp.Makespan = ent.res.Metrics.Makespan
		resp.C1 = ent.res.Metrics.C1
		resp.C2 = ent.res.Metrics.C2
		resp.Ratio = ent.res.Ratio
	}
	if req.IncludeSchedule {
		// Copy: the cached entry is shared and must stay immutable.
		if w := ent.wres; w != nil {
			resp.Assign = append([]int32(nil), w.Schedule.Assign...)
			resp.Start64 = append([]int64(nil), w.Schedule.Start...)
			resp.Finish64 = append([]int64(nil), w.Schedule.Finish...)
		} else {
			resp.Assign = append([]int32(nil), ent.res.Schedule.Assign...)
			resp.Start = append([]int32(nil), ent.res.Schedule.Start...)
		}
	}
	if req.IncludeStats {
		snap := reqCol.Snapshot()
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

// transport answers a validated /v1/transport request: resolve the
// schedule through the cache, then run the serial discrete-ordinates
// source iteration over it. Solves are not cached (they are pure
// functions of a cached schedule, but carry per-cell flux fields whose
// retention the schedule tiers should not pay for); the schedule reuse
// is where the amortization lives.
func (s *Server) transport(ctx context.Context, req *TransportRequest) (*TransportResponse, error) {
	begin := time.Now()
	reqCol := obs.New()

	meshKey, err := req.Schedule.Mesh.meshKey()
	if err != nil {
		return nil, err
	}
	famKey := req.Schedule.familyKey(meshKey)
	schedKey := req.Schedule.scheduleKey(famKey)

	// The solve is always heavy, so transport requests take an
	// admission slot even when the schedule tier hits.
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
	defer func() { s.adm.release(time.Since(admitted)) }()
	s.col.Counter("service.admission.admitted").Inc()
	if s.testHook != nil {
		s.testHook("admitted", ctx)
	}

	var (
		ent   *scheduleEntry
		fam   *familyEntry
		trace CacheTrace
	)
	if v, ok := s.cache.schedules.get(schedKey); ok {
		s.col.Counter("service.cache.schedule.hit").Inc()
		ent = v.(*scheduleEntry)
		fam = s.familyPeek(famKey, ent)
		trace = CacheTrace{Schedule: "hit"}
	} else {
		s.col.Counter("service.cache.schedule.miss").Inc()
		ent, fam, trace, err = s.scheduleEntryFor(ctx, &req.Schedule, meshKey, famKey, schedKey, reqCol)
	}
	if err != nil {
		return nil, err
	}

	cfg := transport.Config{
		SigmaT:    req.SigmaT,
		SigmaS:    req.SigmaS,
		Source:    req.Source,
		Tol:       req.Tol,
		MaxIters:  req.MaxIters,
		Collector: reqCol,
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
		Schedule:     *s.scheduleResponse(&req.Schedule, ent, fam, trace, reqCol, begin),
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
