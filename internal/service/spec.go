// Package service is the scheduling-as-a-service layer: a stdlib
// net/http daemon (cmd/sweepschedd) that accepts mesh/quadrature/
// processor specs as JSON, runs the sweep-scheduling pipeline, and
// returns schedules, metrics and transport solves.
//
// Behind the handlers sits a content-addressed cache at three tiers —
// mesh Skeleton, induced DAG family (as a ready-to-schedule Problem),
// and finished Schedule — keyed by mesh content × direction set × m ×
// scheduling options, each resolved by Server.fetch with an LRU byte
// budget and singleflight coalescing of concurrent identical builds,
// and one admission gate that converts overload into fast 429s instead
// of collapse. See DESIGN.md §10.
//
// What clients may rely on:
//
//   - A warm identical request runs no DAG build and no scheduler. Workers
//     is in no cache key: the output is bit-identical for every worker
//     count.
//   - Concurrent identical misses at any tier share one build. A follower
//     waits on its own context; if the build dies of its winner's context
//     error, the followers still waiting retry and one becomes the winner.
//     Each tier's stats count a cold request's miss once.
//   - Builds and solves take an admission slot; a request that cannot get
//     one within the queue timeout is refused 429 with Retry-After =
//     ceil((queued+1)·meanService/slots) seconds, clamped to [1, 60].
//     Schedule-tier hits take no slot.
//   - A malformed or out-of-range spec, or a scheduler heuristics.Check
//     refuses under the spec's model, is a 400 and builds nothing; a
//     vanished client is a 499, an expired deadline a 504, a draining
//     server a 503. On SIGTERM /healthz and /readyz turn 503, new work
//     is refused and in-flight requests finish.
//   - A cached schedule pins its family entry, so evicting a family never
//     leaves a resident schedule without its bounds.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"strings"

	"sweepsched"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/mesh"
)

// Size ceilings enforced at validation time. They bound what a single
// request may ask the daemon to build, so a malformed or hostile spec
// is a 400, not an allocation storm. They are generous relative to the
// paper's instances (prismtet at scale 1.0 is ~141k cells).
const (
	MaxScale      = 4.0      // mesh scale relative to paper size
	MaxDirections = 512      // k
	MaxProcs      = 1 << 20  // m
	MaxSynthCells = 1 << 20  // n for non-geometric families
	MaxTasks      = 64 << 20 // n·k after the mesh is realized
	MaxCommDelay  = 1 << 20  // uniform comm delay c
	maxIters      = 10000    // transport iteration cap max_iters (20× its default)
	MaxBlockSize  = 1 << 20  // §5.1 block size
	MaxBody       = 32 << 20 // request body bytes (inline meshes)

	// Weighted-run ceilings: the speeds pattern is cycled over m, so a
	// short pattern covers any machine; entries are per-processor speeds.
	MaxSpeedEntries = 4096
	MaxSpeed        = 1 << 20
)

// RequestError marks a client-side error: anything wrapped in it is
// 4xx-classifiable (the fuzz target FuzzScheduleRequest holds the spec
// decoder to exactly this contract). Status is the HTTP status to
// return; 0 means 400.
type RequestError struct {
	Status int
	Msg    string
}

func (e *RequestError) Error() string { return e.Msg }

// badRequest wraps a formatted message as a 400-classifiable error.
func badRequest(format string, args ...any) error {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// StatusOf classifies an error for HTTP: RequestErrors map to their
// status (default 400), everything else to 500.
func StatusOf(err error) int {
	var re *RequestError
	if errors.As(err, &re) {
		if re.Status != 0 {
			return re.Status
		}
		return 400
	}
	return 500
}

// MeshSpec names the mesh (or non-geometric DAG family) a request is
// over. Exactly one of Family, Encoded and Synthetic must be set.
type MeshSpec struct {
	// Family is a built-in synthetic mesh family (tetonly, well_logging,
	// long, prismtet), generated at Scale × the paper's cell count with
	// the given Seed.
	Family string  `json:"family,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`

	// Encoded is an inline mesh in the plain-text sweepmesh format
	// (cmd/meshgen, mesh.Encode). Cached by content hash.
	Encoded string `json:"encoded,omitempty"`

	// Synthetic is a non-geometric DAG family (random_chains,
	// layered_random, heuristic_trap) over N cells with the given Seed.
	// The skeleton tier does not apply (there is no mesh); such
	// problems are cached whole at the DAG-family tier.
	Synthetic string `json:"synthetic,omitempty"`
	N         int    `json:"n,omitempty"`
}

// ScheduleRequest is the body of POST /v1/schedule.
type ScheduleRequest struct {
	Mesh MeshSpec `json:"mesh"`

	// Directions is k, the size of the S_N-style octant direction set.
	Directions int `json:"directions"`
	// Procs is m, the processor count.
	Procs int `json:"procs"`

	// Scheduler is one of sweepsched.Schedulers(); default
	// random_delays_priority (the paper's Algorithm 2). Which run under
	// the model the other fields pick is heuristics.Check's to say.
	Scheduler string `json:"scheduler,omitempty"`
	// BlockSize ≤ 1 assigns cells to processors independently at
	// random; larger values use §5.1 block partitioning.
	BlockSize int `json:"block_size,omitempty"`
	// Seed drives delays and assignment; identical requests (same seed)
	// return identical schedules, which is what makes them cacheable.
	Seed uint64 `json:"seed,omitempty"`
	// CommDelay > 0 schedules under the §3 uniform delay model.
	CommDelay int `json:"comm_delay,omitempty"`
	// Anglesets > 0 aggregates the per-direction pipeline into about
	// this many octant anglesets (priorities once per angleset on
	// representative DAGs; see ScheduleOptions.Anglesets); 0 keeps the
	// per-direction pipeline. Aggregation changes tie-breaking, so the
	// value is part of the schedule cache key.
	Anglesets int `json:"anglesets,omitempty"`

	// Weighted runs the heterogeneous-cost engine: per-cell integer
	// weights drawn log-normal (median 4, σ 0.75) from WeightSeed, so
	// identical requests stay cacheable.
	Weighted   bool   `json:"weighted,omitempty"`
	WeightSeed uint64 `json:"weight_seed,omitempty"`
	// Speeds gives per-processor integer speeds for a weighted run
	// (duration = ceil(weight/speed)); the pattern is cycled over the m
	// processors. Empty means the uniform machine.
	Speeds []int32 `json:"speeds,omitempty"`

	// Workers bounds the per-direction pipeline parallelism of this
	// request (0 = server default). Output is bit-identical for every
	// value, so Workers is deliberately NOT part of any cache key.
	Workers int `json:"workers,omitempty"`

	// IncludeSchedule adds the full per-task start steps and cell
	// assignment to the response (they can be large).
	IncludeSchedule bool `json:"include_schedule,omitempty"`
	// IncludeStats adds the per-request obs.Snapshot to the response.
	IncludeStats bool `json:"include_stats,omitempty"`
}

// TransportRequest is the body of POST /v1/transport: a schedule spec
// plus the discrete-ordinates physics to solve with it. The schedule
// is obtained through the same cache as /v1/schedule.
type TransportRequest struct {
	Schedule ScheduleRequest `json:"schedule"`

	SigmaT   float64 `json:"sigma_t"`             // total cross-section (> 0)
	SigmaS   float64 `json:"sigma_s"`             // scattering cross-section (0 ≤ σs < σt)
	Source   float64 `json:"source"`              // uniform external source
	Tol      float64 `json:"tol,omitempty"`       // convergence threshold
	MaxIters int     `json:"max_iters,omitempty"` // iteration cap

	// IncludeFlux adds the converged per-cell scalar flux.
	IncludeFlux bool `json:"include_flux,omitempty"`
}

// DecodeScheduleRequest parses and validates a /v1/schedule body.
// Every error it returns is 4xx-classifiable via StatusOf.
func DecodeScheduleRequest(r io.Reader) (*ScheduleRequest, error) {
	var req ScheduleRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeTransportRequest parses and validates a /v1/transport body.
func DecodeTransportRequest(r io.Reader) (*TransportRequest, error) {
	var req TransportRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// decodeStrict decodes exactly one JSON document, rejecting unknown
// fields and trailing garbage, and classifies every failure as 400.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		// http.MaxBytesReader surfaces oversized bodies through the
		// decoder; report those as 413, everything else as 400.
		if strings.Contains(err.Error(), "request body too large") {
			return &RequestError{Status: 413, Msg: "request body too large"}
		}
		return badRequest("invalid JSON request: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after JSON request")
	}
	return nil
}

// Validate checks the mesh spec without realizing the mesh.
func (ms *MeshSpec) Validate() error {
	set := 0
	for _, s := range []string{ms.Family, ms.Encoded, ms.Synthetic} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return badRequest("mesh: exactly one of family, encoded and synthetic must be set")
	}
	switch {
	case ms.Family != "":
		if !slices.Contains(mesh.FamilyNames(), ms.Family) {
			return badRequest("mesh: unknown family %q (want one of %v)", ms.Family, mesh.FamilyNames())
		}
		if ms.Scale <= 0 || ms.Scale > MaxScale || math.IsNaN(ms.Scale) {
			return badRequest("mesh: scale must be in (0, %v], got %v", MaxScale, ms.Scale)
		}
		if ms.N != 0 {
			return badRequest("mesh: n applies only to synthetic families")
		}
	case ms.Encoded != "":
		if ms.Scale != 0 || ms.Seed != 0 || ms.N != 0 {
			return badRequest("mesh: scale/seed/n do not apply to an inline encoded mesh")
		}
	case ms.Synthetic != "":
		switch sweepsched.NonGeometricKind(ms.Synthetic) {
		case sweepsched.RandomChains, sweepsched.LayeredRandom, sweepsched.HeuristicTrap:
		default:
			return badRequest("mesh: unknown synthetic kind %q", ms.Synthetic)
		}
		if ms.N <= 0 || ms.N > MaxSynthCells {
			return badRequest("mesh: synthetic n must be in [1, %d], got %d", MaxSynthCells, ms.N)
		}
		if ms.Scale != 0 {
			return badRequest("mesh: scale does not apply to synthetic families")
		}
	}
	return nil
}

// Validate checks ranges and cross-field constraints. It never builds
// anything, so validation cost is independent of the requested sizes.
func (req *ScheduleRequest) Validate() error {
	if err := req.Mesh.Validate(); err != nil {
		return err
	}
	if req.Directions <= 0 || req.Directions > MaxDirections {
		return badRequest("directions must be in [1, %d], got %d", MaxDirections, req.Directions)
	}
	if req.Procs <= 0 || req.Procs > MaxProcs {
		return badRequest("procs must be in [1, %d], got %d", MaxProcs, req.Procs)
	}
	if req.Scheduler == "" {
		req.Scheduler = string(sweepsched.RandomDelaysPriority)
	}
	if req.BlockSize < 0 || req.BlockSize > MaxBlockSize {
		return badRequest("block_size must be in [0, %d], got %d", MaxBlockSize, req.BlockSize)
	}
	if req.CommDelay < 0 || req.CommDelay > MaxCommDelay {
		return badRequest("comm_delay must be in [0, %d], got %d", MaxCommDelay, req.CommDelay)
	}
	if req.Workers < 0 {
		return badRequest("workers must be >= 0, got %d", req.Workers)
	}
	if req.Anglesets < 0 || req.Anglesets > MaxDirections {
		return badRequest("anglesets must be in [0, %d], got %d", MaxDirections, req.Anglesets)
	}
	if err := heuristics.Check(sweepsched.Scheduler(req.Scheduler), req.model()); err != nil {
		return &RequestError{Msg: err.Error()}
	}
	if !req.Weighted {
		if req.WeightSeed != 0 {
			return badRequest("weight_seed applies only to weighted runs (set weighted: true)")
		}
		if len(req.Speeds) != 0 {
			return badRequest("speeds apply only to weighted runs (set weighted: true)")
		}
	} else {
		if len(req.Speeds) > MaxSpeedEntries {
			return badRequest("speeds pattern must have at most %d entries, got %d", MaxSpeedEntries, len(req.Speeds))
		}
		for i, sp := range req.Speeds {
			if sp <= 0 || sp > MaxSpeed {
				return badRequest("speeds[%d] must be in [1, %d], got %d", i, MaxSpeed, sp)
			}
		}
	}
	if req.Mesh.Synthetic != "" {
		// Synthetic cell counts are known without building; family/inline
		// meshes are re-checked against MaxTasks after realization.
		if tasks := int64(req.Mesh.N) * int64(req.Directions); tasks > MaxTasks {
			return badRequest("n*k = %d tasks exceeds the %d-task ceiling", tasks, int64(MaxTasks))
		}
	}
	return nil
}

// model is the request's heuristics.Model, known before anything is
// built: the API entry point the daemon plans it through
// (ScheduleWeightedMachine, ScheduleComm or ScheduleCtx) and whether the
// problem it builds has a mesh.
func (req *ScheduleRequest) model() heuristics.Model {
	return heuristics.Model{
		Anglesets:    req.Anglesets > 0,
		CommDelay:    req.CommDelay > 0,
		Weighted:     req.Weighted,
		Blocks:       req.BlockSize > 1,
		NonGeometric: req.Mesh.Synthetic != "",
	}
}

// Validate checks the physics on top of the embedded schedule spec.
func (req *TransportRequest) Validate() error {
	if err := req.Schedule.Validate(); err != nil {
		return err
	}
	if req.Schedule.Weighted {
		return badRequest("transport solves execute unit-task schedules; weighted runs are schedule-only")
	}
	if req.SigmaT <= 0 || math.IsNaN(req.SigmaT) || math.IsInf(req.SigmaT, 0) {
		return badRequest("sigma_t must be positive and finite, got %v", req.SigmaT)
	}
	if req.SigmaS < 0 || req.SigmaS >= req.SigmaT || math.IsNaN(req.SigmaS) {
		return badRequest("need 0 <= sigma_s < sigma_t, got sigma_s=%v sigma_t=%v", req.SigmaS, req.SigmaT)
	}
	if req.Source < 0 || math.IsNaN(req.Source) || math.IsInf(req.Source, 0) {
		return badRequest("source must be non-negative and finite, got %v", req.Source)
	}
	if req.Tol < 0 || math.IsNaN(req.Tol) {
		return badRequest("tol must be >= 0, got %v", req.Tol)
	}
	if req.MaxIters < 0 || req.MaxIters > maxIters {
		return badRequest("max_iters must be in [0, %d], got %d", maxIters, req.MaxIters)
	}
	return nil
}

// meshKey is the content address of the request's mesh. Family and
// synthetic meshes are generated by deterministic functions of their
// spec, so the spec is the content address; inline meshes are decoded
// and hashed over their canonical re-encoding (two textually different
// encodings of the same mesh share an address), and the decoded mesh is
// returned for the skeleton build.
func (ms *MeshSpec) meshKey() (string, *mesh.Mesh, error) {
	switch {
	case ms.Family != "":
		return fmt.Sprintf("fam:%s/%x/%d", ms.Family, math.Float64bits(ms.Scale), ms.Seed), nil, nil
	case ms.Synthetic != "":
		return fmt.Sprintf("syn:%s/%d/%d", ms.Synthetic, ms.N, ms.Seed), nil, nil
	default:
		m, err := mesh.Decode(strings.NewReader(ms.Encoded))
		if err != nil {
			return "", nil, badRequest("mesh: invalid encoded mesh: %v", err)
		}
		h := fnv.New64a()
		if err := mesh.Encode(h, m); err != nil {
			return "", nil, fmt.Errorf("service: canonical mesh re-encoding failed: %w", err)
		}
		return fmt.Sprintf("enc:%016x", h.Sum64()), m, nil
	}
}

// familyKey addresses the DAG-family tier: mesh content × direction
// set × m. Synthetic families fold k into DAG generation itself, but
// Directions appears in the key either way.
func (req *ScheduleRequest) familyKey(meshKey string) string {
	return fmt.Sprintf("%s|k:%d|m:%d", meshKey, req.Directions, req.Procs)
}

// scheduleKey addresses the finished-schedule tier: the family key ×
// every option that affects scheduling output. Workers is excluded —
// output is bit-identical for every worker count (DESIGN.md, "Determinism") — as
// are the response-shaping flags.
func (req *ScheduleRequest) scheduleKey(familyKey string) string {
	key := fmt.Sprintf("%s|alg:%s|block:%d|seed:%d|c:%d|as:%d",
		familyKey, req.Scheduler, req.BlockSize, req.Seed, req.CommDelay, req.Anglesets)
	if req.Weighted {
		// Weighted runs are addressed by the weight draw and the machine
		// (the speeds pattern, pre-cycling). Unweighted keys are unchanged.
		key = fmt.Sprintf("%s|w:%d|sp:%v", key, req.WeightSeed, req.Speeds)
	}
	return key
}
