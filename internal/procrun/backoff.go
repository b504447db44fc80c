package procrun

import (
	"time"

	"sweepsched/internal/rng"
)

// The clocks of a multi-process run. Each worker pings every
// heartbeatInterval; the orchestrator declares a live worker dead after
// heartbeatTimeout without a frame from it (comfortably more than the
// interval), and a worker treats its link as lost after
// workerReadTimeout without a frame from the orchestrator.
const (
	heartbeatInterval = 200 * time.Millisecond
	heartbeatTimeout  = 10 * time.Second
	workerReadTimeout = 30 * time.Second
)

// A worker's bounded reconnect loop: attempt i (0-based) waits
//
//	min(backoffBase·backoffFactor^i, backoffMax) · (½ + ½·u_i)
//
// where u_i ∈ [0,1) is deterministic jitter drawn from a splitmix
// substream of (plan seed, rank) — every run of the same plan reconnects
// on the same clock, yet distinct ranks never thunder in herd. After
// backoffAttempts failures the worker gives up and exits, so a worker
// orphaned by a dead orchestrator terminates itself instead of lingering.
const (
	backoffBase     = 50 * time.Millisecond
	backoffMax      = 2 * time.Second
	backoffFactor   = 2
	backoffAttempts = 6
)

// backoffDelays materializes the full (bounded) wait sequence for one
// rank under a plan seed.
func backoffDelays(seed uint64, rank int32) []time.Duration {
	jit := rng.New(seed ^ 0x9e3779b97f4a7c15).Substream(uint64(rank))
	ds := make([]time.Duration, backoffAttempts)
	wait := float64(backoffBase)
	for i := range ds {
		w := min(wait, float64(backoffMax))
		ds[i] = time.Duration(w * (0.5 + 0.5*jit.Float64()))
		wait *= backoffFactor
	}
	return ds
}
