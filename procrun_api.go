package sweepsched

import (
	"context"
	"errors"

	"sweepsched/internal/procrun"
)

// ProcRunOptions configures the multi-process sweep executor: the durable
// checkpoint directory, the worker binary to spawn and the collector. The
// heartbeat, read-timeout and reconnect-backoff clocks are fixed; the
// backoff's jitter is drawn from the fault plan's seed.
type ProcRunOptions = procrun.Options

// ProcRunResult is a completed multi-process solve: converged flux, the
// recovery accounting, and the merged worker metrics snapshot.
type ProcRunResult = procrun.RunResult

// MaybeProcWorker turns the current process into a sweep worker if it
// was spawned by the multi-process orchestrator (re-exec style), never
// returning in that case. Binaries that want to host workers — anything
// calling SolveTransportProcs with the default worker binary — must call
// it first thing in main. A no-op otherwise.
func MaybeProcWorker() { procrun.MaybeWorker() }

// SolveTransportProcs runs the transport source iteration across real
// worker OS processes over localhost TCP: every planned crash in the
// fault plan is delivered as an actual SIGKILL at its barrier step and
// every planned sever as a closed socket, with recovery rolling back to
// the workers' durable on-disk checkpoints. Under any plan that leaves
// at least one worker alive, the converged flux is bitwise-identical to
// the serial SolveTransport.
//
// The problem must have been built with NewProblemFromFamily — workers
// rebuild the mesh locally from its construction recipe, so there is no
// way to ship a caller-provided mesh.
func (p *Problem) SolveTransportProcs(ctx context.Context, res *Result, cfg TransportConfig, plan *FaultPlan, opts ProcRunOptions) (*ProcRunResult, error) {
	if p.recipe == nil {
		return nil, errors.New("sweepsched: multi-process execution needs a family-built problem (workers rebuild the mesh from its construction recipe)")
	}
	// Workers rebuild this problem's mesh, not the schedule's.
	s, err := p.scheduleOf(res)
	if err != nil {
		return nil, err
	}
	return procrun.Run(ctx, s, *p.recipe, cfg, plan, opts)
}
