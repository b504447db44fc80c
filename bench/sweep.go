package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sweepsched"
	"sweepsched/internal/mesh"
	"sweepsched/internal/obs"
	"sweepsched/internal/transport"
)

// The three executors a sweep workload can run its schedule on.
const (
	execGoroutine = "goroutine" // SolveTransportParallel
	execFaulty    = "faulty"    // SolveTransportFaultTolerant under a fault plan
	execProcs     = "procs"     // SolveTransportProcs: worker OS processes over TCP
)

// sweepParams sizes a sweep workload.
type sweepParams struct {
	exec   string
	scale  float64 // tetonly
	k, m   int
	sigmaS float64
	tol    float64
	faults sweepsched.FaultSpec
	// draws is how many schedules of the resident Problem, a fresh
	// schedule seed each, carry the quality metrics: enough of them for
	// the means to move little from one benchmark seed to the next.
	draws int
}

func sweepParamsFor(exec string, smoke bool) sweepParams {
	var p sweepParams
	switch exec {
	case execGoroutine:
		p = sweepParams{exec: exec, scale: 0.05, k: 24, m: 8, sigmaS: 0.5, tol: 1e-4, draws: 64}
	case execFaulty:
		p = sweepParams{exec: exec, scale: 0.05, k: 8, m: 8, sigmaS: 0.5, tol: 1e-6, draws: 64,
			faults: sweepsched.FaultSpec{Crashes: 1, Drops: 2, Delays: 1, Duplicates: 1, CheckpointEvery: 8}}
	case execProcs:
		p = sweepParams{exec: exec, scale: 0.005, k: 2, m: 2, sigmaS: 0.5, tol: 1e-2, draws: 1024,
			faults: sweepsched.FaultSpec{Crashes: 1, Severs: 1, CheckpointEvery: 8}}
	}
	if smoke {
		p.scale, p.tol, p.k, p.draws = 0.005, 1e-1, min(p.k, 2), 2
	}
	return p
}

// sweepOut is one operation's outcome: mesh in hand -> plan -> flux.
type sweepOut struct {
	phi    []float64
	iters  int
	comm   transport.CommStats
	report string // RecoveryReport / ProcRunReport text; must repeat byte for byte

	coldSeconds  float64 // the whole operation
	solveSeconds float64 // schedule in hand -> converged flux

	stepsExecuted, stepsFaultFree int
	epochs, recoveries, replayed  int
	reconnects                    int64
	ckptShards                    int
	ckptBytes                     int64
}

// sweepState is what a sweep workload's set-up leaves resident.
type sweepState struct {
	pp      sweepParams
	seed    uint64
	msh     *mesh.Mesh
	p       *sweepsched.Problem
	res     *sweepsched.Result
	ref     *sweepsched.TransportResult // the plain single-threaded solve every flux must equal
	tmpRoot string
}

func (st *sweepState) config(col *obs.Collector) sweepsched.TransportConfig {
	return sweepsched.TransportConfig{SigmaT: 1, SigmaS: st.pp.sigmaS, Source: 1, Tol: st.pp.tol, Collector: col}
}

// plan is the planning half of an operation: a fresh Problem the way a
// user of this executor must build it -- from the mesh in hand, or, for
// worker processes that rebuild the mesh themselves, from its family
// recipe -- and its audited schedule.
func (st *sweepState) plan() (*sweepsched.Problem, *sweepsched.Result, error) {
	var p *sweepsched.Problem
	var err error
	if st.pp.exec == execProcs {
		p, err = sweepsched.NewProblemFromFamily("tetonly", st.pp.scale, st.pp.k, st.pp.m, deriveSeed(st.seed, streamMesh, 0))
	} else {
		p, err = sweepsched.NewProblemFromMesh(st.msh, st.pp.k, st.pp.m)
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{
		Seed: deriveSeed(st.seed, streamSchedule, 0), Verify: true,
	})
	return p, res, err
}

// op runs one operation: a fresh Problem, its audited schedule, the
// fault plan, and the solve on the workload's executor, whose flux must
// be the serial solve's. noFaults runs the same executor under the empty
// plan (the traced run's fault-free control).
func (st *sweepState) op(sc *scope, col *obs.Collector, noFaults bool) (*sweepOut, error) {
	var (
		out  = &sweepOut{}
		p    *sweepsched.Problem
		res  *sweepsched.Result
		plan *sweepsched.FaultPlan
		err  error
		ctx  = context.Background()
		ckpt string
		conv bool
	)
	begin := time.Now()
	sc.do("api.plan", func() {
		if p, res, err = st.plan(); err == nil && !noFaults && !st.pp.faults.Empty() {
			plan = sweepsched.NewFaultPlan(res, st.pp.faults, deriveSeed(st.seed, streamFault, 0))
		}
	})
	if err != nil {
		return nil, err
	}
	if st.pp.exec == execProcs {
		if ckpt, err = os.MkdirTemp(st.tmpRoot, "ckpt-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(ckpt)
	}
	t0 := time.Now()
	sc.do("transport.solve", func() {
		switch st.pp.exec {
		case execGoroutine:
			var tr *sweepsched.TransportResult
			if tr, err = p.SolveTransportParallel(res, st.config(col)); err == nil {
				out.phi, out.iters, out.comm, conv = tr.Phi, tr.Iterations, tr.Comm, tr.Converged
			}
		case execFaulty:
			var tr *sweepsched.TransportResult
			var rep *sweepsched.RecoveryReport
			if tr, rep, err = p.SolveTransportFaultTolerant(ctx, res, st.config(col), plan); err == nil {
				out.phi, out.iters, out.comm, conv = tr.Phi, tr.Iterations, tr.Comm, tr.Converged
				out.recovery(rep)
			}
		case execProcs:
			var pr *sweepsched.ProcRunResult
			pr, err = p.SolveTransportProcs(ctx, res, st.config(nil), plan, sweepsched.ProcRunOptions{CkptDir: ckpt, Collector: col})
			if err == nil {
				out.phi, out.iters, out.comm, conv = pr.Phi, pr.Iterations, pr.Comm, pr.Converged
				out.recovery(&pr.Report.RecoveryReport)
				out.report = pr.Report.String()
				out.reconnects = pr.Report.Reconnects
			}
		}
	})
	end := time.Now()
	out.coldSeconds, out.solveSeconds = end.Sub(begin).Seconds(), end.Sub(t0).Seconds()
	if err != nil {
		return nil, err
	}
	if !conv {
		return nil, errors.New("the solve did not converge")
	}
	if ckpt != "" {
		err = filepath.WalkDir(ckpt, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			out.ckptShards++
			out.ckptBytes += info.Size()
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, sameFlux(out.phi, st.ref.Phi)
}

func (out *sweepOut) recovery(rep *sweepsched.RecoveryReport) {
	out.report = rep.String()
	out.stepsExecuted, out.stepsFaultFree = rep.StepsExecuted, rep.StepsFaultFree
	out.epochs, out.recoveries, out.replayed = rep.Epochs, rep.Recoveries, rep.TasksReplayed
}

// sameFlux requires the flux to be the serial solver's bit for bit.
func sameFlux(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("flux has %d cells, the serial solve %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("flux differs from the serial solve at cell %d: %v != %v", i, got[i], want[i])
		}
	}
	return nil
}

// runSweep is the sweep-goroutine, sweep-faulty and sweep-procs
// workloads.
func runSweep(r *run, pp sweepParams) error {
	st := &sweepState{pp: pp, seed: r.opts.seed, tmpRoot: filepath.Join(r.opts.out, "tmp")}
	if pp.exec == execProcs {
		if err := os.MkdirAll(st.tmpRoot, 0o755); err != nil {
			return err
		}
		defer os.Remove(st.tmpRoot) // leaves it only if another run still uses it
	}
	_, err := r.timeSetup(func() (func(), error) {
		var err error
		r.tr.root("setup", func(sc *scope) {
			sc.do("mesh.generate", func() {
				st.msh, err = mesh.Family("tetonly", pp.scale, deriveSeed(st.seed, streamMesh, 0))
			})
			if err != nil {
				return
			}
			sc.do("api.plan", func() { st.p, st.res, err = st.plan() })
			if err != nil {
				return
			}
			sc.do("transport.serial", func() { st.ref, err = st.p.SolveTransport(st.res, st.config(nil)) })
		})
		return nil, err
	})
	if err != nil {
		return err
	}
	if !st.ref.Converged {
		return errors.New("the serial reference solve did not converge")
	}

	// The quality metrics: the executed schedule is one draw, so they
	// average over more of the same Problem's (untraced run only; the
	// traced run does not report them).
	for i := 1; i <= pp.draws && !r.opts.trace; i++ {
		res, err := st.p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{
			Seed: deriveSeed(st.seed, streamSchedule, uint64(i)),
		})
		if r.attempt("quality schedule", err) {
			r.addQuality(0, res.Ratio, res.Metrics.C1, res.Metrics.C2, true)
		}
	}

	var first *sweepOut
	err = r.rounds(func(round int, t *tracer, col *obs.Collector) error {
		var out *sweepOut
		t.root("sweep.op", func(sc *scope) {
			var err error
			out, err = st.op(sc, col, false)
			if err == nil && first != nil && out.report != first.report {
				err = fmt.Errorf("recovery report changed between repetitions:\n%s\n%s", first.report, out.report)
			}
			r.attempt("solve", err)
		})
		if out == nil {
			return nil
		}
		if first == nil {
			first = out
		}
		if !r.opts.trace {
			r.sample("cold_s", out.coldSeconds)
			r.sample("warm_s", out.solveSeconds)
			return nil
		}
		if t == nil {
			r.sample("op.untraced", out.solveSeconds)
			return nil
		}
		r.sample("op.traced", out.solveSeconds)

		// Controls, traced rounds only: the plain single-threaded solve
		// of the same problem, the same operation on one P (what is left
		// when no barrier crosses CPUs), the flux-free simulator, and the
		// same executor under the empty fault plan.
		t.root("transport.serial", func(*scope) {
			tr, err := st.p.SolveTransport(st.res, st.config(nil))
			if err == nil {
				err = sameFlux(tr.Phi, st.ref.Phi)
			}
			r.attempt("serial solve", err)
		})
		if pp.exec != execProcs {
			t.root("transport.solve_1p", func(*scope) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				one, err := st.op(inertScope(), nil, false)
				if r.attempt("one-P solve", err) {
					r.sample("transport.solve_1p_s", one.solveSeconds)
				}
			})
		}
		if pp.exec == execGoroutine {
			t.root("simulate.run", func(*scope) {
				sim, err := st.p.Simulate(st.res)
				if r.attempt("simulate", err) {
					r.values["simulate.steps"] = float64(sim.Steps)
				}
			})
		}
		if pp.exec == execFaulty {
			t.root("faults.faultfree_solve", func(*scope) {
				// Its plan and solve must not count as the faulty ones.
				ff, err := st.op(inertScope(), nil, true)
				if r.attempt("fault-free solve", err) {
					r.sample("faults.faultfree_solve_s", ff.solveSeconds)
				}
			})
		}
		if round == 0 {
			r.sweepCounts(out, col.Snapshot())
		}
		return nil
	})
	if pp.exec == execProcs && first != nil && first.stepsExecuted > 0 {
		r.values["procrun.step_us"] = median(r.samples["op.traced"]) / float64(first.stepsExecuted) * 1e6
	}
	return err
}

// sweepCounts records the first traced operation's counts; they repeat
// exactly, so one operation speaks for all.
func (r *run) sweepCounts(out *sweepOut, snap obs.Snapshot) {
	c := out.comm
	r.values["transport.iterations"] = float64(out.iters)
	r.values["comm.messages"] = float64(c.Messages)
	r.values["comm.batches"] = float64(c.Batches)
	r.values["comm.bytes"] = float64(c.Bytes)
	r.values["comm.rounds"] = float64(c.Rounds)
	if c.Batches > 0 {
		r.values["comm.msgs_per_batch"] = float64(c.Messages) / float64(c.Batches)
	}
	if out.stepsFaultFree > 0 {
		r.values["faults.epochs"] = float64(out.epochs)
		r.values["faults.recoveries"] = float64(out.recoveries)
		r.values["faults.tasks_replayed"] = float64(out.replayed)
		r.values["faults.steps_executed"] = float64(out.stepsExecuted)
		r.values["faults.recovery_penalty_frac"] = float64(out.stepsExecuted-out.stepsFaultFree) / float64(out.stepsFaultFree)
	}
	for _, tv := range snap.Timers {
		if tv.Name == "sched.residual.time" {
			r.values["faults.residual_s"] = float64(tv.TotalNanos) / 1e9
		}
	}
	if out.ckptShards > 0 {
		r.values["procrun.frames"] = float64(c.Batches)
		r.values["procrun.bytes"] = float64(c.Bytes)
		r.values["procrun.reconnects"] = float64(out.reconnects)
		r.values["procrun.kills"] = float64(snap.CounterValue("procrun.kills"))
		r.values["procrun.ckpt_shards"] = float64(out.ckptShards)
		r.values["procrun.ckpt_bytes"] = float64(out.ckptBytes)
	}
}
