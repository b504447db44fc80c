package faults_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"sweepsched/internal/faults"
	"sweepsched/internal/heuristics"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/transport"
)

// FuzzFaultPlan drives the fault-tolerant transport solver with arbitrary
// seed-derived fault plans over a small instance and checks the recovery
// invariant: the solve either converges to flux bitwise-identical to the
// fault-free serial solver, or fails with the typed UnrecoverableError
// (every processor crashed). Every plan runs on both interconnects —
// batched envelopes and the per-message NoBatch oracle — which must agree
// on the flux, the outcome, and the byte-rendered RecoveryReport (a
// planned fault hits the same logical message either way). It must never
// deadlock (a watchdog context turns a hang into a failure) and never
// return corrupt flux.
func FuzzFaultPlan(f *testing.F) {
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 2, Jitter: 0.1, Seed: 5})
	dirs, err := quadrature.Octant(4)
	if err != nil {
		f.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 4)
	if err != nil {
		f.Fatal(err)
	}
	r := rng.New(0x5eed)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		f.Fatal(err)
	}
	cfg := transport.Config{SigmaT: 1, SigmaS: 0.5, Source: 1}
	want, err := transport.SolveCtx(context.Background(), s, cfg)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint64(1), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(3), uint8(2), uint8(1))
	f.Add(uint64(3), uint8(4), uint8(0), uint8(0), uint8(0)) // all procs dead
	f.Add(uint64(4), uint8(2), uint8(5), uint8(5), uint8(5))

	f.Fuzz(func(t *testing.T, seed uint64, crashes, drops, delays, dups uint8) {
		spec := faults.Spec{
			Crashes:    int(crashes % 6),
			Drops:      int(drops % 8),
			Delays:     int(delays % 8),
			Duplicates: int(dups % 8),
		}
		plan := faults.NewPlan(s, spec, seed)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, rep, err := transport.SolveFaultTolerant(ctx, s, cfg, plan)
		noBatchCfg := cfg
		noBatchCfg.NoBatch = true
		nres, nrep, nerr := transport.SolveFaultTolerant(ctx, s, noBatchCfg, plan)
		if err != nil {
			var ue *faults.UnrecoverableError
			if !errors.As(err, &ue) {
				t.Fatalf("plan %s: %v (report %s)", plan, err, rep)
			}
			// Every processor crashed: the one legitimate failure. The
			// oracle must fail identically.
			if nerr == nil || !errors.As(nerr, &ue) {
				t.Fatalf("plan %s: batched unrecoverable but unbatched got %v", plan, nerr)
			}
			return
		}
		if nerr != nil {
			t.Fatalf("plan %s: batched converged but unbatched failed: %v (report %s)", plan, nerr, nrep)
		}
		if !res.Converged || !nres.Converged {
			t.Fatalf("plan %s: did not converge (batched %v unbatched %v, report %s)", plan, res.Converged, nres.Converged, rep)
		}
		for v := range want.Phi {
			if res.Phi[v] != want.Phi[v] || nres.Phi[v] != want.Phi[v] {
				t.Fatalf("plan %s: flux differs at cell %d: serial %g batched %g unbatched %g",
					plan, v, want.Phi[v], res.Phi[v], nres.Phi[v])
			}
		}
		if rs, ns := rep.String(), nrep.String(); rs != ns {
			t.Fatalf("plan %s: recovery reports differ across interconnects:\nbatched:   %s\nunbatched: %s", plan, rs, ns)
		}
	})
}
