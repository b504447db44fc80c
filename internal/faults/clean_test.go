package faults

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"sweepsched/internal/heuristics"
	"sweepsched/internal/machine"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// countedRanks is the engine's own modelled Ranks, counting the steps it
// runs, in all and per epoch: an epoch run clean steps none.
type countedRanks struct {
	Ranks
	steps  int
	epochs []int // per epoch, the steps it ran
}

func (r *countedRanks) Epoch(n int, cur *sched.Schedule, assign sched.Assignment) error {
	r.epochs = append(r.epochs, 0)
	return r.Ranks.Epoch(n, cur, assign)
}

func (r *countedRanks) RunStep(ls, g int32, ckpt bool) ([]int32, error) {
	r.steps++
	r.epochs[len(r.epochs)-1]++
	return r.Ranks.RunStep(ls, g, ckpt)
}

// iterated is what a source iteration on an engine produced.
type iterated struct {
	phi    []float64
	report string
	comm   machine.Stats
	err    string
	steps  int   // the steps the ranks ran between barriers
	epochs []int // of them, per epoch
}

// iterate runs sweeps sweeps of a source iteration on a fresh engine for
// the plan — the transport solve's cell balance (Σt = 1, Σs = 0.5, a unit
// source) and its scalar flux, the directions' mean — with every epoch
// held to the step loop or not.
func iterate(t *testing.T, s *sched.Schedule, plan *Plan, noBatch, stepOnly bool, sweeps int) iterated {
	t.Helper()
	eng, err := NewEngine(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetNoBatch(noBatch)
	eng.stepOnly = stepOnly
	ranks := &countedRanks{Ranks: eng.ranks}
	eng.ranks = ranks
	n, k := s.Inst.N(), s.Inst.K()
	phi, psi := make([]float64, n), make([]float64, s.Inst.NTasks())
	bal := machine.Balance{Q: make([]float64, n), Denom: 2}
	var out iterated
	for range sweeps {
		for v := range bal.Q {
			bal.Q[v] = 1 + 0.5*phi[v]
		}
		if err := eng.Sweep(context.Background(), bal, psi); err != nil {
			out.err = err.Error()
			break
		}
		for v := range phi {
			sum := 0.0
			for i := range k {
				sum += psi[i*n+v]
			}
			phi[v] = sum / float64(k)
		}
	}
	out.phi, out.report, out.comm, out.steps, out.epochs = phi, eng.Report().String(), *eng.CommTraffic(), ranks.steps, ranks.epochs
	return out
}

// fuzzBox is FuzzFaultPlan's instance and schedule.
func fuzzBox(t *testing.T) *sched.Schedule {
	t.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 2, Jitter: 0.1, Seed: 5})
	return rdpSchedule(t, msh, 4, 4, 0x5eed)
}

// rdpSchedule is a random-delays-with-priorities schedule of msh's k
// directions over a per-cell random assignment to m processors.
func rdpSchedule(t testing.TB, msh *mesh.Mesh, k, m int, seed uint64) *sched.Schedule {
	t.Helper()
	dirs, err := quadrature.Octant(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameIteration fails unless the clean run and the stepped reference
// agree bit for bit on the flux and byte for byte on the report, the
// traffic and the error.
func sameIteration(t *testing.T, name string, got, want iterated) {
	t.Helper()
	if got.err != want.err {
		t.Fatalf("%s: error %q, stepping %q", name, got.err, want.err)
	}
	for v := range want.phi {
		if math.Float64bits(got.phi[v]) != math.Float64bits(want.phi[v]) {
			t.Fatalf("%s: cell %d's flux %v, stepping %v", name, v, got.phi[v], want.phi[v])
		}
	}
	if got.report != want.report || got.comm != want.comm {
		t.Fatalf("%s:\n%s %+v\nstepping:\n%s %+v", name, got.report, got.comm, want.report, want.comm)
	}
}

// TestCleanEpochsMatchStepping runs FuzzFaultPlan's corpus plans and the
// sweep-faulty workload's (tetonly at scale 0.05, k=8, m=8, a crash, two
// drops, a delay and a duplicate) through eight sweeps of a source
// iteration, on either interconnect, with clean epochs on and with every
// epoch held to the step loop: the flux bits, the RecoveryReport bytes,
// the traffic and the error must be the same. Some epochs run clean under
// every plan but seed 3's, which kills every processor. (Under seed 4's,
// some message events can no longer fire once recovery has moved their
// cells; the engine retires them after the last crash, so the epochs after
// it run clean.)
func TestCleanEpochsMatchStepping(t *testing.T) {
	box := fuzzBox(t)
	type run struct {
		name  string
		s     *sched.Schedule
		plan  *Plan
		clean bool
	}
	var runs []run
	for _, c := range []struct {
		seed                         uint64
		crashes, drops, delays, dups uint8
	}{{1, 1, 0, 0, 0}, {2, 0, 3, 2, 1}, {3, 4, 0, 0, 0}, {4, 2, 5, 5, 5}} {
		spec := Spec{Crashes: int(c.crashes % 6), Drops: int(c.drops % 8), Delays: int(c.delays % 8), Duplicates: int(c.dups % 8)}
		runs = append(runs, run{fmt.Sprintf("FuzzFaultPlan seed %d", c.seed), box, NewPlan(box, spec, c.seed), c.seed != 3})
	}
	msh, err := mesh.Family("tetonly", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	faulty := rdpSchedule(t, msh, 8, 8, 1)
	runs = append(runs, run{"sweep-faulty", faulty, NewPlan(faulty, Spec{Crashes: 1, Drops: 2, Delays: 1, Duplicates: 1, CheckpointEvery: 8}, 1), true})
	for _, r := range runs {
		for _, noBatch := range []bool{false, true} {
			name := fmt.Sprintf("%s (noBatch=%v)", r.name, noBatch)
			got, want := iterate(t, r.s, r.plan, noBatch, false, 8), iterate(t, r.s, r.plan, noBatch, true, 8)
			sameIteration(t, name, got, want)
			if clean := got.steps < want.steps; clean != r.clean {
				t.Fatalf("%s: %d steps run between barriers, %d stepping every epoch: some epoch clean is %v, want %v", name, got.steps, want.steps, clean, r.clean)
			}
		}
	}
}

// TestCleanEpochsWaitForThePlannedCrash: a plan whose only crash falls in
// the third sweep — its processor live until then, and no message event —
// keeps stepping until the crash has fired, so the crash fires where it
// does when every epoch steps. After it exactly one epoch steps per new
// layout: the residual epoch that ends the third sweep, and the fourth
// sweep's on the rebuilt schedule, which records the traffic the fifth and
// sixth then run clean with.
func TestCleanEpochsWaitForThePlannedCrash(t *testing.T) {
	s := fuzzBox(t)
	mk := int32(s.Makespan) // the global steps of a fault-free sweep
	plan := &Plan{Seed: 1, Events: []Event{{Kind: Crash, Proc: 1, Step: 2*mk + mk/2}}}
	for _, noBatch := range []bool{false, true} {
		name := fmt.Sprintf("crash at global step %d (noBatch=%v)", 2*mk+mk/2, noBatch)
		got, want := iterate(t, s, plan, noBatch, false, 6), iterate(t, s, plan, noBatch, true, 6)
		sameIteration(t, name, got, want)
		if rep := got.report; got.err != "" || !strings.Contains(rep, "crash=1") || !strings.Contains(rep, "dead=[1]") || !strings.Contains(rep, "epochs=7") {
			t.Fatalf("%s: %s (%s), want the planned crash applied and seven epochs", name, rep, got.err)
		}
		for i, n := range got.epochs {
			if stepped := i < 5; (n > 0) != stepped {
				t.Fatalf("%s: steps per epoch %v, want the first five stepped (three sweeps, the residual epoch, the rebuilt schedule's first) and the rest clean", name, got.epochs)
			}
		}
	}
}

// TestEmptyPlanStepsOnlyItsFirstSweep: with no plan, eight sweeps of a
// source iteration step their first, which records the layout's traffic,
// and run the other seven clean — as many steps between barriers as one
// stepped sweep — on either interconnect, agreeing bit for bit with every
// epoch stepped.
func TestEmptyPlanStepsOnlyItsFirstSweep(t *testing.T) {
	s := fuzzBox(t)
	for _, noBatch := range []bool{false, true} {
		got, want := iterate(t, s, nil, noBatch, false, 8), iterate(t, s, nil, noBatch, true, 8)
		sameIteration(t, fmt.Sprintf("no plan (noBatch=%v)", noBatch), got, want)
		one := iterate(t, s, nil, noBatch, true, 1)
		if got.steps != one.steps || len(got.epochs) != 8 {
			t.Fatalf("noBatch=%v: eight sweeps ran %d steps between barriers in %d epochs (%v), one stepped sweep %d", noBatch, got.steps, len(got.epochs), got.epochs, one.steps)
		}
	}
}

// TestUnroutedEventsRetireOnceNoCrashIsLeft: a message event whose (task,
// destination) has no route — task 0's flux into its own processor —
// stays pending while a crash is still planned on a live processor, after
// the first of two crashes too, since a crash moves cells; once the second
// has fired and the routes are laid out again it is retired, and the
// epochs after it run clean. It never fires, so it is not counted.
func TestUnroutedEventsRetireOnceNoCrashIsLeft(t *testing.T) {
	s := fuzzBox(t)
	mk := int32(s.Makespan)
	plan := &Plan{Seed: 1, Events: []Event{
		{Kind: Crash, Proc: 1, Step: mk / 2},
		{Kind: Crash, Proc: 2, Step: mk + mk/2},
		{Kind: Drop, Task: 0, To: s.Assign[0]},
	}}
	eng, err := NewEngine(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	psi := make([]float64, s.Inst.NTasks())
	for sweep, pending := range []bool{true, false, false} {
		if err := eng.Sweep(context.Background(), zeroBalance(s), psi); err != nil {
			t.Fatal(err)
		}
		rep := eng.Report()
		if eng.inj.Pending() != pending || rep.Crashes != min(sweep+1, 2) || rep.Drops != 0 {
			t.Fatalf("after sweep %d (%s): an event pending is %v, want %v", sweep+1, rep, eng.inj.Pending(), pending)
		}
	}
	if !eng.known {
		t.Fatal("no traffic recorded after the last crash: the retired event still holds the epochs to stepping")
	}
}
