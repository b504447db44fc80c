package faults

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sweepsched/internal/heuristics"
	"sweepsched/internal/machine"
	"sweepsched/internal/mesh"
	"sweepsched/internal/quadrature"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// logRanks is the in-process Ranks held to the per-processor reference
// after every step: what its completion log gained is, over the live
// processors in ascending order, Steps.Tasks(p, ls)[:Acks[p].Completed].
// It keeps that reference per processor since the last checkpoint, and at
// every Kill the log must take back in done exactly what the reference's
// victims' logs hold.
type logRanks struct {
	*modelled
	t            *testing.T
	name         string
	ref          [][]sched.TaskID // per processor: its completions since the last checkpoint
	steps, kills int
	rolledBack   int
}

func newLogRanks(t *testing.T, name string, r *modelled, m int) *logRanks {
	return &logRanks{modelled: r, t: t, name: name, ref: make([][]sched.TaskID, m)}
}

func (r *logRanks) RunStep(ls, g int32, ckpt bool) ([]int32, error) {
	if ckpt {
		for p := range r.ref {
			r.ref[p] = r.ref[p][:0]
		}
	}
	before := len(r.since)
	if ckpt {
		before = 0
	}
	lost, err := r.modelled.RunStep(ls, g, ckpt)
	mc := r.mc
	var want []sched.TaskID
	for _, p := range mc.Procs {
		ran := mc.Steps.Tasks(p, ls)[:mc.Acks[p].Completed]
		want = append(want, ran...)
		r.ref[p] = append(r.ref[p], ran...)
	}
	if got := r.since[before:]; !slices.Equal(got, want) {
		r.t.Fatalf("%s: global step %d: logged %v, the live processors' rows completed %v", r.name, g, got, want)
	}
	r.steps++
	return lost, err
}

func (r *logRanks) Kill(dying []int32, done []bool) int {
	want, wantLost := slices.Clone(done), 0
	for _, p := range dying {
		for _, t := range r.ref[p] {
			if want[t] {
				want[t] = false
				wantLost++
			}
		}
	}
	for p := range r.ref {
		r.ref[p] = r.ref[p][:0]
	}
	lost := r.modelled.Kill(dying, done)
	if lost != wantLost || !slices.Equal(done, want) {
		r.t.Fatalf("%s: killing %v took back %d completions, the per-processor logs %d (or other ones)", r.name, dying, lost, wantLost)
	}
	r.kills++
	r.rolledBack += lost
	return lost
}

// fuzzSchedule is FuzzFaultPlan's instance and schedule.
func fuzzSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	msh := mesh.KuhnBox(mesh.BoxSpec{NX: 3, NY: 3, NZ: 2, Jitter: 0.1, Seed: 5})
	dirs, err := quadrature.Octant(4)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(msh, dirs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(0x5eed)
	s, err := heuristics.Run(heuristics.RandomDelaysPriority, inst, sched.RandomAssignment(inst.N(), inst.M, r), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sweepLogged runs sweeps of s under plan with the engine's ranks held to
// the reference, on the given interconnect, and returns them. An engine
// that lost every processor stops the sweeps.
func sweepLogged(t *testing.T, name string, s *sched.Schedule, plan *Plan, noBatch bool, sweeps int) (*Engine, *logRanks) {
	t.Helper()
	eng, err := NewEngine(s, plan)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetNoBatch(noBatch)
	lr := newLogRanks(t, name, eng.ranks.(*modelled), s.Inst.M)
	eng.ranks = lr // in process still: the engine passes over empty steps as it does for modelled
	psi := make([]float64, s.Inst.NTasks())
	for range sweeps {
		err := eng.Sweep(context.Background(), zeroBalance(s), psi)
		var ue *UnrecoverableError
		if errors.As(err, &ue) {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return eng, lr
}

// TestCompletionLogMatchesPerProcessorReference: the completion log the
// in-process ranks keep in one pass over a step's positions is, after
// every step, the per-processor reference over the live processors, and
// a Kill rolls back the same completions. On FuzzFaultPlan's instance
// under its seed corpus, both interconnects, several sweeps each; under a
// plan whose crash fires in the epoch after one a stall ended, with no
// checkpoint between, so the victim's log spans both epochs; and on a
// machine one of whose processors is not live.
func TestCompletionLogMatchesPerProcessorReference(t *testing.T) {
	s := fuzzSchedule(t)
	for _, c := range []struct {
		seed                         uint64
		crashes, drops, delays, dups int
	}{{1, 1, 0, 0, 0}, {2, 0, 3, 2, 1}, {3, 4, 0, 0, 0}, {4, 2, 5, 5, 5}} {
		plan := NewPlan(s, Spec{Crashes: c.crashes, Drops: c.drops, Delays: c.delays, Duplicates: c.dups}, c.seed)
		for _, noBatch := range []bool{false, true} {
			name := fmt.Sprintf("corpus seed %d noBatch=%v", c.seed, noBatch)
			if _, lr := sweepLogged(t, name, s, plan, noBatch, 4); lr.steps == 0 || c.crashes > 0 && lr.kills == 0 {
				t.Fatalf("%s: %d steps checked, %d kills", name, lr.steps, lr.kills)
			}
		}
	}

	// A drop that stalls epoch 1 at step at, then a crash of processor 1 two
	// steps into epoch 2; no checkpoint falls due.
	var routes machine.Machine
	routes.Build(s.Inst, s.Assign)
	drop, at := Event{Kind: Drop, Task: -1}, int32(s.Makespan)
	for u := range sched.TaskID(s.Inst.NTasks()) {
		for _, o := range routes.Recv.Out(routes.Recv.Pos(u)) {
			if st := s.Start[o.Consumer]; st >= 4 && st < at && s.Assign[int(u)%s.Inst.N()] == 1 {
				drop, at = Event{Kind: Drop, Task: u, To: o.To}, st
			}
		}
	}
	if drop.Task < 0 {
		t.Fatal("no message of processor 1 to drop")
	}
	plan := &Plan{Seed: 1, Spec: Spec{CheckpointEvery: 1 << 20}, Events: []Event{drop, {Kind: Crash, Proc: 1, Step: at + 3}}}
	for _, noBatch := range []bool{false, true} {
		name := fmt.Sprintf("crash after a stall, noBatch=%v", noBatch)
		eng, lr := sweepLogged(t, name, s, plan, noBatch, 1)
		if rep := eng.Report(); rep.Recoveries != 2 || rep.Crashes != 1 || rep.Drops != 1 || lr.rolledBack == 0 {
			t.Fatalf("%s: %s, %d completions rolled back: want a stall, then a crash that loses work", name, rep, lr.rolledBack)
		}
	}

	// Processor 2 not live: its rows are in every step's span, and nothing
	// of them runs or is logged.
	for _, noBatch := range []bool{false, true} {
		mc := &machine.Machine{NoBatch: noBatch, Steps: &sched.StepTable{}, Procs: []int32{0, 1, 3}, Balance: zeroBalance(s),
			Psi: make([]float64, s.Inst.NTasks()), Done: make([]bool, s.Inst.NTasks())}
		if err := mc.Steps.Build(s, nil, nil); err != nil {
			t.Fatal(err)
		}
		mc.Build(s.Inst, s.Assign)
		mc.Route(s.Start, nil)
		mc.Recv.Reset()
		lr := newLogRanks(t, fmt.Sprintf("processor 2 not live, noBatch=%v", noBatch), &modelled{mc: mc}, s.Inst.M)
		for ls := range int32(s.Makespan) {
			mc.OpenStep(ls)
			if _, err := lr.RunStep(ls, ls, false); err != nil {
				t.Fatal(err)
			}
			_ = mc.CloseStep(ls) // its consumers stall on what processor 2 never sends
		}
		if len(lr.since) == 0 || len(lr.ref[2]) != 0 {
			t.Fatalf("%s: logged %d completions, %d of processor 2", lr.name, len(lr.since), len(lr.ref[2]))
		}
	}
}
