package machine

import (
	"fmt"
	"slices"
	"testing"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
	"sweepsched/internal/synth"
)

// refStep is the step body as it was written before it became one loop
// over the step's positions, kept as Step's oracle: one loop per live
// processor, in ascending order, over that processor's row of the step,
// its ack reset at the row's start and the row left at its first failure.
func refStep(m *Machine, step int32) {
	psi, done, q, denom := m.Psi, m.Done, m.Q, m.Denom
	n := int32(len(q))
	for _, p := range m.Procs {
		a := &m.Acks[p]
		*a = Ack{StallTask: -1, StallMiss: -1}
		lo, hi := m.Steps.Row(p, step)
	row:
		for i := lo; i < hi; i++ {
			t, _, in := m.Recv.At(i)
			inflow := 0.0
			for _, x := range in {
				if x >= 0 { // a local producer's task id
					if !done[x] {
						a.Err = fmt.Errorf("machine: proc %d task %d at step %d: local input %d not done", p, t, step, x)
						break row
					}
					inflow += psi[x]
					continue
				}
				val, have := m.Recv.Load(^x, step)
				if !have {
					a.Stalled, a.StallTask, a.StallMiss = true, t, m.Recv.Producer(^x)
					break row
				}
				inflow += val
			}
			if len(in) > 0 {
				inflow /= float64(len(in))
			}
			m.complete(a, i, t, step, (q[int32(t)%n]+inflow)/denom)
		}
	}
}

// plant breaks a feasible schedule the two ways a step body must catch:
// "local" moves a producer one step past a consumer on its own processor
// (the consumer's local input is not done), "cross" moves a producer to
// the step of a consumer on another processor (the flux is not visible
// yet). It reports false when the schedule has no such edge.
func plant(s *sched.Schedule, kind string, r *rng.Source) bool {
	inst := s.Inst
	n := inst.N()
	var edges [][2]sched.TaskID
	for dir, d := range inst.DAGs {
		for u := range int32(n) {
			for _, w := range d.Out(u) {
				if (s.Assign[u] == s.Assign[w]) == (kind == "local") {
					edges = append(edges, [2]sched.TaskID{sched.TaskID(dir*n) + sched.TaskID(u), sched.TaskID(dir*n) + sched.TaskID(w)})
				}
			}
		}
	}
	if len(edges) == 0 {
		return false
	}
	e := edges[r.Intn(len(edges))]
	s.Start[e[0]] = s.Start[e[1]]
	if kind == "local" {
		s.Start[e[0]]++
	}
	s.Makespan = int(slices.Max(s.Start)) + 1
	return true
}

// sameAck compares two acks, their errors by message.
func sameAck(a, b Ack) bool {
	if (a.Err == nil) != (b.Err == nil) || a.Err != nil && a.Err.Error() != b.Err.Error() {
		return false
	}
	a.Err, b.Err = nil, nil
	return a == b
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T %v", err, err)
}

// TestStepMatchesPerRowReference runs Step and refStep side by side, each
// on its own machine, over every step of seeded schedules — list and
// comm-delay schedules of random layered DAGs on m ∈ {1, 8, 64}, feasible
// and with a planted local or cross violation, every processor live or a
// sparse random set, sends handed over or intercepted, on either
// interconnect — and holds them to the same Psi, Done, Acks and Sent
// after every step, and the same CloseStep error and traffic. The steps
// go on past a failing barrier, so rows that stop short keep coming.
func TestStepMatchesPerRowReference(t *testing.T) {
	ws := sched.NewWorkspace()
	cases := 0
	for seed := uint64(1); seed <= 60; seed++ {
		r := rng.New(seed)
		m := []int{1, 8, 64}[seed%3]
		n := 20 + r.Intn(120)
		dags, err := synth.LayeredRandom(n, 1+r.Intn(4), 2+r.Intn(8), seed)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := sched.FromDAGs(dags, m)
		if err != nil {
			t.Fatal(err)
		}
		assign := sched.RandomAssignment(n, m, r)
		s := &sched.Schedule{}
		if seed%4 == 0 {
			err = sched.CommScheduleInto(ws, s, inst, assign, nil, 1+r.Intn(6))
		} else {
			err = sched.ListScheduleInto(ws, s, inst, assign, nil, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"feasible", "local", "cross"} {
			v := &sched.Schedule{Inst: inst, Assign: assign, Start: slices.Clone(s.Start), Makespan: s.Makespan}
			if kind != "feasible" && !plant(v, kind, r) {
				continue
			}
			procs := sched.AllProcs(m)
			if seed%2 == 0 {
				procs = procs[:0]
				for p := range int32(m) {
					if r.Intn(3) == 0 {
						procs = append(procs, p)
					}
				}
			}
			name := fmt.Sprintf("seed %d, m=%d, %s, %d live", seed, m, kind, len(procs))
			failed := compareSteps(t, name, v, procs, seed%7 < 3, seed%5 < 2)
			// With every processor live a planted fault fails a barrier
			// and a feasible schedule none.
			if len(procs) == m && (failed > 0) != (kind != "feasible") {
				t.Fatalf("%s: %d barriers failed", name, failed)
			}
			cases++
		}
	}
	if cases < 150 {
		t.Fatalf("only %d cases ran", cases)
	}
}

// compareSteps steps a machine with Step and another with refStep over
// every step of s, fails at the first difference, and returns the number
// of barriers that returned an error.
func compareSteps(t *testing.T, name string, s *sched.Schedule, procs []int32, noBatch, intercept bool) (failed int) {
	t.Helper()
	var got, want *Machine
	for _, mp := range []**Machine{&got, &want} {
		mc, err := New(s, noBatch, make([]float64, s.Inst.NTasks()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mc.Balance, mc.Procs, mc.Intercept = plusID(s.Inst.N()), slices.Clone(procs), intercept
		mc.Recv.Reset()
		*mp = mc
	}
	for st := range s.Makespan {
		step := int32(st)
		got.OpenStep(step)
		want.OpenStep(step)
		got.Step(step)
		refStep(want, step)
		if !slices.Equal(got.Psi, want.Psi) || !slices.Equal(got.Done, want.Done) {
			t.Fatalf("%s: step %d: Psi or Done differ from the per-row reference", name, step)
		}
		for p := range got.Acks {
			if !sameAck(got.Acks[p], want.Acks[p]) {
				t.Fatalf("%s: step %d: processor %d's ack %+v, the reference's %+v", name, step, p, got.Acks[p], want.Acks[p])
			}
		}
		if !slices.Equal(got.Sent, want.Sent) {
			t.Fatalf("%s: step %d: sent %v, the reference %v", name, step, got.Sent, want.Sent)
		}
		gotErr, wantErr := got.CloseStep(step), want.CloseStep(step)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("%s: step %d: barrier returned %s, the reference's %s", name, step, errText(gotErr), errText(wantErr))
		}
		if got.Comm != want.Comm {
			t.Fatalf("%s: step %d: traffic %+v, the reference's %+v", name, step, got.Comm, want.Comm)
		}
		if gotErr != nil {
			failed++
		}
	}
	return failed
}
