package machine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sweepsched/internal/comm"
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

// refSweep is the stepped sweep Machine.Sweep ran before its owner kept
// the traffic record, kept as Sweep's oracle: from empty receive slots, no
// envelope open and nothing done, per step the ctx check and — a step with
// no positions passed over — OpenStep, Step and CloseStep, whose error
// ends it. On every return it discards what is still open and posts the
// traffic, as an epoch's teardown does.
func refSweep(ctx context.Context, m *Machine) error {
	m.outbox.DiscardAll()
	defer m.Discard()
	m.Recv.Reset()
	clear(m.Done)
	for st := range m.Steps.Steps() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if lo, hi := m.Steps.Span(st); lo == hi {
			continue
		}
		m.OpenStep(st)
		m.Step(st)
		if err := m.CloseStep(st); err != nil {
			return err
		}
	}
	return nil
}

// newMachine sets a machine up as the fault engine's first epoch on a
// schedule does: every processor live, the step table built from it, and
// batched, a message due at its earliest consumer's scheduled start.
func newMachine(s *sched.Schedule, noBatch bool, psi []float64) (*Machine, error) {
	m := &Machine{NoBatch: noBatch, Steps: &sched.StepTable{}, Procs: allProcs(s.Inst.M), Psi: psi, Done: make([]bool, len(psi))}
	if err := m.Steps.Build(s, nil, nil); err != nil {
		return nil, err
	}
	m.Build(s.Inst, s.Assign)
	if !noBatch { // per message nothing waits for a deadline
		m.Route(s.Start, nil)
	}
	return m, nil
}

// allProcs is every processor of m, ascending: the live set when none has
// crashed.
func allProcs(m int) []int32 {
	procs := make([]int32, m)
	for p := range procs {
		procs[p] = int32(p)
	}
	return procs
}

// refCloseStep is the barrier after a step as it was before the step kept
// a tally, kept as CloseStep's oracle: the intercepted sends handed over in
// production order, then one fold over every live processor's ack —
// Comm.Messages adds their sends, Comm.Rounds their maximum — that returns
// the lowest processor's error, or else the lowest stalled processor's
// *StallError. It reads nothing but the acks and the queue, so it does not
// depend on a body having flagged a row that stopped short.
func refCloseStep(m *Machine, step int32) error {
	for _, x := range m.Sent {
		m.hand(x.Task, []sched.OutEdge{{To: x.To, Slot: x.Slot, Due: x.Due}}, x.Psi, step+1)
	}
	m.Sent = m.Sent[:0]
	var sent, stepMax int32
	var firstErr error
	stalled := int32(-1)
	for _, p := range m.Procs {
		a := &m.Acks[p]
		sent += a.Sent
		stepMax = max(stepMax, a.Sent)
		if a.Stalled && stalled < 0 {
			stalled = p
		}
		if a.Err != nil && firstErr == nil {
			firstErr = a.Err
		}
	}
	if firstErr == nil && stalled >= 0 {
		a := &m.Acks[stalled]
		firstErr = &StallError{Proc: stalled, Step: step, Task: a.StallTask, Producer: a.StallMiss}
	}
	m.Comm.Messages += int64(sent)
	m.Comm.Rounds += int64(stepMax)
	if m.NoBatch {
		m.Comm.Batches += int64(sent)
		m.Comm.Bytes += comm.PerMessageWireBytes(int(sent))
	}
	return firstErr
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

// FuzzStepMatchesPerRowReference runs Step and refStep side by side, each
// on its own machine, over every step of a seeded schedule — a list or
// comm-delay schedule of a random layered DAG on m ∈ {1, 8, 64}, feasible
// and with a planted local or cross violation, every processor live or a
// sparse random set, sends handed over or intercepted, on either
// interconnect — and holds them to the same Psi, Done, Acks and Sent
// after every step, and CloseStep to refCloseStep's error and traffic. A
// third machine replays Step's accounts (Replay) and is held to the same.
// The steps go on past a failing barrier, so rows that stop short keep
// coming. Seeds 1–60 are its corpus.
func FuzzStepMatchesPerRowReference(f *testing.F) {
	for seed := uint64(1); seed <= 60; seed++ {
		f.Add(seed)
	}
	ws := sched.NewWorkspace()
	f.Fuzz(func(t *testing.T, seed uint64) {
		stepCases(t, ws, seed)
	})
}

// TestStepMatchesPerRowReference is the fuzzer's corpus, seeds 1–60, with
// a floor on the cases they make.
func TestStepMatchesPerRowReference(t *testing.T) {
	ws := sched.NewWorkspace()
	cases := 0
	for seed := uint64(1); seed <= 60; seed++ {
		cases += stepCases(t, ws, seed)
	}
	if cases < 150 {
		t.Fatalf("only %d cases ran", cases)
	}
}

// stepSchedule is the seed's feasible schedule — a list or comm-delay
// schedule of a random layered DAG on m ∈ {1, 8, 64} — and the seed's
// stream, which its cases go on drawing from.
func stepSchedule(t *testing.T, ws *sched.Workspace, seed uint64) (*sched.Schedule, *rng.Source) {
	t.Helper()
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
	return s, r
}

// variant is s, feasible, or with the planted violation of the given kind
// (plant), drawing from r; nil when s has no room for it.
func variant(s *sched.Schedule, kind string, r *rng.Source) *sched.Schedule {
	v := &sched.Schedule{Inst: s.Inst, Assign: s.Assign, Start: slices.Clone(s.Start), Makespan: s.Makespan}
	if kind != "feasible" && !plant(v, kind, r) {
		return nil
	}
	return v
}

// liveSet is every processor of m, or, for an even seed, a sparse random
// set of them.
func liveSet(m int, seed uint64, r *rng.Source) []int32 {
	procs := allProcs(m)
	if seed%2 == 0 {
		procs = procs[:0]
		for p := range int32(m) {
			if r.Intn(3) == 0 {
				procs = append(procs, p)
			}
		}
	}
	return procs
}

// stepCases builds the seed's schedule and compares the step bodies on it
// feasible and with each planted violation it has room for; it returns
// how many cases ran.
func stepCases(t *testing.T, ws *sched.Workspace, seed uint64) (cases int) {
	t.Helper()
	s, r := stepSchedule(t, ws, seed)
	m := s.Inst.M
	for _, kind := range []string{"feasible", "local", "cross"} {
		v := variant(s, kind, r)
		if v == nil {
			continue
		}
		procs := liveSet(m, seed, r)
		name := fmt.Sprintf("seed %d, m=%d, %s, %d live", seed, m, kind, len(procs))
		failed := compareSteps(t, name, v, procs, seed%7 < 3, seed%5 < 2)
		// With every processor live a planted fault fails a barrier
		// and a feasible schedule none.
		if len(procs) == m && (failed > 0) != (kind != "feasible") {
			t.Fatalf("%s: %d barriers failed", name, failed)
		}
		cases++
	}
	return cases
}

// compareSteps steps a machine with Step and CloseStep, another with
// refStep and refCloseStep, and a third by replaying the first's accounts
// through Replay and closing it with CloseStep, over every step of s; it
// fails at the first difference and returns the number of barriers that
// returned an error.
func compareSteps(t *testing.T, name string, s *sched.Schedule, procs []int32, noBatch, intercept bool) (failed int) {
	t.Helper()
	var got, want, far *Machine
	for _, mp := range []**Machine{&got, &want, &far} {
		mc, err := newMachine(s, noBatch, make([]float64, s.Inst.NTasks()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mc.Balance, mc.Procs, mc.Intercept = plusID(s.Inst.N()), slices.Clone(procs), intercept
		mc.Recv.Reset()
		*mp = mc
	}
	var ran []comm.Item
	for st := range s.Makespan {
		step := int32(st)
		for _, mc := range []*Machine{got, want, far} {
			mc.OpenStep(step)
		}
		got.Step(step)
		refStep(want, step)
		for _, p := range procs {
			ran = ran[:0]
			for _, tsk := range got.Steps.Tasks(p, step)[:got.Acks[p].Completed] {
				ran = append(ran, comm.Item{Task: tsk, Psi: got.Psi[tsk]})
			}
			if err := far.Replay(p, step, ran, got.Acks[p]); err != nil {
				t.Fatalf("%s: step %d: replaying processor %d: %v", name, step, p, err)
			}
		}
		for _, mc := range []*Machine{got, far} {
			if !slices.Equal(mc.Psi, want.Psi) || !slices.Equal(mc.Done, want.Done) {
				t.Fatalf("%s: step %d: Psi or Done differ from the per-row reference", name, step)
			}
			for _, p := range procs {
				if !sameAck(mc.Acks[p], want.Acks[p]) {
					t.Fatalf("%s: step %d: processor %d's ack %+v, the reference's %+v", name, step, p, mc.Acks[p], want.Acks[p])
				}
			}
			if !slices.Equal(mc.Sent, want.Sent) {
				t.Fatalf("%s: step %d: sent %v, the reference %v", name, step, mc.Sent, want.Sent)
			}
		}
		for p := range got.Acks {
			if !sameAck(got.Acks[p], want.Acks[p]) {
				t.Fatalf("%s: step %d: processor %d's ack %+v, the reference's %+v", name, step, p, got.Acks[p], want.Acks[p])
			}
		}
		wantErr := refCloseStep(want, step)
		for _, mc := range []*Machine{got, far} {
			err := mc.CloseStep(step)
			if errText(err) != errText(wantErr) {
				t.Fatalf("%s: step %d: barrier returned %s, the reference's %s", name, step, errText(err), errText(wantErr))
			}
			if mc.Comm != want.Comm {
				t.Fatalf("%s: step %d: traffic %+v, the reference's %+v", name, step, mc.Comm, want.Comm)
			}
		}
		if wantErr != nil {
			failed++
		}
	}
	return failed
}
