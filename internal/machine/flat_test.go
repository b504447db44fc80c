package machine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"sweepsched/internal/obs"
	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// stepped sweeps m the stepped way (refSweep) and returns what that added
// to Comm: the record a flat Sweep of the same layout is given, as the
// fault engine keeps it.
func stepped(ctx context.Context, m *Machine) (Stats, error) {
	before := m.Comm
	err := refSweep(ctx, m)
	return m.Comm.Minus(before), err
}

// flat is a flat Sweep that adds rec, its traffic posted as an epoch's
// teardown posts it.
func flat(ctx context.Context, m *Machine, rec Stats) error {
	err := m.Sweep(ctx, rec)
	m.Discard()
	return err
}

// FuzzFlatSweepMatchesStepped sweeps each of stepCases' schedules —
// feasible and with each planted violation, every processor live or a
// sparse set — several times on two machines, on either interconnect: one
// kept as the fault engine keeps its machine, the other always stepped by
// refSweep, the stepped sweep Sweep replaced. The first keeps a traffic
// record: the first stepped sweep of a layout that runs every position
// without an error records what it added to Comm, and while the record
// holds, the machine sweeps flat (Sweep) and adds it. After every sweep
// the two must agree on the error, the bits of Psi, Done, Comm and the
// comm.* counters posted. The cell balance changes from sweep to sweep, so
// a flat sweep that ran nothing shows. Between sweeps both may Build and
// Route again, Route alone with other deadlines or with some tasks durable
// (either changes what a batched sweep transmits), or swap their live
// sets; each drops the record. Where the schedule is infeasible and every
// processor live, the first machine is given a record no sweep learned, as
// if one had outlived its layout: its flat sweep must end in an error
// where the stepped one does. Seeds 1–60 are its corpus.
func FuzzFlatSweepMatchesStepped(f *testing.F) {
	for seed := uint64(1); seed <= 60; seed++ {
		f.Add(seed)
	}
	ws := sched.NewWorkspace()
	f.Fuzz(func(t *testing.T, seed uint64) {
		flatCases(t, ws, seed)
	})
}

// TestFlatSweepMatchesStepped is the fuzzer's corpus, seeds 1–60, with a
// floor on the flat sweeps they make.
func TestFlatSweepMatchesStepped(t *testing.T) {
	ws := sched.NewWorkspace()
	flat := 0
	for seed := uint64(1); seed <= 60; seed++ {
		flat += flatCases(t, ws, seed)
	}
	if flat < 150 {
		t.Fatalf("only %d sweeps ran flat", flat)
	}
}

// flatCases compares the two machines on the seed's schedule, feasible
// and with each planted violation it has room for, on both
// interconnects; it returns how many sweeps ran flat to the end.
func flatCases(t *testing.T, ws *sched.Workspace, seed uint64) (flat int) {
	t.Helper()
	s, r := stepSchedule(t, ws, seed)
	for _, kind := range []string{"feasible", "local", "cross"} {
		v := variant(s, kind, r)
		if v == nil {
			continue
		}
		procs := liveSet(s.Inst.M, seed, r)
		for _, noBatch := range []bool{false, true} {
			name := fmt.Sprintf("seed %d, m=%d, %s, %d live, noBatch=%v", seed, s.Inst.M, kind, len(procs), noBatch)
			flat += compareSweeps(t, name, v, procs, noBatch, kind != "feasible", r)
		}
	}
	return flat
}

// compareSweeps runs the sweeps on the recording and the stepped machine
// and fails at the first difference; it returns how many of the recording
// machine's sweeps ran flat to the end.
func compareSweeps(t *testing.T, name string, s *sched.Schedule, procs []int32, noBatch, forge bool, r *rng.Source) (flats int) {
	t.Helper()
	inst := s.Inst
	var got, want *Machine
	var cols [2]*obs.Collector
	for i, mp := range []**Machine{&got, &want} {
		mc, err := newMachine(s, noBatch, make([]float64, inst.NTasks()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mc.Procs, cols[i] = slices.Clone(procs), obs.New()
		mc.Observe(cols[i])
		*mp = mc
	}
	all := allProcs(inst.M)
	var rec Stats // got's record, while known
	known := false
	for sweep := range 6 {
		op := "none"
		if sweep > 0 {
			op = []string{"none", "none", "build", "route", "durable", "live"}[r.Intn(6)]
		}
		start, durable := s.Start, []bool(nil)
		switch op {
		case "route": // other deadlines: each consumer up to two steps later
			start = slices.Clone(s.Start)
			for c := range start {
				start[c] += int32(r.Intn(3))
			}
		case "durable":
			durable = make([]bool, inst.NTasks())
			for c := range durable {
				durable[c] = r.Intn(4) == 0
			}
		}
		for _, mc := range []*Machine{got, want} {
			switch op {
			case "build":
				mc.Build(inst, s.Assign)
				mc.Route(s.Start, nil)
			case "route", "durable":
				mc.Route(start, durable)
			case "live":
				if len(mc.Procs) == len(all) {
					mc.Procs = slices.Clone(procs)
				} else {
					mc.Procs = slices.Clone(all)
				}
			}
			mc.Balance = plusID(inst.N())
			for v := range mc.Q {
				mc.Q[v] += float64(sweep) / 4
			}
		}
		if op != "none" && (op != "live" || len(procs) != len(all)) {
			known = false // the routes, the deadlines or the live set changed
		}
		ctx := context.Background()
		errWant := refSweep(ctx, want)
		at := fmt.Sprintf("%s: sweep %d after %s", name, sweep, op)
		if forge && len(got.Procs) == inst.M && !known { // as a record learned here would be: every position ran
			if errGot := flat(ctx, got, Stats{}); errGot == nil || errWant == nil {
				t.Fatalf("%s: on an infeasible schedule a flat sweep on a forged record returned %s, the stepped one %s", at, errText(errGot), errText(errWant))
			}
			return flats // a machine whose sweep failed is not reusable
		}
		var errGot error
		ranFlat := known
		if ranFlat {
			errGot = flat(ctx, got, rec)
		} else {
			rec, errGot = stepped(ctx, got)
			known = errGot == nil && !slices.Contains(got.Done, false)
		}
		if errText(errGot) != errText(errWant) {
			t.Fatalf("%s: the recording machine returned %s, the stepped one %s", at, errText(errGot), errText(errWant))
		}
		if errWant != nil {
			return flats
		}
		for c := range got.Psi {
			if math.Float64bits(got.Psi[c]) != math.Float64bits(want.Psi[c]) {
				t.Fatalf("%s: task %d's flux %v, stepped %v", at, c, got.Psi[c], want.Psi[c])
			}
		}
		if !slices.Equal(got.Done, want.Done) {
			t.Fatalf("%s: done marks differ from the stepped machine's", at)
		}
		if got.Comm != want.Comm {
			t.Fatalf("%s: traffic %+v, stepped %+v", at, got.Comm, want.Comm)
		}
		if g, w := posted(cols[0]), posted(cols[1]); g != w {
			t.Fatalf("%s: posted comm.* counters %+v, stepped %+v", at, g, w)
		}
		if ranFlat {
			flats++
		}
	}
	return flats
}

// posted is what the comm.* counters of a collector say was sent.
func posted(col *obs.Collector) Stats {
	snap := col.Snapshot()
	return Stats{Messages: snap.CounterValue("comm.messages"), Batches: snap.CounterValue("comm.batches"), Bytes: snap.CounterValue("comm.bytes")}
}
