// Package faults executes sweep schedules under injected distributed-system
// failures — processor crashes, dropped, delayed and duplicated flux
// messages, severed coordinator connections — and recovers from them by
// checkpointed rescheduling.
//
// A Plan is a deterministic fault scenario derived from a master seed via
// rng.Source.Substream: the same (schedule, spec, seed) triple always
// yields the same events, so every failure run is exactly reproducible.
// The Engine has the one epoch loop: it steps the modelled machine
// (internal/machine) barrier-synchronously, decides everything at the
// barriers in processor order — planned crashes, the periodic checkpoint,
// the Injector's rewrite of the step's sends while a message event is
// pending, stalls — and on a
// crash or a missing-flux stall ends the epoch, rolls the victims back to
// what is durable, reassigns their cells onto the survivors, list-schedules
// the not-yet-done tasks (the heuristics.Level recipe's sched.Rule with
// Done, built at the first fault and, when auditing, held to
// verify.Schedule under verify.RuleOpts like a plan) and resumes. Where
// the processors run between the barriers, and what a crash loses, is the
// Ranks seam: modelled here, worker processes under internal/procrun. An
// engine with an empty plan is the fault-free parallel executor: every
// in-process solve and simulation runs here. An epoch with nothing left to
// decide is clean: in process, the whole schedule from nothing done, no
// crash planned on a live processor, no message event pending or held, on
// routes whose traffic the first such epoch stepped and recorded (the
// record is dropped wherever the routes or deadlines are laid out again).
// It runs as one flat Machine.Sweep that adds the record, and counts its
// steps, checkpoints and global step as stepping would; with no plan, a
// solve steps its first sweep only. The per-task arithmetic is unchanged
// by recovery, so a recovered transport solve converges to flux
// bitwise-identical to the fault-free serial solve.
//
// Recovery reschedules under the communication delay the schedule was
// built for (Schedule.CommDelay), so a plan made for delay c recovers into
// the delay-c machine, not the c = 0 one. It drops the rest of the plan's
// rule: the release floors and the priorities, the residual ranking tasks
// by their DAG level (heuristics.Level). One leniency is known: at the cut
// a done predecessor owes its successor no wait, cross-processor or not,
// so the first residual steps can run a delay earlier than the plan would
// have, and a recovered run under a delay can take fewer steps than the
// fault-free one. A negative RecoveryReport.Penalty is therefore no bug.
//
// What callers may rely on:
//
//   - With at least one processor surviving, a recovered solve's flux is
//     bitwise the serial solve's, on either interconnect.
//   - The RecoveryReport is byte-for-byte reproducible: counters accumulate
//     in barrier or processor order, stalls and errors resolve to the
//     lowest task and processor, and DeadProcs is sorted.
//   - Every epoch makes progress: a stall epoch completes at least one task
//     (the residual schedule's step-0 tasks have every input done), and
//     crashes and message events are finite. When every processor is dead
//     the engine returns an *UnrecoverableError.
//   - A message event fires once, on the first send of its (task,
//     destination) message, batched or not. Once no live processor has a
//     crash left, an event whose message has no route is retired when the
//     routes are laid out: only a crash moves a cell, so it could never
//     fire. A retired event is not counted as applied. A crash loses what its victim
//     completed since the last checkpoint (every CheckpointEvery steps),
//     counted as TasksReplayed.
//   - Engine.Sweep checks ctx before every step and returns ctx.Err(),
//     discarding held deliveries and open envelopes.
package faults

import (
	"fmt"
	"sort"

	"sweepsched/internal/rng"
	"sweepsched/internal/sched"
)

// Kind classifies an injected fault.
type Kind uint8

// The fault taxonomy.
const (
	// Crash kills a processor permanently at a global barrier step; work it
	// completed since the last durable checkpoint is lost and replayed.
	Crash Kind = iota + 1
	// Drop discards one cross-processor flux message in flight.
	Drop
	// Delay holds one cross-processor flux message for HoldSteps barrier
	// steps before delivering it.
	Delay
	// Duplicate delivers one cross-processor flux message twice.
	Duplicate
	// Sever cuts a processor's connection to the coordinator at a global
	// barrier step. Unlike Crash the processor stays alive and reconnects
	// (bounded retry with exponential backoff); no work is lost. Sever is
	// meaningful only to executors with a real transport layer
	// (internal/procrun) — the in-process engine has no connections and
	// ignores these events.
	Sever
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	case Sever:
		return "sever"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one injected fault. Crash and Sever events use Proc and Step
// (the global barrier step at which the processor dies or its connection
// is cut, before executing it). Message events identify the affected
// message by the producing Task and the destination processor To; they
// fire the first time that message is sent.
type Event struct {
	Kind      Kind
	Proc      int32
	Step      int32
	Task      sched.TaskID
	To        int32
	HoldSteps int32
}

func (e Event) String() string {
	switch e.Kind {
	case Crash, Sever:
		return fmt.Sprintf("%s(proc=%d,step=%d)", e.Kind, e.Proc, e.Step)
	case Delay:
		return fmt.Sprintf("delay(task=%d,to=%d,hold=%d)", e.Task, e.To, e.HoldSteps)
	default:
		return fmt.Sprintf("%s(task=%d,to=%d)", e.Kind, e.Task, e.To)
	}
}

// Spec sizes a fault scenario.
type Spec struct {
	// Crashes is the number of processor crashes (capped at the processor
	// count; with all processors crashed the execution is unrecoverable).
	Crashes int
	// Drops, Delays and Duplicates count message faults; each is capped by
	// the number of cross-processor messages the schedule sends.
	Drops      int
	Delays     int
	Duplicates int
	// Severs is the number of connection cuts (capped at the processor
	// count). Only process-level executors act on them; see Sever.
	Severs int
	// CheckpointEvery is the barrier-step interval between durable
	// checkpoints (default 8). A crashed processor's completions since the
	// last checkpoint are lost and replayed after recovery.
	CheckpointEvery int32
}

// maxDelay bounds the hold of each delayed message, in barrier steps.
const maxDelay = 3

func (sp Spec) withDefaults() Spec {
	if sp.CheckpointEvery <= 0 {
		sp.CheckpointEvery = 8
	}
	return sp
}

// Empty reports whether the spec injects no faults at all.
func (sp Spec) Empty() bool {
	return sp.Crashes == 0 && sp.Drops == 0 && sp.Delays == 0 && sp.Duplicates == 0 && sp.Severs == 0
}

// Plan is a concrete, reproducible fault scenario for one schedule.
type Plan struct {
	Seed   uint64
	Spec   Spec
	Events []Event
}

// CrashOnly reports whether the plan contains only crash events.
func (p *Plan) CrashOnly() bool {
	for _, e := range p.Events {
		if e.Kind != Crash {
			return false
		}
	}
	return true
}

// String renders the plan deterministically.
func (p *Plan) String() string {
	s := fmt.Sprintf("faults.Plan{seed=%#x, events=%d:", p.Seed, len(p.Events))
	for _, e := range p.Events {
		s += " " + e.String()
	}
	return s + "}"
}

// NewPlan derives a fault scenario from the schedule and a master seed.
// Every random choice comes from fixed substreams of the seed
// (rng.Source.Substream), so the plan is a pure function of
// (schedule, spec, seed): crash victims and steps from substream 0, and
// message faults drawn without replacement from the deterministic
// enumeration of the schedule's cross-processor messages (substreams 1-3).
func NewPlan(s *sched.Schedule, spec Spec, seed uint64) *Plan {
	spec = spec.withDefaults()
	plan := &Plan{Seed: seed, Spec: spec}
	root := rng.New(seed)
	inst := s.Inst
	m := inst.M

	// Crashes: distinct processors, steps within the fault-free makespan.
	cr := root.Substream(0)
	nCrash := spec.Crashes
	if nCrash > m {
		nCrash = m
	}
	if nCrash > 0 {
		procs := cr.Perm(m)[:nCrash]
		sort.Ints(procs)
		maxStep := s.Makespan
		if maxStep < 1 {
			maxStep = 1
		}
		for _, p := range procs {
			plan.Events = append(plan.Events, Event{
				Kind: Crash,
				Proc: int32(p),
				Step: int32(cr.Intn(maxStep)),
			})
		}
	}

	// Deterministic enumeration of cross-processor messages: (producing
	// task, destination processor) per cross edge, in (direction, cell,
	// out-edge) order.
	type msg struct {
		task sched.TaskID
		to   int32
	}
	n := int32(inst.N())
	var pool []msg
	for i, d := range inst.DAGs {
		base := sched.TaskID(int32(i) * n)
		for u := int32(0); u < n; u++ {
			for _, w := range d.Out(u) {
				if s.Assign[w] != s.Assign[u] {
					pool = append(pool, msg{task: base + sched.TaskID(u), to: s.Assign[w]})
				}
			}
		}
	}
	draw := func(r *rng.Source, count int, mk func(msg) Event) {
		for j := 0; j < count && len(pool) > 0; j++ {
			idx := r.Intn(len(pool))
			plan.Events = append(plan.Events, mk(pool[idx]))
			pool[idx] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
	}
	draw(root.Substream(1), spec.Drops, func(ms msg) Event {
		return Event{Kind: Drop, Task: ms.task, To: ms.to}
	})
	dl := root.Substream(2)
	draw(dl, spec.Delays, func(ms msg) Event {
		return Event{Kind: Delay, Task: ms.task, To: ms.to, HoldSteps: 1 + int32(dl.Intn(maxDelay))}
	})
	draw(root.Substream(3), spec.Duplicates, func(ms msg) Event {
		return Event{Kind: Duplicate, Task: ms.task, To: ms.to}
	})

	// Severs: distinct processors (may overlap crash victims — a sever
	// before the crash just makes the proc reconnect first), steps within
	// the fault-free makespan. Substream 4 keeps every earlier substream's
	// draws unchanged, so plans without severs are identical to before.
	sv := root.Substream(4)
	nSever := spec.Severs
	if nSever > m {
		nSever = m
	}
	if nSever > 0 {
		procs := sv.Perm(m)[:nSever]
		sort.Ints(procs)
		maxStep := s.Makespan
		if maxStep < 1 {
			maxStep = 1
		}
		for _, p := range procs {
			plan.Events = append(plan.Events, Event{
				Kind: Sever,
				Proc: int32(p),
				Step: int32(sv.Intn(maxStep)),
			})
		}
	}
	return plan
}

// UnrecoverableError reports an execution that cannot make progress: every
// processor has crashed with tasks still outstanding.
type UnrecoverableError struct {
	DeadProcs []int32
	Remaining int
}

func (e *UnrecoverableError) Error() string {
	return fmt.Sprintf("faults: unrecoverable: all %d processors crashed with %d tasks remaining",
		len(e.DeadProcs), e.Remaining)
}
