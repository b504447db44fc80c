package faults

import (
	"slices"
	"sort"

	"sweepsched/internal/sched"
)

// Delivery is one flux message the interconnect should place in a
// destination inbox: the same sched.Send the step body queued (the
// injector carries its slot and deadline along and decides by task and
// destination alone).
type Delivery = sched.Send

type msgKey struct {
	task sched.TaskID
	to   int32
}

// Injector applies a Plan to the interconnect of the fault engine, which,
// while a message event is pending, passes every step's queue of
// cross-processor sends through it (Rewrite) — it may suppress, hold or
// duplicate a delivery — and asks Matured at
// each barrier for held messages that are now due. The decision for a
// message depends only on the plan (keyed by task and destination), never
// on call order, so executions are reproducible. An Injector belongs to
// its engine's barrier and is not safe for concurrent use.
type Injector struct {
	crashStep map[int32]int32
	severStep map[int32]int32
	msg       map[msgKey]Event
	pending   []int32         // per producing task, its events still in msg
	consumed  map[msgKey]Kind // message events already fired
	delayed   map[int32][]Delivery
	applied   map[Kind]int
}

// NewInjector indexes a plan for execution. A nil plan injects nothing.
// Only a plan with events makes the maps its events are kept in; a crash
// the owner reports (NoteCrash) counts without one.
func NewInjector(plan *Plan) *Injector {
	inj := &Injector{applied: map[Kind]int{}}
	if plan != nil && len(plan.Events) > 0 {
		inj.crashStep, inj.severStep = map[int32]int32{}, map[int32]int32{}
		inj.msg, inj.consumed, inj.delayed = map[msgKey]Event{}, map[msgKey]Kind{}, map[int32][]Delivery{}
		for _, e := range plan.Events {
			switch e.Kind {
			case Crash:
				// Earliest crash wins if a proc appears twice.
				if st, ok := inj.crashStep[e.Proc]; !ok || e.Step < st {
					inj.crashStep[e.Proc] = e.Step
				}
			case Sever:
				if st, ok := inj.severStep[e.Proc]; !ok || e.Step < st {
					inj.severStep[e.Proc] = e.Step
				}
			default:
				inj.msg[msgKey{e.Task, e.To}] = e
			}
		}
	}
	top := sched.TaskID(-1)
	for key := range inj.msg {
		top = max(top, key.task)
	}
	inj.pending = make([]int32, top+1)
	for key := range inj.msg {
		if key.task >= 0 { // no step sends a negative task
			inj.pending[key.task]++
		}
	}
	return inj
}

// CrashStep returns the global barrier step at which the processor is
// scheduled to die, or -1 if it never crashes.
func (inj *Injector) CrashStep(p int32) int32 {
	if st, ok := inj.crashStep[p]; ok {
		return st
	}
	return -1
}

// NoteCrash records that a planned crash actually fired.
func (inj *Injector) NoteCrash() { inj.applied[Crash]++ }

// SeverStep returns the global barrier step at which the processor's
// coordinator connection is scheduled to be cut, or -1 if never. Each
// sever fires once: callers should pair it with NoteSever and track
// firing themselves (the step survives here so diagnostics can still map
// a reconnect back to its plan event). Executors without a transport
// layer simply never ask.
func (inj *Injector) SeverStep(p int32) int32 {
	if st, ok := inj.severStep[p]; ok {
		return st
	}
	return -1
}

// NoteSever records that a planned connection cut actually fired.
func (inj *Injector) NoteSever() { inj.applied[Sever]++ }

// Rewrite applies the plan to the cross-processor flux messages one step
// queued on the modelled machine, sent at the given global barrier step,
// in place and in order: a drop removes its message, a delay removes and
// holds it (it surfaces later through Matured), a duplicate doubles it.
// Each message event fires once — on later sends of the same message
// (transport re-sweeps the schedule every source iteration) delivery is
// normal. Fired events leave the index, so once none is pending — from
// the start, for most plans soon after — a step costs one length check and
// no hashing; while some are, only a send whose task still has a pending
// event is looked up, so an event that can no longer fire (its message is
// never sent again, as after a recovery moved its cell) costs the steps
// after it one slice read per send.
func (inj *Injector) Rewrite(sends []Delivery, step int32) []Delivery {
	for i := 0; i < len(sends) && len(inj.msg) > 0; i++ {
		t := sends[i].Task
		if uint(t) >= uint(len(inj.pending)) || inj.pending[t] == 0 {
			continue
		}
		key := msgKey{t, sends[i].To}
		e, ok := inj.msg[key]
		if !ok {
			continue
		}
		delete(inj.msg, key)
		inj.pending[t]--
		inj.consumed[key] = e.Kind
		inj.applied[e.Kind]++
		switch e.Kind {
		case Delay:
			due := step + e.HoldSteps
			inj.delayed[due] = append(inj.delayed[due], sends[i])
			fallthrough
		case Drop:
			sends = slices.Delete(sends, i, i+1)
			i--
		case Duplicate:
			sends = slices.Insert(sends, i, sends[i])
			i++
		}
	}
	return sends
}

// Pending reports whether a message event has yet to fire: while one has,
// the engine's machine queues each step's sends for Rewrite instead of
// handing them over in the bodies.
func (inj *Injector) Pending() bool { return len(inj.msg) > 0 }

// retire drops every message event still pending whose (task,
// destination) message has no route in recv. The engine calls it when it
// lays routes out while no live processor has a crash left to fire: only
// a crash moves a cell, so such a message is never sent again and its
// event could never fire. A retired event is not counted as applied.
func (inj *Injector) retire(recv *sched.RecvTable) {
	for key := range inj.msg {
		routed := slices.ContainsFunc(recv.Out(recv.Pos(key.task)), func(o sched.OutEdge) bool { return o.To == key.to })
		if !routed {
			delete(inj.msg, key)
			inj.pending[key.task]--
		}
	}
}

// Matured removes and returns every held delivery due at or before the
// given global step, in deterministic (task, to) order.
func (inj *Injector) Matured(step int32) []Delivery {
	if len(inj.delayed) == 0 { // every barrier asks; almost none has any
		return nil
	}
	var due []Delivery
	for st, ds := range inj.delayed {
		if st <= step {
			due = append(due, ds...)
			delete(inj.delayed, st)
		}
	}
	sort.Slice(due, func(a, b int) bool {
		if due[a].Task != due[b].Task {
			return due[a].Task < due[b].Task
		}
		return due[a].To < due[b].To
	})
	return due
}

// matures reports whether a held delivery is due at or before the given
// global step, which Matured would return.
func (inj *Injector) matures(step int32) bool {
	for st := range inj.delayed {
		if st <= step {
			return true
		}
	}
	return false
}

// holding reports whether a delivery is held (a fired Delay not yet
// matured).
func (inj *Injector) holding() bool { return len(inj.delayed) > 0 }

// DiscardDelayed drops all held deliveries. Called on epoch teardown: the
// producers of held fluxes have completed, so after recovery their values
// are read from the durable checkpoint instead.
func (inj *Injector) DiscardDelayed() { clear(inj.delayed) }

// Explains reports whether a missing flux for (task, to) is accounted for
// by a fired drop or a still-held delay — i.e. whether a stall on it is an
// injected fault rather than an infeasible schedule.
func (inj *Injector) Explains(task sched.TaskID, to int32) bool {
	k, ok := inj.consumed[msgKey{task, to}]
	return ok && (k == Drop || k == Delay)
}

// Applied returns how many events of the kind have fired so far.
func (inj *Injector) Applied(k Kind) int { return inj.applied[k] }
