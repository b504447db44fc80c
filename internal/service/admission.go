package service

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// errBusy is returned when a request waited QueueTimeout without
// getting an admission slot; handlers map it to 429 Too Many Requests.
var errBusy = errors.New("service: admission queue timeout")

// admission is a bounded semaphore with a queue timeout. It converts
// sustained overload into fast, cheap 429s at the door instead of
// letting every connection pile onto the scheduling pipeline: at most
// `slots` requests are in the build/schedule section at once, and a
// waiter gives up after `timeout` (or when its request context ends).
//
// It also keeps the two ingredients of an honest Retry-After: the
// current queue depth and the observed mean admitted-section service
// time.
type admission struct {
	slots   chan struct{}
	timeout time.Duration

	waiters  atomic.Int64 // requests currently queued for a slot
	svcCount atomic.Int64 // completed admitted sections
	svcNanos atomic.Int64 // total admitted-section wall time
}

func newAdmission(slots int, timeout time.Duration) *admission {
	return &admission{slots: make(chan struct{}, slots), timeout: timeout}
}

// acquire blocks until a slot is free, the timeout elapses (errBusy)
// or ctx ends (its error). A zero timeout admits only when a slot is
// immediately free.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if a.timeout <= 0 {
		return errBusy
	}
	a.waiters.Add(1)
	defer a.waiters.Add(-1)
	t := time.NewTimer(a.timeout)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-t.C:
		return errBusy
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees a slot acquired by acquire, recording how long the
// admitted section held it so Retry-After reflects observed service
// time.
func (a *admission) release(held time.Duration) {
	if held > 0 {
		a.svcCount.Add(1)
		a.svcNanos.Add(int64(held))
	}
	<-a.slots
}

// inFlight reports the number of currently held slots.
func (a *admission) inFlight() int { return len(a.slots) }

// meanService is the observed mean admitted-section duration, falling
// back to one second before any section has completed.
func (a *admission) meanService() time.Duration {
	n := a.svcCount.Load()
	if n == 0 {
		return time.Second
	}
	return time.Duration(a.svcNanos.Load() / n)
}

// retryAfterSeconds estimates when a 429'd client should come back: the
// time for the requests already queued ahead of it (plus itself) to
// drain through the slots at the observed service rate.
func (a *admission) retryAfterSeconds() int {
	return retryAfterSeconds(int(a.waiters.Load()), cap(a.slots), a.meanService())
}

// retryAfterSeconds is the pure Retry-After mapping:
//
//	ceil((queued+1) · meanService / slots), clamped to [1, 60] seconds
//
// A queue of q requests ahead of the retrier drains in about
// q·mean/slots; the +1 accounts for the retrier's own service. The
// floor keeps the header meaningful for sub-second services (HTTP
// Retry-After has whole-second granularity) and the cap keeps one slow
// request from parking clients for minutes — past a minute the estimate
// is noise, not signal.
func retryAfterSeconds(queued, slots int, meanService time.Duration) int {
	slots, queued = max(slots, 1), max(queued, 0)
	secs := int(math.Ceil(float64(queued+1) * meanService.Seconds() / float64(slots)))
	return min(max(secs, 1), 60)
}
