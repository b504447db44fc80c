// Package par provides the small deterministic parallel-iteration helpers
// used throughout the pipeline (DAG induction, priority computation, metric
// accumulation) and by the experiment drivers: fan a fixed index range over
// a bounded worker pool, collect per-index results in order, and stop early
// on the first error. Determinism comes from indexing, not scheduling: every
// index computes into its own slot, so output never depends on goroutine
// interleaving, and any reduction over the slots is performed by the caller
// in index order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: w <= 0 selects GOMAXPROCS,
// anything else is returned unchanged. It is the single interpretation of
// the `Workers` options plumbed through the public API.
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// ForEach runs fn(i) for i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS; the pool never exceeds n).
//
// Error contract: ForEach returns the lowest-index error — the error
// recorded at the smallest index among all indices whose fn call returned
// non-nil. Once any call fails, workers stop claiming new indices, so
// higher indices may never run; every index below the returned one ran
// and succeeded, so the error is the one a serial loop returns. With
// workers == 1 execution is a plain serial loop and the first (lowest)
// failing index short-circuits exactly as a for-loop would.
//
// Panic contract: a panic inside fn is captured, the pool drains, and the
// panic is re-raised on the calling goroutine with its original value
// (lowest panicking index wins, and a panic at a lower index outranks an
// error at a higher one, matching serial execution order). Callers
// therefore observe panics exactly as they would from a serial loop.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	panics := make([]*panicValue, n)
	var next int64 = -1
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A failure stops the claiming, never a claimed index: every
			// index below a failing one was claimed before it and so runs,
			// and the lowest error is the one a serial loop returns.
			for !failed.Load() {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				if pv := protect(fn, i, errs); pv != nil {
					panics[i] = pv
					failed.Store(true)
				} else if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(panics[i].v)
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// panicValue distinguishes "fn panicked with nil" from "fn did not panic".
type panicValue struct{ v interface{} }

// protect runs fn(i), storing its error in errs[i] and converting a panic
// into a returned panicValue so the pool can drain before re-raising.
func protect(fn func(i int) error, i int, errs []error) (pv *panicValue) {
	defer func() {
		if r := recover(); r != nil {
			pv = &panicValue{r}
		}
	}()
	errs[i] = fn(i)
	return nil
}

// Map runs fn for every index and returns the results in index order.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
