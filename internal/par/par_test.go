package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		var count int64
		hit := make([]int32, 50)
		err := ForEach(50, workers, func(i int) error {
			atomic.AddInt64(&count, 1)
			atomic.AddInt32(&hit[i], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 50 {
			t.Fatalf("workers=%d: ran %d of 50", workers, count)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	e3 := errors.New("three")
	e7 := errors.New("seven")
	err := ForEach(10, 1, func(i int) error {
		switch i {
		case 3:
			return e3
		case 7:
			return e7
		}
		return nil
	})
	if err != e3 {
		t.Fatalf("err = %v, want error from index 3", err)
	}
}

func TestForEachParallelErrorStops(t *testing.T) {
	var ran int64
	err := ForEach(10000, 4, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 5 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if atomic.LoadInt64(&ran) == 10000 {
		t.Log("note: all indices ran before the error propagated (allowed but unusual)")
	}
}

func TestMapOrdered(t *testing.T) {
	out, err := Map(20, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapError(t *testing.T) {
	_, err := Map(5, 2, func(i int) (int, error) {
		if i == 2 {
			return 0, errors.New("bad")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
}

// TestForEachStress runs far more indices than workers with contention on a
// shared counter; run under -race this exercises the claim/complete
// protocol.
func TestForEachStress(t *testing.T) {
	const n = 200000
	for _, workers := range []int{2, 3, 8, 16} {
		var sum int64
		hit := make([]int32, n)
		if err := ForEach(n, workers, func(i int) error {
			atomic.AddInt64(&sum, int64(i))
			atomic.AddInt32(&hit[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want := int64(n) * (n - 1) / 2; sum != want {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, sum, want)
		}
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForEachLowestIndexError injects an error at every index. Index 0 is
// always claimed first (the atomic counter starts below it), so the
// documented contract — the lowest-index error wins — pins the result to
// index 0's error regardless of worker count or interleaving.
func TestForEachLowestIndexError(t *testing.T) {
	const n = 1000
	errAt := make([]error, n)
	for i := range errAt {
		errAt[i] = fmt.Errorf("err-%d", i)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 20; trial++ {
			err := ForEach(n, workers, func(i int) error { return errAt[i] })
			if err != errAt[0] {
				t.Fatalf("workers=%d: err = %v, want %v", workers, err, errAt[0])
			}
		}
	}
}

// TestForEachErrorMidRange errors midway with a busy pool; the returned
// error must be one of the injected ones and later indices must stop being
// claimed eventually (the pool drains without running all of them, unless
// scheduling raced them all in — allowed, just unusual).
func TestForEachErrorMidRange(t *testing.T) {
	boom := errors.New("boom")
	const n = 100000
	var ran int64
	err := ForEach(n, 4, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i >= n/2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := atomic.LoadInt64(&ran); got < int64(n/2) {
		t.Fatalf("only %d indices ran; the failure is before any injected error", got)
	}
}

// TestForEachPanicPropagation asserts a panic in fn resurfaces on the
// calling goroutine with its original value, for serial and parallel pools.
func TestForEachPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
				if s, ok := r.(string); !ok || s != "kaboom-7" {
					t.Fatalf("workers=%d: recovered %v, want kaboom-7", workers, r)
				}
			}()
			_ = ForEach(100, workers, func(i int) error {
				if i == 7 {
					panic("kaboom-7")
				}
				return nil
			})
			t.Fatalf("workers=%d: ForEach returned normally", workers)
		}()
	}
}

// TestForEachPanicBeatsLaterError: serial order puts a panic at index 3
// before an error at index 9, so the panic must win even in parallel runs
// where both may occur.
func TestForEachPanicBeatsLaterError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: expected panic, got normal return", workers)
				}
			}()
			_ = ForEach(10, workers, func(i int) error {
				if i == 3 {
					panic("early")
				}
				if i == 9 {
					return errors.New("late")
				}
				return nil
			})
		}()
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("Workers(<=0) must select at least one worker")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}

func TestQuickForEachCoversAllIndices(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw % 64)
		w := int(wRaw % 8)
		hit := make([]int32, n)
		if err := ForEach(n, w, func(i int) error {
			atomic.AddInt32(&hit[i], 1)
			return nil
		}); err != nil {
			return false
		}
		for _, h := range hit {
			if h != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestForEachRunsEveryIndexBelowTheError: every index below the returned
// error's runs, so the error is the one a serial loop returns — what the
// split feasibility checks rely on. Indices from n/2 on fail; a worker
// that had claimed an index just below n/2 used to see the failure flag a
// later index set and return without running it, and the error returned
// was then that later index's.
func TestForEachRunsEveryIndexBelowTheError(t *testing.T) {
	const n = 4000
	errAt := make([]error, n)
	for i := n / 2; i < n; i++ {
		errAt[i] = fmt.Errorf("err-%d", i)
	}
	for _, workers := range []int{2, 4, 8} {
		for trial := 0; trial < 50; trial++ {
			ran := make([]atomic.Bool, n)
			err := ForEach(n, workers, func(i int) error {
				ran[i].Store(true)
				return errAt[i]
			})
			if err != errAt[n/2] {
				t.Fatalf("workers=%d trial %d: err = %v, want %v", workers, trial, err, errAt[n/2])
			}
			for i := 0; i < n/2; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d trial %d: index %d below the first failure never ran", workers, trial, i)
				}
			}
		}
	}
}
