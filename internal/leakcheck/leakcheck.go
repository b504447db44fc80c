// Package leakcheck asserts that a function under test does not leave
// goroutines behind. The barrier-synchronous executors in this repository
// promise to join every worker on every return path (success, infeasible
// schedule, fault, cancellation); these assertions make that promise
// testable.
package leakcheck

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// settleDeadline is how long Check waits for the goroutines fn started to
// exit. A package variable so the failure path can be exercised quickly
// in tests.
var settleDeadline = 2 * time.Second

// Check runs fn and then waits for every goroutine that was not running
// before the call to exit, failing the test with those goroutines' stacks
// if any is still alive after settleDeadline. Goroutines are told apart by
// id, not counted: a goroutine that was already running and exits during
// the wait cannot hide one that fn leaked. The settle loop tolerates
// goroutines that are mid-exit when fn returns (a worker that has passed
// its final channel receive but not yet been descheduled).
func Check(t testing.TB, fn func()) {
	t.Helper()
	before := map[uint64]bool{}
	for _, g := range goroutines() {
		before[g.id] = true
	}
	fn()
	deadline := time.Now().Add(settleDeadline)
	for {
		var leaked [][]byte
		for _, g := range goroutines() {
			if !before[g.id] {
				leaked = append(leaked, g.stack)
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d goroutines started during the call are still running\n%s",
				len(leaked), bytes.Join(leaked, []byte("\n\n")))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutine is one entry of a full stack dump.
type goroutine struct {
	id    uint64
	stack []byte
}

// goroutines lists every live goroutine with its stack, from
// runtime.Stack's dump: blocks separated by a blank line, each headed
// "goroutine <id> [<state>]:".
func goroutines() []goroutine {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var gs []goroutine
	for _, block := range bytes.Split(buf, []byte("\n\n")) {
		rest, ok := bytes.CutPrefix(block, []byte("goroutine "))
		if !ok {
			continue
		}
		idText, _, _ := bytes.Cut(rest, []byte(" "))
		id, err := strconv.ParseUint(string(idText), 10, 64)
		if err != nil {
			continue
		}
		gs = append(gs, goroutine{id, block})
	}
	return gs
}
