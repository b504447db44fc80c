package leakcheck

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fakeTB records a Fatalf instead of failing the real test, so the
// failure path of Check is itself testable. Like the real testing.T,
// Fatalf stops the calling goroutine (Check never returns after it).
type fakeTB struct {
	testing.TB // promote the interface; unimplemented methods panic
	failed     bool
	msg        string
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Fatalf(format string, args ...interface{}) {
	f.failed = true
	f.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

func TestCheckPassesOnCleanFunction(t *testing.T) {
	Check(t, func() {})
}

func TestCheckPassesOnJoinedWorkers(t *testing.T) {
	Check(t, func() {
		done := make(chan struct{})
		for i := 0; i < 4; i++ {
			go func() { done <- struct{}{} }()
		}
		for i := 0; i < 4; i++ {
			<-done
		}
	})
}

func TestCheckToleratesExitingGoroutine(t *testing.T) {
	// A worker past its final send but not yet descheduled must not trip
	// the checker: the settle loop waits for it.
	Check(t, func() {
		done := make(chan struct{})
		go func() {
			close(done)
			// Still alive for a moment after Check's fn returns.
			time.Sleep(20 * time.Millisecond)
		}()
		<-done
	})
}

func TestCheckFailsOnLeak(t *testing.T) {
	old := settleDeadline
	settleDeadline = 50 * time.Millisecond
	defer func() { settleDeadline = old }()

	ftb := &fakeTB{}
	block := make(chan struct{})
	defer close(block)
	finished := make(chan struct{})
	go func() {
		defer close(finished) // runs even when Fatalf Goexits this goroutine
		Check(ftb, func() {
			go func() { <-block }() // deliberately leaked past fn's return
		})
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Check did not return within 5s on a leaked goroutine")
	}
	if !ftb.failed {
		t.Fatal("Check did not report a deliberately leaked goroutine")
	}
	if !strings.Contains(ftb.msg, "goroutine leak") {
		t.Fatalf("failure message %q does not mention the leak", ftb.msg)
	}
}

// TestCheckFailsOnLeakWhileAnotherExits: a goroutine that was running
// before the call and exits during it must not hide one the call leaks —
// the goroutine count is the same before and after, the goroutines are
// not. This is the shape of the old -race flake in TestCheckFailsOnLeak,
// where an earlier test's goroutine was still exiting when Check started.
func TestCheckFailsOnLeakWhileAnotherExits(t *testing.T) {
	old := settleDeadline
	settleDeadline = 50 * time.Millisecond
	defer func() { settleDeadline = old }()

	release := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		<-release
	}()
	ftb := &fakeTB{}
	block := make(chan struct{})
	defer close(block)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		Check(ftb, func() {
			go func() { <-block }() // deliberately leaked past fn's return
			close(release)          // and the older goroutine exits
		})
	}()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Check did not return within 5s on a leaked goroutine")
	}
	<-exited
	if !ftb.failed {
		t.Fatal("Check missed a leaked goroutine while an unrelated one exited")
	}
	if !strings.Contains(ftb.msg, "goroutine leak") {
		t.Fatalf("failure message %q does not mention the leak", ftb.msg)
	}
}
