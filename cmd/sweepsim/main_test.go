package main

import (
	"os"
	"path/filepath"
	"testing"

	"sweepsched"
)

// TestMain lets the test binary stand in for sweepsim when the
// multi-process executor re-executes it as a worker.
func TestMain(m *testing.M) {
	sweepsched.MaybeProcWorker()
	os.Exit(m.Run())
}

// TestFailedProcsRunRemovesItsCheckpoints: a -faults -procs run that
// cannot recover — two crashes on two processors leave no worker alive —
// fails, and its checkpoint directory is gone when it has.
func TestFailedProcsRunRemovesItsCheckpoints(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	if err := run([]string{"-mesh", "tetonly", "-scale", "0.002", "-k", "8", "-m", "2", "-faults", "-procs", "-crash", "2"}); err == nil {
		t.Fatal("a plan that crashes every worker succeeded")
	}
	left, err := filepath.Glob(filepath.Join(tmp, "sweepsim-ckpt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("the failed run left %v behind", left)
	}
}
