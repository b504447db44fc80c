package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestAcceptPaperCriteria is the paper's gate in tier-1: all of A1–A6 on
// the four mesh families at the smallest scale where the default processor
// sweep still leaves loadBoundProcs a load-bound machine to pick, and at
// sweepbench's default scale.
func TestAcceptPaperCriteria(t *testing.T) {
	for _, scale := range []float64{0.02, 0.05} {
		t.Run(fmt.Sprint("scale=", scale), func(t *testing.T) {
			var out strings.Builder
			if err := Run("accept", Config{Scale: scale, Seed: 1, Trials: 3, Out: &out}); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "ACCEPT: all criteria passed") {
				t.Fatalf("no verdict line:\n%s", out.String())
			}
		})
	}
}

// TestAcceptReturnsTheFailedCriteria: 512 processors for a mesh of ~150
// cells is far outside the load-bound regime the claims assume, so the
// ratio criteria fail — and the experiment must say so with an error that
// names them, not only in the table.
func TestAcceptReturnsTheFailedCriteria(t *testing.T) {
	var out strings.Builder
	err := Run("accept", Config{Scale: 0.005, Seed: 1, Trials: 1, Procs: []int{512}, Out: &out})
	var ae *AcceptError
	if !errors.As(err, &ae) {
		t.Fatalf("got %v, want an *AcceptError\n%s", err, out.String())
	}
	if !slices.Contains(ae.Failed, "A1") || !strings.Contains(err.Error(), "A1") {
		t.Fatalf("failed criteria %v (%v) do not name A1\n%s", ae.Failed, err, out.String())
	}
	for _, id := range ae.Failed {
		if !strings.Contains(out.String(), "\n"+id+" ") {
			t.Errorf("failed criterion %s has no table row", id)
		}
	}
	if !strings.Contains(out.String(), "ACCEPT: FAILURES above") {
		t.Fatalf("no verdict line:\n%s", out.String())
	}
}
