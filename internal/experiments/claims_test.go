package experiments

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestPaperClaims runs every figure that bears a claim at sweepbench's
// default scale: each claim must hold, on at least one row. The golden
// (scale 0.02) pins the claim lines of its own run.
func TestPaperClaims(t *testing.T) {
	for _, f := range figures {
		if len(f.claims) == 0 {
			continue
		}
		t.Run(f.id, func(t *testing.T) {
			var out strings.Builder
			if err := Run(f.id, Config{Scale: 0.05, Seed: 1, Trials: 3, Out: &out}); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			for _, c := range f.claims {
				if !strings.Contains(out.String(), "\nclaim "+c.id+" holds on ") {
					t.Errorf("no line says claim %s holds:\n%s", c.id, out.String())
				}
			}
		})
	}
}

// TestAcceptReturnsTheFailedCriteria: 512 processors for a mesh of ~150
// cells leave no row in A1's load-bound regime nk/m >= 2D, so A1 fails —
// and the figure must say so with an error that names it, not only in
// the claim line.
func TestAcceptReturnsTheFailedCriteria(t *testing.T) {
	var out strings.Builder
	err := Run("guarantee", Config{Scale: 0.005, Seed: 1, Trials: 1, Procs: []int{512}, Out: &out})
	var ce *ClaimError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want a *ClaimError\n%s", err, out.String())
	}
	if !slices.Contains(ce.Failed, "A1") || !strings.Contains(err.Error(), "A1") {
		t.Fatalf("failed claims %v (%v) do not name A1\n%s", ce.Failed, err, out.String())
	}
	for _, id := range ce.Failed {
		if !strings.Contains(out.String(), "\nclaim "+id+" FAILS") {
			t.Errorf("failed claim %s has no FAILS line:\n%s", id, out.String())
		}
	}
}

// TestPlantedClaimFails: a figure whose claim one of its rows breaks
// prints the claim's FAILS line with the worst value, and its run returns
// the error naming that claim and no other.
func TestPlantedClaimFails(t *testing.T) {
	f := figure{id: "planted", title: "planted: rows 1 to 3", rows: sweep(0, 1, 2, 3),
		cols: []col{{name: "x", cell: swept}},
		claims: []claim{
			{id: "P1", text: "x", value: cellAt(0), op: "<=", bound: 2},
			{id: "P2", text: "x", value: cellAt(0), op: ">", bound: 0},
			{id: "P3", text: "x where x > 3", regime: func(p *point) bool { return p.x > 3 }, value: cellAt(0), op: ">", bound: 0},
		}}
	var out strings.Builder
	err := f.eval(Config{Out: &out}.withDefaults())
	var ce *ClaimError
	if !errors.As(err, &ce) || !slices.Equal(ce.Failed, []string{"P1", "P3"}) {
		t.Fatalf("got %v, want a *ClaimError naming P1 and P3\n%s", err, out.String())
	}
	for _, line := range []string{
		"claim P1 FAILS on 3 rows: x, worst 3, want <= 2",
		"claim P2 holds on 3 rows: x, worst 1 > 0",
		"claim P3 FAILS: no row in its regime (x where x > 3)",
	} {
		if !strings.Contains(out.String(), line+"\n") {
			t.Errorf("no line %q in\n%s", line, out.String())
		}
	}
}
