package sweepsched

import (
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestABSummary holds ab.sh's arithmetic, ab.awk, to the fake runs in
// testdata/ab: four pairs of two workloads, with medians, interquartile
// ranges, wins and sign-test p worked out by hand, ties counted as
// neither win nor loss, and a quality metric that differs in one pair of
// the second set, which must fail with exit status 1.
func TestABSummary(t *testing.T) {
	if _, err := exec.LookPath("awk"); err != nil {
		t.Skip("no awk on PATH")
	}
	summarize := func(set string) (string, int) {
		t.Helper()
		files, err := filepath.Glob(filepath.Join("testdata", "ab", set, "*.txt"))
		if err != nil || len(files) != 8 {
			t.Fatalf("%s: %d fixture files (%v), want 8", set, len(files), err)
		}
		out, err := exec.Command("awk", append([]string{"-f", "ab.awk"}, files...)...).Output()
		var exit *exec.ExitError
		switch {
		case errors.As(err, &exit):
			return string(out), exit.ExitCode()
		case err != nil:
			t.Fatal(err)
		}
		return string(out), 0
	}
	const (
		header = "ab: 4 pairs, parent first in odd pairs, seed = pair; per metric: parent -> change median (change/parent, parent IQR, change lower in w/n pairs, sign-test p)\n"
		rows   = "plan-cell        setup_s 0.25 -> 0.25 (1.000, iqr 0.005, 1/4, p 1)  cold_s 0.3 -> 0.295 (0.983, iqr 0.005, 3/4, p 0.62)  warm_s 0.1575 -> 0.1375 (0.873, iqr 0.0088, 4/4, p 0.12)\n" +
			"service-tiers    warm_s 0.0215 -> 0.0215 (1.000, iqr 0.0015, 1/4, p 1)\n"
	)
	for _, tc := range []struct {
		set, quality string
		exit         int
	}{
		{"tie", "quality: makespan_ratio, c1_edges, c2_rounds and failed_frac identical on every pair\n", 0},
		{"differ", "quality: 1 differ between the sides of a pair: plan-cell c1_edges pair 2: 1.44362625e+06 vs 1.4437e+06;\n", 1},
	} {
		got, exit := summarize(tc.set)
		if want := header + rows + tc.quality; got != want || exit != tc.exit {
			t.Errorf("%s: exit %d, summary\n%s\nwant exit %d, summary\n%s", tc.set, exit, got, tc.exit, want)
		}
	}
}
