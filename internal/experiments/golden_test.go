package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/experiments_golden.txt from the current
// code. Only a change that means to move the paper's figures does that:
// the file is every experiment's table, so a schedule, seed or metric that
// moves shows up here as a diff of the figure it moved.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/experiments_golden.txt")

const goldenPath = "testdata/experiments_golden.txt"

// goldenSection runs one experiment at the golden's configuration (scale
// 0.02, seed 1, the default processor sweep and trial count) and returns
// its section of the file: a "=== id" line, the tables, and the error
// text if the run failed.
func goldenSection(id string, workers int) string {
	var out strings.Builder
	fmt.Fprintf(&out, "=== %s\n", id)
	if err := Run(id, Config{Scale: 0.02, Seed: 1, Workers: workers, Out: &out}); err != nil {
		fmt.Fprintf(&out, "error: %v\n", err)
	}
	return out.String()
}

// TestExperimentsGolden holds every experiment's output to
// testdata/experiments_golden.txt, at one worker and at four: the tables
// are a pure function of the configuration, whatever the parallelism.
// The experiments run as parallel subtests; -update-golden writes their
// sections in Names() order once all of them are done.
func TestExperimentsGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		id := ""
		for _, line := range strings.SplitAfter(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "=== "); ok {
				id = strings.TrimSpace(rest)
			}
			want[id] += line
		}
		if len(want) != len(Names()) {
			t.Errorf("golden holds %d experiments, Names() has %d", len(want), len(Names()))
		}
	}
	sections := make([]string, len(Names()))
	if *updateGolden {
		t.Cleanup(func() { // after every parallel subtest
			if err := os.WriteFile(goldenPath, []byte(strings.Join(sections, "")), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	for i, id := range Names() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got := goldenSection(id, 1)
			if four := goldenSection(id, 4); four != got {
				t.Errorf("Workers 4 output differs from Workers 1:\n--- 1\n%s--- 4\n%s", got, four)
			}
			sections[i] = got
			if !*updateGolden && got != want[id] {
				t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", goldenPath, got, want[id])
			}
		})
	}
}
