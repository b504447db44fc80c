package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
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
	var all strings.Builder
	for _, id := range Names() {
		t.Run(id, func(t *testing.T) {
			got := goldenSection(id, 1)
			if four := goldenSection(id, 4); four != got {
				t.Errorf("Workers 4 output differs from Workers 1:\n--- 1\n%s--- 4\n%s", got, four)
			}
			all.WriteString(got)
			checkOrderings(t, id, got)
			if !*updateGolden && got != want[id] {
				t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", goldenPath, got, want[id])
			}
		})
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ordering is one of the paper's orderings EXPERIMENTS.md marks
// reproduced, as a predicate every row of one experiment's golden table
// must satisfy. col reads a column of the row, or a key=value of the
// table's title.
type ordering struct {
	id, claim string
	holds     func(col func(name string) float64) bool
}

// paperOrderings are checked on the tables TestExperimentsGolden renders,
// so they cost no second run. They are the orderings EXPERIMENTS.md marks
// reproduced that hold at the golden's configuration but not at every one
// the figures run at, so they are no claim of their figure: fig2b's share
// misses 0.01 at BenchmarkExperiments' seeds 1 and 4 (one trial), the
// guarantee's at seeds 3 and 5, and fig3c's fail at scales 0.05, 0.1 and
// 1.0. Block-64's C1 cut is left to ablate_assign's A2.
var paperOrderings = []ordering{
	{"fig2b", "a per-cell random assignment cuts (m-1)/m of the edges", func(c func(string) float64) bool {
		m := c("m")
		return math.Abs(c("C1_cell")/c("edges")-(m-1)/m) <= 0.01
	}},
	{"fig3c", "DFDS is no worse than random delays with priorities from m = 32", func(c func(string) float64) bool {
		return c("m") < 32 || c("ratio_dfds") <= c("ratio_random_delays_priority")
	}},
	{"fig3c", "delays do not help DFDS", func(c func(string) float64) bool {
		return c("ratio_dfds_delays") >= 0.97*c("ratio_dfds")
	}},
	{"guarantee", "Algorithm 3's priority form beats Algorithm 1", func(c func(string) float64) bool {
		return c("ratio_alg3") < c("ratio_alg1")
	}},
}

// checkOrderings holds every row of an experiment's section to its
// paperOrderings. A section is "=== id", the "# title" line, the header,
// a rule, one row per line, then the claim lines.
func checkOrderings(t *testing.T, id, section string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(section, "\n"), "\n")
	for _, o := range paperOrderings {
		if o.id != id {
			continue
		}
		if len(lines) < 5 {
			t.Fatalf("%s: no table to check %q on:\n%s", id, o.claim, section)
		}
		title, header := lines[1], strings.Fields(lines[2])
		for _, row := range lines[4:] {
			if strings.HasPrefix(row, "claim ") {
				break
			}
			cells := strings.Fields(row)
			col := func(name string) float64 {
				text := ""
				if i := slices.Index(header, name); i >= 0 && i < len(cells) {
					text = cells[i]
				} else if _, rest, ok := strings.Cut(title, name+"="); ok {
					text = strings.TrimRight(strings.Fields(rest)[0], ",)")
				}
				v, err := strconv.ParseFloat(text, 64)
				if err != nil {
					t.Fatalf("%s: no number for %s in the row %q", id, name, row)
				}
				return v
			}
			if !o.holds(col) {
				t.Errorf("%s: %q fails on the row %q", id, o.claim, row)
			}
		}
	}
}
