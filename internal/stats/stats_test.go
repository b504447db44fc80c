package stats

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median = %v", q)
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty quantile")
		}
	}()
	Quantile(nil, 0.5)
}

func TestTableRender(t *testing.T) {
	tbl := NewTable("name", "m", "ratio")
	tbl.AddRow("tetonly", 16, 1.2345678)
	tbl.AddRow("long", 128, 2.0)
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"name", "tetonly", "128", "1.235", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("a", "b")
	tbl.AddRow("x,y", 1)
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines %v", lines)
	}
	if lines[0] != "a,b" {
		t.Fatalf("csv header %q", lines[0])
	}
	if lines[1] != "x;y,1" {
		t.Fatalf("csv row %q", lines[1])
	}
}

func TestTableRenderZeroColumns(t *testing.T) {
	// Regression: a table built with no headers used to panic in Render
	// (strings.Repeat with a negative count for the separator line).
	tbl := NewTable()
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
}

func TestTableRenderWideRow(t *testing.T) {
	// Regression: a row wider than the header used to index past the
	// per-column width slice.
	tbl := NewTable("a")
	tbl.AddRow("x", "y", "zzz")
	tbl.AddRow(1)
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"a", "x", "zzz", "1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSVLosslessFloats(t *testing.T) {
	// CSV output must round-trip float64 cells bitwise; the text renderer
	// may keep rounding to 4 significant digits.
	vals := []float64{1.2345678901234567, math.Pi, 1e-17, 6.02214076e23, -0.1}
	tbl := NewTable("v")
	for _, v := range vals {
		tbl.AddRow(v)
	}
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(vals)+1 {
		t.Fatalf("csv lines %v", lines)
	}
	for i, v := range vals {
		got, err := strconv.ParseFloat(lines[i+1], 64)
		if err != nil {
			t.Fatalf("row %d %q: %v", i, lines[i+1], err)
		}
		if got != v {
			t.Fatalf("row %d: parsed %v, want %v (not lossless)", i, got, v)
		}
	}
	// The text renderer still rounds for alignment.
	var txt strings.Builder
	if err := tbl.Render(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "3.142") {
		t.Fatalf("text render should round pi to 4 significant digits:\n%s", txt.String())
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		q := float64(qRaw) / 255
		v := Quantile(xs, q)
		return v >= xs[0] && v <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSummaryMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
