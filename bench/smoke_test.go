package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sweepsched"
)

func TestMain(m *testing.M) {
	// sweep-procs re-executes the test binary as its worker processes.
	sweepsched.MaybeProcWorker()
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and the program's own tables name the same workloads
// and metrics, with the same units, directions and bounds.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", bf.PerLayer, perLayer)
	}
	var ws []workload
	for _, w := range workloads(false) {
		if !w.byHand {
			ws = append(ws, w)
		}
	}
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the file, %d in the program that the driver runs", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%s) in the file, %q (%s) in the program", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// The smoke path runs all six workloads at tiny scales, one round each,
// untraced and traced, and must report every metric of its mode for
// every workload with nothing failed.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, mode := range []struct {
		trace string
		file  string
		defs  []metricDef
	}{
		{"0", "results.json", bf.EndToEnd},
		{"1", "layers.json", bf.PerLayer},
	} {
		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := benchMain([]string{"-smoke", "-seed", "3", "-trace", mode.trace, "-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", mode.trace, code, stdout.String(), stderr.String())
		}
		raw, err := os.ReadFile(filepath.Join(out, mode.file))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Env       environment `json:"env"`
			Workloads []result    `json:"workloads"`
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Env.Seed != 3 || got.Env.GOMAXPROCS < 1 || got.Env.GoVersion == "" {
			t.Errorf("trace %s: environment not recorded: %+v", mode.trace, got.Env)
		}
		ws := workloads(true)
		if len(got.Workloads) != len(ws) {
			t.Fatalf("trace %s: %d workloads reported, want %d", mode.trace, len(got.Workloads), len(ws))
		}
		for i, res := range got.Workloads {
			if res.Workload != ws[i].name {
				t.Errorf("trace %s: workload %d is %q, want %q", mode.trace, i, res.Workload, ws[i].name)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s: %s: correct=%v failed=%d attempted=%d %v", mode.trace, res.Workload, res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("trace %s: %s reports %d metrics, want %d", mode.trace, res.Workload, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit {
					t.Errorf("trace %s: %s: metric %s missing or in %q, want %q", mode.trace, res.Workload, d.Name, mv.Unit, d.Unit)
				}
			}
		}
		if mode.trace == "1" {
			if _, err := os.Stat(filepath.Join(out, "trace.json")); err != nil {
				t.Error(err)
			}
		}
		if entries, _ := os.ReadDir(filepath.Join(out, "tmp")); len(entries) > 0 {
			t.Errorf("scratch files left behind: %v", entries)
		}
	}
}

// One workload's run ends with the driver's JSON object.
func TestDriverLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := benchMain([]string{"--workload", "plan-cell", "--seed", "1", "--seconds", "1", "--trace", "0", "-smoke", "-out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &obj); err != nil {
		t.Fatalf("last line is not JSON: %s", lines[len(lines)-1])
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[key]; !ok {
			t.Errorf("driver line lacks %q", key)
		}
	}
	if len(obj) != 4 {
		t.Errorf("driver line has %d keys, want exactly 4", len(obj))
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the driver line, want %d", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["unit"] == nil || m["value"] == nil {
			t.Errorf("metric %s = %v, want exactly value and unit", name, m)
		}
	}
}
