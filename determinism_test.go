package sweepsched_test

// Race-proof determinism harness (the headline guarantee of the parallel
// per-direction pipeline): for every scheduler, the encoded schedule trace
// must be byte-identical for the same seed no matter how many workers the
// pipeline fans over. Parallel stages write into direction-indexed slots
// and all randomness is drawn from per-direction substreams before any
// fan-out, so Workers must be invisible in the output. Run with -race to
// also catch data races in the fan-out itself.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sweepsched"
)

// detProblems returns builders for the instances the determinism suite
// runs on: two mesh families plus one non-geometric instance, as small as
// they can be while still exercising block partitioning and every
// scheduler. A builder makes a fresh Problem each call — one whose DAGs
// have not been planned on yet.
func detProblems() map[string]func(t *testing.T) *sweepsched.Problem {
	probs := map[string]func(t *testing.T) *sweepsched.Problem{}
	for _, fam := range []string{"tetonly", "long"} {
		probs[fam] = func(t *testing.T) *sweepsched.Problem {
			t.Helper()
			p, err := sweepsched.NewProblemFromFamily(fam, 0.01, 8, 8, 42)
			if err != nil {
				t.Fatalf("%s: %v", fam, err)
			}
			return p
		}
	}
	probs["layered_random"] = func(t *testing.T) *sweepsched.Problem {
		t.Helper()
		ng, err := sweepsched.NewProblemNonGeometric(sweepsched.LayeredRandom, 200, 8, 8, 42)
		if err != nil {
			t.Fatal(err)
		}
		return ng
	}
	return probs
}

// traceBytes runs one scheduler and returns the encoded trace.
func traceBytes(t *testing.T, p *sweepsched.Problem, alg sweepsched.Scheduler, opts sweepsched.ScheduleOptions) []byte {
	t.Helper()
	res, err := p.Schedule(alg, opts)
	if err != nil {
		t.Fatalf("%s: %v", alg, err)
	}
	var buf bytes.Buffer
	if err := sweepsched.EncodeTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminismAcrossWorkers is the determinism regression test: for
// every scheduler, same seed at Workers=1 and Workers=8 must produce
// byte-identical traces, on two mesh families and one non-geometric
// instance, under per-cell and (for meshes) block assignment. The two
// plans run back to back on a fresh Problem, so the first is also the one
// that builds whatever DAG facts the scheduler reads and the second the
// one that finds them there: first-use and warm output are pinned equal.
func TestTraceDeterminismAcrossWorkers(t *testing.T) {
	for name, build := range detProblems() {
		blockSizes := []int{1}
		if name != "layered_random" {
			blockSizes = append(blockSizes, 16)
		}
		for _, bs := range blockSizes {
			for _, alg := range sweepsched.Schedulers() {
				t.Run(fmt.Sprintf("%s/block=%d/%s", name, bs, alg), func(t *testing.T) {
					p := build(t)
					serial := traceBytes(t, p, alg, sweepsched.ScheduleOptions{BlockSize: bs, Seed: 7, Workers: 1})
					parallel := traceBytes(t, p, alg, sweepsched.ScheduleOptions{BlockSize: bs, Seed: 7, Workers: 8})
					if !bytes.Equal(serial, parallel) {
						t.Fatalf("trace differs between Workers=1 (%d bytes) and Workers=8 (%d bytes)",
							len(serial), len(parallel))
					}
					// A different seed must still change the outcome (the
					// byte equality above is not vacuous).
					other := traceBytes(t, p, alg, sweepsched.ScheduleOptions{BlockSize: bs, Seed: 8, Workers: 8})
					if bytes.Equal(serial, other) {
						t.Fatalf("traces for seeds 7 and 8 are identical; determinism check is vacuous")
					}
				})
			}
		}
	}
}

// TestMetricsDeterminismAcrossWorkers pins the reduced metrics (C1 per
// direction, C2 per step range) to the same value for every worker count.
func TestMetricsDeterminismAcrossWorkers(t *testing.T) {
	p, err := sweepsched.NewProblemFromFamily("well_logging", 0.01, 12, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	var ref sweepsched.Result
	for i, workers := range []int{1, 2, 3, 8, 0} {
		res, err := p.Schedule(sweepsched.RandomDelaysPriority, sweepsched.ScheduleOptions{Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = *res
			continue
		}
		if res.Metrics != ref.Metrics {
			t.Fatalf("workers=%d: metrics %+v differ from serial %+v", workers, res.Metrics, ref.Metrics)
		}
	}
}

// TestSharedProblemPlansConcurrently: the DAG facts behind the descendant
// and DFDS priorities are built by whichever plan reads them first. Eight
// goroutines start planning on one Problem nobody has planned on yet —
// descendant_delays, dfds and the angleset-aggregated form, so every fact
// is raced for — and each plan must encode the schedule a serial run on a
// Problem of its own does. Run under -race.
func TestSharedProblemPlansConcurrently(t *testing.T) {
	build := detProblems()["tetonly"]
	plans := []struct {
		alg  sweepsched.Scheduler
		opts sweepsched.ScheduleOptions
	}{
		{sweepsched.DescendantDelays, sweepsched.ScheduleOptions{Seed: 7, BlockSize: 16}},
		{sweepsched.DFDS, sweepsched.ScheduleOptions{Seed: 7, BlockSize: 16}},
		{sweepsched.DescendantDelays, sweepsched.ScheduleOptions{Seed: 7, BlockSize: 16, Anglesets: 4}},
	}
	serial := build(t)
	want := make([][]byte, len(plans))
	for i, pl := range plans {
		want[i] = traceBytes(t, serial, pl.alg, pl.opts)
	}

	shared := build(t)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range plans {
				i := (g + j) % len(plans) // spread the first uses over the plans
				res, err := shared.Schedule(plans[i].alg, plans[i].opts)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", g, plans[i].alg, err)
					return
				}
				var buf bytes.Buffer
				if err := sweepsched.EncodeTrace(&buf, res); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), want[i]) {
					t.Errorf("goroutine %d, %s (anglesets %d): schedule differs from the serial run's",
						g, plans[i].alg, plans[i].opts.Anglesets)
				}
			}
		}()
	}
	wg.Wait()
}
