// Command sweeploadtest drives the sweepschedd service with many
// concurrent clients over repeated meshes and records the
// throughput/latency/hit-rate trajectory — the millions-of-users
// measurement for the scheduling-as-a-service direction (ROADMAP item
// 1; cf. the relaxed-scheduler throughput framing of Alistarh et al.).
//
// Two phases run back to back with the same client fleet:
//
//	cold — every request names a distinct mesh (unique mesh seed), so
//	       each one pays the full pipeline: mesh generation, skeleton
//	       extraction, k DAG inductions, scheduling;
//	warm — every request is identical, so after one priming request
//	       the schedule tier serves all of them without a single DAG
//	       build.
//
// By default the harness starts an in-process server (with sampled
// audits on) and tears it down at the end; -addr drives an external
// daemon instead. Results (per-phase latency distribution, per-window
// trajectory, server cache/audit counters, warm-over-cold speedup) are
// printed and optionally written as JSON with -out.
//
// Usage:
//
//	sweeploadtest -clients 8 -requests 25 -mesh tetonly -scale 0.05 \
//	              -k 24 -m 64 -out report.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"sweepsched/internal/cliutil"
	"sweepsched/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "", "base URL of a running daemon (empty = start an in-process server)")
		clients   = flag.Int("clients", 8, "concurrent clients")
		requests  = flag.Int("requests", 25, "requests per client per phase")
		meshName  = flag.String("mesh", "tetonly", "paper mesh family")
		scale     = flag.Float64("scale", 0.05, "mesh scale relative to paper size")
		k         = flag.Int("k", 24, "sweep directions")
		m         = flag.Int("m", 64, "processors")
		alg       = flag.String("alg", "random_delays_priority", "scheduler name")
		block     = flag.Int("block", 1, "block size")
		maxConc   = flag.Int("max-concurrent", 0, "in-process server admission slots (0 = 2*GOMAXPROCS)")
		verifyN   = flag.Int("verify-every", 8, "in-process server: audit every Nth run per problem")
		noVerify  = flag.Bool("no-verify", false, "in-process server: disable sampled audits")
		reqWait   = flag.Duration("request-timeout", 2*time.Minute, "per-request timeout")
		out       = flag.String("out", "", "write the JSON report to this path")
		benchNote = flag.String("note", "", "free-form note recorded in the report")
	)
	flag.Parse()

	for _, v := range []struct {
		name string
		n    int
	}{{"-clients", *clients}, {"-requests", *requests}, {"-k", *k}, {"-m", *m}} {
		if err := cliutil.ValidatePositive(v.name, v.n); err != nil {
			fatal(err)
		}
	}
	if err := cliutil.ValidateVerifyEvery(*verifyN); err != nil {
		fatal(err)
	}

	base := *addr
	var shutdown func()
	if base == "" {
		var err error
		base, shutdown, err = startInProcess(service.Config{
			MaxConcurrent: *maxConc,
			Verify:        !*noVerify,
			VerifyEvery:   *verifyN,
		})
		if err != nil {
			fatal(err)
		}
		defer shutdown()
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        2 * *clients,
			MaxIdleConnsPerHost: 2 * *clients,
		},
	}
	defer client.CloseIdleConnections()

	spec := func(meshSeed, schedSeed uint64) map[string]any {
		return map[string]any{
			"mesh":       map[string]any{"family": *meshName, "scale": *scale, "seed": meshSeed},
			"directions": *k,
			"procs":      *m,
			"scheduler":  *alg,
			"block_size": *block,
			"seed":       schedSeed,
		}
	}

	report := Report{
		Recorded: time.Now().UTC().Format(time.RFC3339),
		Note:     *benchNote,
	}
	report.Config.Clients = *clients
	report.Config.RequestsPerClient = *requests
	report.Config.Mesh = *meshName
	report.Config.Scale = *scale
	report.Config.K = *k
	report.Config.M = *m
	report.Config.Scheduler = *alg
	report.Config.VerifyEvery = *verifyN
	// Audits are under our control only for the in-process server; an
	// external daemon's -verify flags are its own.
	report.Config.VerifyEnabled = *addr == "" && !*noVerify

	// Cold: every request is a distinct mesh, so nothing can hit.
	cold := runPhase("cold", base, client, *reqWait, *clients, *requests, func(c, i int) map[string]any {
		u := uint64(c*1_000_000 + i + 1)
		return spec(u, u)
	})
	report.Phases = append(report.Phases, cold)

	// Warm: one priming request, then every client repeats it.
	prime := spec(0xbeef, 7)
	if _, _, _, err := post(base, client, *reqWait, prime); err != nil {
		fatal(fmt.Errorf("warm priming request: %w", err))
	}
	warm := runPhase("warm", base, client, *reqWait, *clients, *requests, func(c, i int) map[string]any {
		return prime
	})
	report.Phases = append(report.Phases, warm)

	if cold.Latency.Median > 0 && warm.Latency.Median > 0 {
		report.WarmOverColdMedianSpeedup = float64(cold.Latency.Median) / float64(warm.Latency.Median)
	}

	// Server-side accounting: audits and per-tier hit rates.
	if stats, err := getStats(base, client, *reqWait); err == nil {
		report.Server = stats
	} else {
		fmt.Fprintln(os.Stderr, "sweeploadtest: stats fetch failed:", err)
	}

	printSummary(&report)

	fail := cold.Errors+warm.Errors > 0
	if report.Config.VerifyEnabled {
		if report.Server == nil || counterOf(report.Server, "service.verify.audited") == 0 {
			fmt.Fprintln(os.Stderr, "sweeploadtest: sampled audits were enabled but no run was audited")
			fail = true
		}
	}
	if *out != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("report written to", *out)
	}
	if fail {
		os.Exit(1)
	}
}

// Report is the JSON artifact -out writes.
type Report struct {
	Recorded string `json:"recorded"`
	Note     string `json:"note,omitempty"`
	Config   struct {
		Clients           int     `json:"clients"`
		RequestsPerClient int     `json:"requests_per_client"`
		Mesh              string  `json:"mesh"`
		Scale             float64 `json:"scale"`
		K                 int     `json:"k"`
		M                 int     `json:"m"`
		Scheduler         string  `json:"scheduler"`
		VerifyEnabled     bool    `json:"verify_enabled"`
		VerifyEvery       int     `json:"verify_every"`
	} `json:"config"`
	Phases                    []Phase         `json:"phases"`
	WarmOverColdMedianSpeedup float64         `json:"warm_over_cold_median_speedup"`
	Server                    json.RawMessage `json:"server,omitempty"`
}

// Phase summarizes one load phase.
type Phase struct {
	Name          string  `json:"name"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	WallNanos     int64   `json:"wall_nanos"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Latency       Quant   `json:"latency_nanos"`
	CacheHits     int     `json:"cache_hits"`
	Coalesced     int     `json:"coalesced"`
	// Retries429 counts retried admission rejections: requests that got a
	// 429, waited out the server's Retry-After (or the client backoff),
	// and were resent.
	Retries429 int `json:"retries_429"`
	// Windows is the trajectory: completions in order, split into up
	// to ten equal windows, each with its median latency and hit rate.
	Windows []Window `json:"windows"`
}

// Quant is a latency distribution in nanoseconds.
type Quant struct {
	Min    int64 `json:"min"`
	Median int64 `json:"median"`
	P90    int64 `json:"p90"`
	P99    int64 `json:"p99"`
	Max    int64 `json:"max"`
}

// Window is one slice of a phase's completion-ordered trajectory.
type Window struct {
	Requests    int     `json:"requests"`
	MedianNanos int64   `json:"median_nanos"`
	HitRate     float64 `json:"hit_rate"`
}

type sample struct {
	done    time.Duration // completion offset from phase start
	latency time.Duration
	hit     bool
	coal    bool
	retries int
	err     error
}

// runPhase fires clients×requests POSTs, specFor(client, index) each.
func runPhase(name, base string, client *http.Client, reqWait time.Duration, clients, requests int, specFor func(c, i int) map[string]any) Phase {
	fmt.Printf("phase %s: %d clients x %d requests...\n", name, clients, requests)
	samples := make([]sample, clients*requests)
	start := time.Now()
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < requests; i++ {
				t0 := time.Now()
				hit, coal, retries, err := post(base, client, reqWait, specFor(c, i))
				samples[c*requests+i] = sample{
					done:    time.Since(start),
					latency: time.Since(t0),
					hit:     hit,
					coal:    coal,
					retries: retries,
					err:     err,
				}
			}
		}(c)
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	wall := time.Since(start)

	ph := Phase{Name: name, Requests: len(samples), WallNanos: int64(wall)}
	lats := make([]int64, 0, len(samples))
	for _, s := range samples {
		if s.err != nil {
			ph.Errors++
			fmt.Fprintln(os.Stderr, "sweeploadtest:", name, "request failed:", s.err)
			continue
		}
		lats = append(lats, int64(s.latency))
		if s.hit {
			ph.CacheHits++
		}
		if s.coal {
			ph.Coalesced++
		}
		ph.Retries429 += s.retries
	}
	ph.ThroughputRPS = float64(len(lats)) / wall.Seconds()
	ph.Latency = quantiles(lats)

	// Trajectory: order by completion, split into up to 10 windows.
	ok := make([]sample, 0, len(samples))
	for _, s := range samples {
		if s.err == nil {
			ok = append(ok, s)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].done < ok[j].done })
	nw := 10
	if len(ok) < nw {
		nw = len(ok)
	}
	for w := 0; w < nw; w++ {
		lo, hi := w*len(ok)/nw, (w+1)*len(ok)/nw
		if lo == hi {
			continue
		}
		wl := make([]int64, 0, hi-lo)
		hits := 0
		for _, s := range ok[lo:hi] {
			wl = append(wl, int64(s.latency))
			if s.hit {
				hits++
			}
		}
		ph.Windows = append(ph.Windows, Window{
			Requests:    hi - lo,
			MedianNanos: quantiles(wl).Median,
			HitRate:     float64(hits) / float64(hi-lo),
		})
	}
	return ph
}

func quantiles(lats []int64) Quant {
	if len(lats) == 0 {
		return Quant{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	return Quant{Min: lats[0], Median: at(0.5), P90: at(0.9), P99: at(0.99), Max: lats[len(lats)-1]}
}

// Retry policy for 429s: the server's Retry-After estimate is honored
// when present, raced against a capped exponential backoff with jitter
// so a fleet of rejected clients never returns in lockstep.
const (
	post429Retries = 5
	post429Base    = 100 * time.Millisecond
	post429Cap     = 5 * time.Second
)

// post sends one /v1/schedule request and reports the cache outcome,
// retrying admission rejections (429) per the policy above.
func post(base string, client *http.Client, reqWait time.Duration, spec map[string]any) (hit, coalesced bool, retries int, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return false, false, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), reqWait)
	defer cancel()
	backoff := post429Base
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/schedule", bytes.NewReader(body))
		if err != nil {
			return false, false, retries, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return false, false, retries, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && retries < post429Retries {
			wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff)/2+1))
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil {
				if ra := time.Duration(secs) * time.Second; ra > wait {
					wait = ra
				}
			}
			if wait > post429Cap {
				wait = post429Cap
			}
			resp.Body.Close()
			retries++
			backoff *= 2
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return false, false, retries, ctx.Err()
			}
		}
		var out struct {
			Makespan int `json:"makespan"`
			Cache    struct {
				Schedule  string `json:"schedule"`
				Coalesced bool   `json:"coalesced"`
			} `json:"cache"`
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if derr != nil {
			return false, false, retries, fmt.Errorf("status %d: %v", resp.StatusCode, derr)
		}
		if resp.StatusCode != http.StatusOK {
			return false, false, retries, fmt.Errorf("status %d: %s", resp.StatusCode, out.Error)
		}
		return out.Cache.Schedule == "hit", out.Cache.Coalesced, retries, nil
	}
}

// getStats fetches /v1/stats verbatim for the report.
func getStats(base string, client *http.Client, reqWait time.Duration) (json.RawMessage, error) {
	ctx, cancel := context.WithTimeout(context.Background(), reqWait)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// counterOf digs a named counter out of the stats JSON.
func counterOf(raw json.RawMessage, name string) int64 {
	var stats struct {
		Metrics struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		return 0
	}
	for _, c := range stats.Metrics.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func printSummary(r *Report) {
	for _, ph := range r.Phases {
		fmt.Printf("%-5s %4d req  %2d err  %7.1f req/s  median %8s  p99 %8s  hits %d/%d  coalesced %d  429-retries %d\n",
			ph.Name, ph.Requests, ph.Errors, ph.ThroughputRPS,
			time.Duration(ph.Latency.Median).Round(time.Microsecond),
			time.Duration(ph.Latency.P99).Round(time.Microsecond),
			ph.CacheHits, ph.Requests, ph.Coalesced, ph.Retries429)
	}
	if r.WarmOverColdMedianSpeedup > 0 {
		fmt.Printf("warm-over-cold median speedup: %.1fx\n", r.WarmOverColdMedianSpeedup)
	}
}

// startInProcess boots a Server on a loopback listener and returns its
// base URL plus a drain-and-stop function.
func startInProcess(cfg service.Config) (string, func(), error) {
	srv := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	stop := func() {
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}
	return base, stop, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweeploadtest:", err)
	os.Exit(2)
}
