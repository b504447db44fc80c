package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sweepsched/internal/leakcheck"
	"sweepsched/internal/mesh"
)

// testConfig is small and fast: tiny mesh, no queueing surprises.
func testConfig() Config {
	return Config{
		MaxConcurrent: 8,
		QueueTimeout:  time.Second,
		CacheBytes:    64 << 20,
		Workers:       1,
	}
}

// baseSpec is the canonical request most tests use.
func baseSpec() map[string]any {
	return map[string]any{
		"mesh":       map[string]any{"family": "tetonly", "scale": 0.02, "seed": 1},
		"directions": 8,
		"procs":      16,
		"scheduler":  "random_delays_priority",
		"seed":       7,
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postSchedule fires one /v1/schedule request and decodes the result.
func postSchedule(t *testing.T, ts *httptest.Server, spec any) (int, *ScheduleResponse, string) {
	t.Helper()
	return postScheduleClient(t, ts.Client(), ts.URL, spec)
}

func postScheduleClient(t *testing.T, client *http.Client, base string, spec any) (int, *ScheduleResponse, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.Unmarshal(raw, &eb)
		return resp.StatusCode, nil, eb.Error
	}
	var out ScheduleResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad 200 body: %v\n%s", err, raw)
	}
	return resp.StatusCode, &out, ""
}

// postTransport fires one /v1/transport request and decodes the result.
func postTransport(t *testing.T, ts *httptest.Server, req any) (int, *TransportResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/transport", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.Unmarshal(raw, &eb)
		return resp.StatusCode, nil, eb.Error
	}
	var out TransportResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad 200 body: %v\n%s", err, raw)
	}
	return resp.StatusCode, &out, ""
}

func counterValue(s *Server, name string) int64 {
	return s.col.Counter(name).Value()
}

// TestScheduleColdWarm is the headline cache contract: the first
// request builds everything, an identical second request is served
// from the schedule tier with ZERO DAG builds (asserted through the
// obs counters, per the acceptance criteria).
func TestScheduleColdWarm(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())

	status, cold, _ := postSchedule(t, ts, baseSpec())
	if status != 200 {
		t.Fatalf("cold status = %d", status)
	}
	if cold.Cache.Schedule != "miss" || cold.Cache.Family != "miss" || cold.Cache.Skeleton != "miss" {
		t.Fatalf("cold trace = %+v, want miss at every tier", cold.Cache)
	}
	if cold.Makespan <= 0 || cold.N <= 0 || cold.Tasks != cold.N*cold.K {
		t.Fatalf("implausible cold response: %+v", cold)
	}
	builds := counterValue(srv, "service.build.dag_family")
	if builds != 1 {
		t.Fatalf("cold request performed %d DAG-family builds, want 1", builds)
	}

	status, warm, _ := postSchedule(t, ts, baseSpec())
	if status != 200 {
		t.Fatalf("warm status = %d", status)
	}
	if warm.Cache.Schedule != "hit" {
		t.Fatalf("warm trace = %+v, want schedule hit", warm.Cache)
	}
	if got := counterValue(srv, "service.build.dag_family"); got != builds {
		t.Fatalf("warm identical request built %d DAG families", got-builds)
	}
	if got := counterValue(srv, "service.build.schedule"); got != 1 {
		t.Fatalf("warm identical request re-ran the scheduler (%d builds)", got)
	}
	if warm.Makespan != cold.Makespan || warm.C1 != cold.C1 || warm.C2 != cold.C2 {
		t.Fatalf("warm metrics %v differ from cold %v", warm, cold)
	}
}

// TestCacheTierLadder walks the tiers: a new scheduling seed reuses
// the DAG family; a new direction count reuses only the skeleton; a
// new mesh reuses nothing.
func TestCacheTierLadder(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	if status, _, msg := func() (int, *ScheduleResponse, string) { return postSchedule(t, ts, baseSpec()) }(); status != 200 {
		t.Fatalf("prime failed: %d %s", status, msg)
	}

	newSeed := baseSpec()
	newSeed["seed"] = 99
	_, r, _ := postSchedule(t, ts, newSeed)
	if r.Cache.Schedule != "miss" || r.Cache.Family != "hit" {
		t.Fatalf("new seed trace = %+v, want schedule miss + family hit", r.Cache)
	}

	newK := baseSpec()
	newK["directions"] = 16
	_, r, _ = postSchedule(t, ts, newK)
	if r.Cache.Schedule != "miss" || r.Cache.Family != "miss" || r.Cache.Skeleton != "hit" {
		t.Fatalf("new k trace = %+v, want family miss + skeleton hit", r.Cache)
	}

	newMesh := baseSpec()
	newMesh["mesh"] = map[string]any{"family": "tetonly", "scale": 0.02, "seed": 2}
	_, r, _ = postSchedule(t, ts, newMesh)
	if r.Cache.Schedule != "miss" || r.Cache.Family != "miss" || r.Cache.Skeleton != "miss" {
		t.Fatalf("new mesh trace = %+v, want miss at every tier", r.Cache)
	}

	newM := baseSpec()
	newM["procs"] = 32
	_, r, _ = postSchedule(t, ts, newM)
	if r.Cache.Family != "miss" || r.Cache.Skeleton != "hit" {
		t.Fatalf("new m trace = %+v, want family miss (m is in the key) + skeleton hit", r.Cache)
	}
}

// TestConcurrentClientsDeterministic fires many identical requests at
// a cold server at once: every response must carry identical metrics
// and start times, and exactly one scheduler run must have happened
// (the rest coalesce onto it or hit the cache it filled).
func TestConcurrentClientsDeterministic(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	spec := baseSpec()
	spec["include_schedule"] = true

	const clients = 12
	results := make([]*ScheduleResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, r, msg := postScheduleClient(t, ts.Client(), ts.URL, spec)
			if status != 200 {
				t.Errorf("client %d: status %d: %s", i, status, msg)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()

	if got := counterValue(srv, "service.build.schedule"); got != 1 {
		t.Fatalf("%d concurrent identical requests ran the scheduler %d times, want 1", clients, got)
	}
	ref := results[0]
	if ref == nil {
		t.Fatal("no successful responses")
	}
	for i, r := range results {
		if r == nil {
			continue
		}
		if r.Makespan != ref.Makespan || r.C1 != ref.C1 || r.C2 != ref.C2 {
			t.Fatalf("client %d metrics (%d,%d,%d) differ from (%d,%d,%d)",
				i, r.Makespan, r.C1, r.C2, ref.Makespan, ref.C1, ref.C2)
		}
		if len(r.Start) != len(ref.Start) {
			t.Fatalf("client %d start length %d != %d", i, len(r.Start), len(ref.Start))
		}
		for j := range r.Start {
			if r.Start[j] != ref.Start[j] {
				t.Fatalf("client %d start[%d] = %d != %d", i, j, r.Start[j], ref.Start[j])
			}
		}
	}

	// Cross-server: a fresh server must produce the identical schedule
	// serially (caching and coalescing never change output).
	_, ts2 := newTestServer(t, testConfig())
	_, solo, _ := postSchedule(t, ts2, spec)
	if solo.Makespan != ref.Makespan || solo.C1 != ref.C1 || solo.C2 != ref.C2 {
		t.Fatalf("fresh server metrics (%d,%d,%d) differ from concurrent run (%d,%d,%d)",
			solo.Makespan, solo.C1, solo.C2, ref.Makespan, ref.C1, ref.C2)
	}
	for j := range solo.Start {
		if solo.Start[j] != ref.Start[j] {
			t.Fatalf("fresh server start[%d] = %d != %d", j, solo.Start[j], ref.Start[j])
		}
	}
}

// TestMalformedRequests pins the 4xx contract for the spec decoder.
func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		name string
		body string
		want int
		path string // "" posts to /v1/schedule
	}{
		{"empty", "", 400, ""},
		{"not_json", "bogus", 400, ""},
		{"trailing_garbage", `{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16} trailing`, 400, ""},
		{"unknown_field", `{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"bogus":1}`, 400, ""},
		{"no_mesh_source", `{"mesh":{},"directions":8,"procs":16}`, 400, ""},
		{"two_mesh_sources", `{"mesh":{"family":"tetonly","scale":0.02,"synthetic":"random_chains","n":10},"directions":8,"procs":16}`, 400, ""},
		{"unknown_family", `{"mesh":{"family":"moebius","scale":0.02},"directions":8,"procs":16}`, 400, ""},
		{"zero_scale", `{"mesh":{"family":"tetonly"},"directions":8,"procs":16}`, 400, ""},
		{"huge_scale", `{"mesh":{"family":"tetonly","scale":1e9},"directions":8,"procs":16}`, 400, ""},
		{"zero_directions", `{"mesh":{"family":"tetonly","scale":0.02},"procs":16}`, 400, ""},
		{"zero_procs", `{"mesh":{"family":"tetonly","scale":0.02},"directions":8}`, 400, ""},
		{"unknown_scheduler", `{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"scheduler":"quantum"}`, 400, ""},
		{"negative_block", `{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"block_size":-1}`, 400, ""},
		{"negative_comm", `{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"comm_delay":-2}`, 400, ""},
		{"comm_with_layered_alg", `{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"scheduler":"random_delays","comm_delay":1}`, 400, ""},
		{"block_on_synthetic", `{"mesh":{"synthetic":"random_chains","n":50,"seed":1},"directions":8,"procs":16,"block_size":8}`, 400, ""},
		{"unknown_synthetic", `{"mesh":{"synthetic":"fractal","n":50},"directions":8,"procs":16}`, 400, ""},
		{"task_ceiling", `{"mesh":{"synthetic":"random_chains","n":1048576,"seed":1},"directions":512,"procs":16}`, 400, ""},
		{"bad_encoded_mesh", `{"mesh":{"encoded":"not a sweepmesh"},"directions":8,"procs":16}`, 400, ""},
		// The decoder must not allocate a header's claim before the body backs it.
		{"huge_count_encoded_mesh", `{"mesh":{"encoded":"sweepmesh 1\nname x\nverts 17592186044416\n0 0 0\n"},"directions":8,"procs":16}`, 400, ""},
		{"negative_workers", `{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"workers":-1}`, 400, ""},
		// A tiny tol with an unbounded iteration cap would hold an admission
		// slot until its client gave up.
		{"max_iters_ceiling", `{"schedule":{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16},"sigma_t":1,"sigma_s":0.5,"source":1,"max_iters":10001}`, 400, "/v1/transport"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := tc.path
			if path == "" {
				path = "/v1/schedule"
			}
			resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				raw, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.want, raw)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("error body missing or undecodable: %v", err)
			}
		})
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	get, err := ts.Client().Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule = %d, want 405", get.StatusCode)
	}
	notFound, err := ts.Client().Get(ts.URL + "/v2/schedule")
	if err != nil {
		t.Fatal(err)
	}
	notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v2/schedule = %d, want 404", notFound.StatusCode)
	}
}

func TestBodyTooLarge(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 64
	_, ts := newTestServer(t, cfg)
	body, _ := json.Marshal(baseSpec())
	resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestAdmission429 holds the single admission slot with an in-flight
// request and asserts the next one is turned away as 429 with
// Retry-After, leaking nothing.
func TestAdmission429(t *testing.T) {
	leakcheck.Check(t, func() {
		cfg := testConfig()
		cfg.MaxConcurrent = 1
		cfg.QueueTimeout = -1 // reject unless a slot is immediately free
		srv := New(cfg)
		entered := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		srv.testHook = func(string, context.Context) {
			once.Do(func() { close(entered) })
			<-release
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		firstDone := make(chan int, 1)
		go func() {
			status, _, _ := postScheduleClient(t, ts.Client(), ts.URL, baseSpec())
			firstDone <- status
		}()
		<-entered

		// Distinct spec: must not coalesce, must hit admission.
		busy := baseSpec()
		busy["seed"] = 1234
		body, _ := json.Marshal(busy)
		resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status under load = %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}

		close(release)
		if status := <-firstDone; status != 200 {
			t.Fatalf("held request finished with %d, want 200", status)
		}
		if got := counterValue(srv, "service.admission.rejected"); got != 1 {
			t.Fatalf("admission.rejected = %d, want 1", got)
		}
		ts.Client().CloseIdleConnections()
	})
}

// TestCancellation vanishes the client mid-build and asserts the
// server abandons the run (status counter 499) without leaking the
// request goroutine.
func TestCancellation(t *testing.T) {
	leakcheck.Check(t, func() {
		srv := New(testConfig())
		entered := make(chan struct{})
		var once sync.Once
		srv.testHook = func(_ string, hctx context.Context) {
			once.Do(func() { close(entered) })
			// Hold the build until the server has observed the
			// client's disappearance, so the request deterministically
			// takes the cancelled path. Waiting on anything else races
			// with cancellation propagation: if the hook returns before
			// net/http's background read notices the closed connection,
			// the build completes under a live context and is recorded
			// as a 200. The timeout is only a deadlock backstop.
			select {
			case <-hctx.Done():
			case <-time.After(30 * time.Second):
			}
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		ctx, cancel := context.WithCancel(context.Background())
		body, _ := json.Marshal(baseSpec())
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(body))
		errc := make(chan error, 1)
		go func() {
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		<-entered
		cancel()
		if err := <-errc; err == nil {
			t.Fatal("cancelled client got a response")
		}

		// The handler observes the dead context after the hook and
		// records the abandonment. The abandoned build still runs to
		// completion first, which under -race on a loaded single-CPU
		// host takes seconds — hence the generous deadline.
		deadline := time.Now().Add(30 * time.Second)
		for counterValue(srv, "service.status.499") == 0 {
			if time.Now().After(deadline) {
				t.Fatal("server never recorded the cancelled request (status 499)")
			}
			time.Sleep(5 * time.Millisecond)
		}
		ts.Client().CloseIdleConnections()
	})
}

// TestDrainInFlight begins a drain while a request is admitted: the
// in-flight request must complete 200, new work and health checks must
// turn 503.
func TestDrainInFlight(t *testing.T) {
	leakcheck.Check(t, func() {
		srv := New(testConfig())
		entered := make(chan struct{})
		release := make(chan struct{})
		var once sync.Once
		srv.testHook = func(string, context.Context) {
			once.Do(func() { close(entered) })
			<-release
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		inFlight := make(chan int, 1)
		go func() {
			status, _, _ := postScheduleClient(t, ts.Client(), ts.URL, baseSpec())
			inFlight <- status
		}()
		<-entered

		srv.BeginDrain()
		hz, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		hz.Body.Close()
		if hz.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz while draining = %d, want 503", hz.StatusCode)
		}
		status, _, msg := postScheduleClient(t, ts.Client(), ts.URL, baseSpec())
		if status != http.StatusServiceUnavailable {
			t.Fatalf("new work while draining = %d (%s), want 503", status, msg)
		}

		close(release)
		if status := <-inFlight; status != 200 {
			t.Fatalf("in-flight request finished with %d during drain, want 200", status)
		}
		ts.Client().CloseIdleConnections()
	})
}

// TestHealthzAndStats covers the observability endpoints.
func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	hz, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != 200 || !strings.Contains(string(raw), "ok") {
		t.Fatalf("healthz = %d %q", hz.StatusCode, raw)
	}

	if status, _, _ := postSchedule(t, ts, baseSpec()); status != 200 {
		t.Fatal("prime failed")
	}
	st, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Schedules.Entries != 1 || stats.Cache.Families.Entries != 1 || stats.Cache.Skeletons.Entries != 1 {
		t.Fatalf("cache entries = %+v, want 1 per tier", stats.Cache)
	}
	if stats.Admission.Slots != 8 {
		t.Fatalf("admission slots = %d, want 8", stats.Admission.Slots)
	}
	found := false
	for _, c := range stats.Metrics.Counters {
		if c.Name == "service.requests.schedule" && c.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("service.requests.schedule counter missing from /v1/stats")
	}
}

// TestVerifySampling runs four schedules over one cached problem with
// VerifyEvery=2: runs 1 and 3 are audited, 2 and 4 sampled out, and a
// server auditing every run returns the same schedules.
func TestVerifySampling(t *testing.T) {
	cfg := testConfig()
	cfg.Verify = true
	cfg.VerifyEvery = 2
	srv, ts := newTestServer(t, cfg)
	cfg.VerifyEvery = 0
	_, every := newTestServer(t, cfg)

	want := []bool{true, false, true, false}
	for i, w := range want {
		spec := baseSpec()
		spec["seed"] = 100 + i
		_, r, _ := postSchedule(t, ts, spec)
		if r.Verified != w {
			t.Fatalf("run %d verified = %v, want %v (sampling must span requests)", i, r.Verified, w)
		}
		_, e, _ := postSchedule(t, every, spec)
		if !e.Verified || e.Makespan != r.Makespan || e.C1 != r.C1 || e.C2 != r.C2 || e.Ratio != r.Ratio || e.Bounds != r.Bounds {
			t.Fatalf("run %d: sampling changed the schedule: %+v, every run audited %+v", i, r, e)
		}
	}
	if a := counterValue(srv, "service.verify.audited"); a != 2 {
		t.Fatalf("audited = %d, want 2", a)
	}
	if s := counterValue(srv, "service.verify.sampled_out"); s != 2 {
		t.Fatalf("sampled_out = %d, want 2", s)
	}

	// A warm hit reports the producing run's audit state.
	spec := baseSpec()
	spec["seed"] = 100
	_, r, _ := postSchedule(t, ts, spec)
	if r.Cache.Schedule != "hit" || !r.Verified {
		t.Fatalf("warm hit = %+v, want verified=true from the audited producing run", r)
	}
}

// TestSyntheticAndCommAndWeird covers the remaining request shapes.
func TestMoreRequestShapes(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	synth := map[string]any{
		"mesh":       map[string]any{"synthetic": "random_chains", "n": 60, "seed": 3},
		"directions": 4,
		"procs":      8,
	}
	status, r, msg := postSchedule(t, ts, synth)
	if status != 200 {
		t.Fatalf("synthetic: %d %s", status, msg)
	}
	if r.Mesh != "random_chains" || r.N != 60 {
		t.Fatalf("synthetic response = %+v", r)
	}
	if status, r, _ = postSchedule(t, ts, synth); r.Cache.Schedule != "hit" {
		t.Fatalf("synthetic warm trace = %+v, want hit", r.Cache)
	}

	comm := baseSpec()
	comm["comm_delay"] = 2
	if status, r, msg = postSchedule(t, ts, comm); status != 200 {
		t.Fatalf("comm-delay: %d %s", status, msg)
	}

	blocks := baseSpec()
	blocks["block_size"] = 16
	if status, _, msg = postSchedule(t, ts, blocks); status != 200 {
		t.Fatalf("block partitioning: %d %s", status, msg)
	}

	// Workers never changes output and never splits the cache: a warm
	// request with a different workers value still hits.
	if status, _, msg = postSchedule(t, ts, baseSpec()); status != 200 {
		t.Fatalf("prime: %d %s", status, msg)
	}
	workers := baseSpec()
	workers["workers"] = 4
	if _, r, _ = postSchedule(t, ts, workers); r.Cache.Schedule != "hit" {
		t.Fatalf("workers variant missed the cache: %+v (workers must not be in the key)", r.Cache)
	}
}

// TestInlineMeshContentAddressing submits the same mesh twice as
// inline sweepmesh text and expects the second request to hit.
func TestInlineMeshContentAddressing(t *testing.T) {
	msh, err := mesh.Family("tetonly", 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mesh.Encode(&buf, msh); err != nil {
		t.Fatal(err)
	}
	spec := map[string]any{
		"mesh":       map[string]any{"encoded": buf.String()},
		"directions": 8,
		"procs":      16,
		"seed":       7,
	}
	_, ts := newTestServer(t, testConfig())
	status, r, msg := postSchedule(t, ts, spec)
	if status != 200 {
		t.Fatalf("inline mesh: %d %s", status, msg)
	}
	if r.Mesh != "inline" || r.N != msh.NCells() {
		t.Fatalf("inline response = %+v", r)
	}
	if _, r, _ = postSchedule(t, ts, spec); r.Cache.Schedule != "hit" {
		t.Fatalf("identical inline mesh missed: %+v", r.Cache)
	}
}

// TestTransportEndpoint solves transport over a cached schedule and
// checks the solve is reproducible and the schedule tier is reused.
func TestTransportEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	treq := map[string]any{
		"schedule": baseSpec(),
		"sigma_t":  1.0,
		"sigma_s":  0.5,
		"source":   1.0,
	}
	status, first, msg := postTransport(t, ts, treq)
	if status != 200 {
		t.Fatalf("transport: %d %s", status, msg)
	}
	if !first.Converged || first.Iterations <= 0 || first.FluxSum <= 0 {
		t.Fatalf("implausible solve: %+v", first)
	}
	if first.Schedule.Cache.Schedule != "miss" {
		t.Fatalf("first solve trace = %+v", first.Schedule.Cache)
	}
	status, second, _ := postTransport(t, ts, treq)
	if second.Schedule.Cache.Schedule != "hit" {
		t.Fatalf("second solve trace = %+v, want schedule hit", second.Schedule.Cache)
	}
	if second.FluxSum != first.FluxSum || second.Iterations != first.Iterations {
		t.Fatalf("solve not reproducible: %+v vs %+v", second, first)
	}

	bad := map[string]any{"schedule": baseSpec(), "sigma_t": 1.0, "sigma_s": 1.5, "source": 1.0}
	if status, _, _ := postTransport(t, ts, bad); status != 400 {
		t.Fatalf("sigma_s >= sigma_t: status %d, want 400", status)
	}
}

// TestTransportAfterFamilyRebuild: a schedule-tier hit whose family entry
// was evicted and rebuilt meanwhile solves the cached schedule. The
// rebuilt family holds a Problem other than the one that made the
// schedule, and the flux sum is the one from before the eviction.
func TestTransportAfterFamilyRebuild(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	treq := map[string]any{"schedule": baseSpec(), "sigma_t": 1.0, "sigma_s": 0.5, "source": 1.0}
	status, before, msg := postTransport(t, ts, treq)
	if status != 200 {
		t.Fatalf("transport: %d %s", status, msg)
	}
	// An entry the size of the whole family tier evicts every family.
	srv.cache.families.put("filler", (*familyEntry)(nil), srv.cache.families.limit)
	other := baseSpec()
	other["seed"] = 8
	status, r, msg := postSchedule(t, ts, other)
	if status != 200 {
		t.Fatalf("rebuild: %d %s", status, msg)
	}
	if r.Cache.Family != "miss" {
		t.Fatalf("rebuild trace %+v, want a family miss", r.Cache)
	}
	status, after, msg := postTransport(t, ts, treq)
	if status != 200 {
		t.Fatalf("transport after the rebuild: %d %s", status, msg)
	}
	if after.Schedule.Cache.Schedule != "hit" {
		t.Fatalf("trace %+v, want a schedule hit", after.Schedule.Cache)
	}
	if after.FluxSum != before.FluxSum || after.Iterations != before.Iterations {
		t.Fatalf("flux sum %v in %d iterations after the rebuild, want %v in %d",
			after.FluxSum, after.Iterations, before.FluxSum, before.Iterations)
	}
}

// TestServerLifecycleNoLeaks runs a representative request mix and
// asserts the whole server lifecycle leaves no goroutines behind.
func TestServerLifecycleNoLeaks(t *testing.T) {
	leakcheck.Check(t, func() {
		srv, ts := func() (*Server, *httptest.Server) {
			srv := New(testConfig())
			return srv, httptest.NewServer(srv.Handler())
		}()
		for i := 0; i < 3; i++ {
			spec := baseSpec()
			spec["seed"] = i
			if status, _, msg := postScheduleClient(t, ts.Client(), ts.URL, spec); status != 200 {
				t.Fatalf("request %d: %d %s", i, status, msg)
			}
		}
		srv.BeginDrain()
		ts.Client().CloseIdleConnections()
		ts.Close()
	})
}

// TestEvictionKeepsServing shrinks the cache until entries evict and
// checks correctness is unaffected (only hit rate).
func TestEvictionKeepsServing(t *testing.T) {
	cfg := testConfig()
	cfg.CacheBytes = 16 << 10 // far too small for any real entry
	_, ts := newTestServer(t, cfg)
	var ref *ScheduleResponse
	for i := 0; i < 3; i++ {
		status, r, msg := postSchedule(t, ts, baseSpec())
		if status != 200 {
			t.Fatalf("run %d: %d %s", i, status, msg)
		}
		if r.Cache.Schedule == "hit" {
			t.Fatalf("run %d hit a cache whose budget cannot hold the entry", i)
		}
		if ref == nil {
			ref = r
		} else if r.Makespan != ref.Makespan || r.C1 != ref.C1 {
			t.Fatalf("cacheless runs diverged: %+v vs %+v", r, ref)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debugging edits

// TestScheduleAnglesets: an aggregated request succeeds with the audit
// on, the anglesets value is part of the schedule cache key (same spec
// hits, different anglesets misses while reusing the DAG family), and
// invalid aggregation requests classify as 400.
func TestScheduleAnglesets(t *testing.T) {
	cfg := testConfig()
	cfg.Verify = true
	srv, ts := newTestServer(t, cfg)

	spec := baseSpec()
	spec["anglesets"] = 8
	status, cold, msg := postSchedule(t, ts, spec)
	if status != 200 {
		t.Fatalf("aggregated request status = %d: %s", status, msg)
	}
	status, warm, _ := postSchedule(t, ts, spec)
	if status != 200 || warm.Cache.Schedule != "hit" {
		t.Fatalf("identical aggregated request missed: status %d, trace %+v", status, warm.Cache)
	}
	if warm.Makespan != cold.Makespan {
		t.Fatalf("warm makespan %d != cold %d", warm.Makespan, cold.Makespan)
	}

	builds := counterValue(srv, "service.build.dag_family")
	spec["anglesets"] = 4
	status, other, _ := postSchedule(t, ts, spec)
	if status != 200 {
		t.Fatalf("anglesets=4 status = %d", status)
	}
	if other.Cache.Schedule != "miss" {
		t.Fatalf("different anglesets shared a schedule entry: %+v", other.Cache)
	}
	if got := counterValue(srv, "service.build.dag_family"); got != builds {
		t.Fatalf("changing anglesets rebuilt the DAG family (%d -> %d)", builds, got)
	}

	for name, bad := range map[string]map[string]any{
		"negative":      {"anglesets": -1},
		"synthetic":     {"mesh": map[string]any{"synthetic": "random_chains", "n": 50}, "anglesets": 4},
		"greedy-levels": {"scheduler": "improved_delays", "anglesets": 8},
		"layered":       {"scheduler": "random_delays", "anglesets": 8},
		"over-k-ceil":   {"anglesets": 100000},
	} {
		spec := baseSpec()
		for k, v := range bad {
			spec[k] = v
		}
		if status, _, msg := postSchedule(t, ts, spec); status != 400 {
			t.Fatalf("%s: status = %d (%s), want 400", name, status, msg)
		}
	}
}

// TestScheduleWeighted: a weighted request succeeds with the audit on,
// the weight draw and speeds pattern are part of the schedule cache key
// (same spec hits; different weight_seed or speeds miss while reusing
// the DAG family), the response carries the weighted bound terms, and
// invalid weighted requests classify as 400.
func TestScheduleWeighted(t *testing.T) {
	cfg := testConfig()
	cfg.Verify = true
	srv, ts := newTestServer(t, cfg)

	spec := baseSpec()
	spec["weighted"] = true
	spec["weight_seed"] = 11
	spec["speeds"] = []int32{1, 2, 3}
	spec["include_schedule"] = true
	status, cold, msg := postSchedule(t, ts, spec)
	if status != 200 {
		t.Fatalf("weighted request status = %d: %s", status, msg)
	}
	if !cold.Weighted || cold.WeightedBounds == nil {
		t.Fatalf("response not marked weighted: %+v", cold)
	}
	if cold.Makespan <= 0 || cold.StrongRatio < 1 || cold.Ratio < cold.StrongRatio {
		t.Fatalf("implausible weighted metrics: %+v", cold)
	}
	if cold.C1 != 0 || cold.C2 != 0 {
		t.Fatalf("weighted run reported unit-task depth metrics: %+v", cold)
	}
	if !cold.Verified {
		t.Fatal("weighted run with Verify on was not audited")
	}
	if len(cold.Start64) != cold.Tasks || len(cold.Finish64) != cold.Tasks || len(cold.Start) != 0 {
		t.Fatalf("weighted include_schedule arrays wrong: start64 %d finish64 %d start %d",
			len(cold.Start64), len(cold.Finish64), len(cold.Start))
	}

	status, warm, _ := postSchedule(t, ts, spec)
	if status != 200 || warm.Cache.Schedule != "hit" {
		t.Fatalf("identical weighted request missed: status %d, trace %+v", status, warm.Cache)
	}
	if warm.Makespan != cold.Makespan || warm.StrongRatio != cold.StrongRatio {
		t.Fatalf("warm weighted metrics differ: %+v vs %+v", warm, cold)
	}

	builds := counterValue(srv, "service.build.dag_family")
	for name, tweak := range map[string]func(map[string]any){
		"weight_seed": func(s map[string]any) { s["weight_seed"] = 12 },
		"speeds":      func(s map[string]any) { s["speeds"] = []int32{2, 1} },
		"unweighted":  func(s map[string]any) { delete(s, "weighted"); delete(s, "weight_seed"); delete(s, "speeds") },
	} {
		other := baseSpec()
		other["weighted"] = true
		other["weight_seed"] = 11
		other["speeds"] = []int32{1, 2, 3}
		other["include_schedule"] = true
		tweak(other)
		status, r, msg := postSchedule(t, ts, other)
		if status != 200 {
			t.Fatalf("%s: status = %d (%s)", name, status, msg)
		}
		if r.Cache.Schedule != "miss" {
			t.Fatalf("%s: shared a schedule entry with a different run: %+v", name, r.Cache)
		}
	}
	if got := counterValue(srv, "service.build.dag_family"); got != builds {
		t.Fatalf("weighted key changes rebuilt the DAG family (%d -> %d)", builds, got)
	}

	for name, bad := range map[string]map[string]any{
		"seed_without_weighted":   {"weight_seed": 5},
		"speeds_without_weighted": {"speeds": []int32{1, 2}},
		"with_comm_delay":         {"weighted": true, "comm_delay": 2},
		"with_anglesets":          {"weighted": true, "anglesets": 4},
		"layer_sync_scheduler":    {"weighted": true, "scheduler": "random_delays"},
		"zero_speed":              {"weighted": true, "speeds": []int32{1, 0}},
		"huge_speed":              {"weighted": true, "speeds": []int32{1 << 21}},
	} {
		spec := baseSpec()
		for k, v := range bad {
			spec[k] = v
		}
		if status, _, msg := postSchedule(t, ts, spec); status != 400 {
			t.Fatalf("%s: status = %d (%s), want 400", name, status, msg)
		}
	}

	// Transport over a weighted schedule is schedule-only: 400.
	treq := map[string]any{"schedule": func() map[string]any {
		s := baseSpec()
		s["weighted"] = true
		return s
	}(), "sigma_t": 1.0, "sigma_s": 0.5, "source": 1.0}
	body, _ := json.Marshal(treq)
	resp, err := ts.Client().Post(ts.URL+"/v1/transport", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("weighted transport: status %d, want 400", resp.StatusCode)
	}
}

// TestSharedBuildSurvivesJoinedWinnerLeaving holds three requests on one
// mesh: C builds the skeleton (held by the hook), A — another k — wins
// family F and waits on C's skeleton build, and B — F with another seed —
// joins A's family build. A's client then leaves, so A's wait ends with
// context.Canceled and F's build dies of it. B's client is still there:
// B must retry F's build and get 200, not inherit A's 499.
func TestSharedBuildSurvivesJoinedWinnerLeaving(t *testing.T) {
	srv := New(testConfig())
	skelIn, skelRelease := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv.testHook = func(stage string, _ context.Context) {
		if stage == "skeleton" {
			once.Do(func() { close(skelIn) })
			<-skelRelease
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer ts.Client().CloseIdleConnections()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	statusC := make(chan int, 1)
	go func() {
		status, _, _ := postScheduleClient(t, ts.Client(), ts.URL, baseSpec())
		statusC <- status
	}()
	<-skelIn

	specA := baseSpec()
	specA["directions"] = 16
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	body, _ := json.Marshal(specA)
	reqA, _ := http.NewRequestWithContext(ctxA, http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(body))
	errA := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(reqA)
		if err == nil {
			resp.Body.Close()
		}
		errA <- err
	}()
	// A has missed the skeleton tier and is about to join C's build.
	waitFor("A to miss the skeleton tier", func() bool { return counterValue(srv, "service.cache.skeleton.miss") == 2 })

	specB := baseSpec()
	specB["directions"] = 16
	specB["seed"] = 99
	statusB := make(chan int, 1)
	go func() {
		status, _, _ := postScheduleClient(t, ts.Client(), ts.URL, specB)
		statusB <- status
	}()
	// B has missed the family tier and is about to join A's build.
	waitFor("B to miss the family tier", func() bool { return counterValue(srv, "service.cache.family.miss") == 2 })
	time.Sleep(50 * time.Millisecond) // both waits are entered

	cancelA()
	if err := <-errA; err == nil {
		t.Fatal("cancelled client A got a response")
	}
	waitFor("A's 499", func() bool { return counterValue(srv, "service.status.499") >= 1 })
	close(skelRelease)

	if status := <-statusB; status != http.StatusOK {
		t.Fatalf("B, whose client stayed, finished with %d, want 200", status)
	}
	if status := <-statusC; status != http.StatusOK {
		t.Fatalf("C finished with %d, want 200", status)
	}
	if got := counterValue(srv, "service.status.499"); got != 1 {
		t.Fatalf("%d requests ended 499, want only A's", got)
	}
}

// TestTierStatsCountEachMissOnce: one cold request misses every tier
// once, and /v1/stats says so — the shared build's second look at its
// tier is not a second miss — in agreement with the
// service.cache.<tier>.miss counters.
func TestTierStatsCountEachMissOnce(t *testing.T) {
	srv, ts := newTestServer(t, testConfig())
	if status, _, msg := postSchedule(t, ts, baseSpec()); status != 200 {
		t.Fatalf("cold request failed: %d %s", status, msg)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []struct {
		name string
		st   TierStats
	}{{"skeleton", stats.Cache.Skeletons}, {"family", stats.Cache.Families}, {"schedule", stats.Cache.Schedules}} {
		counter := counterValue(srv, "service.cache."+tier.name+".miss")
		if tier.st.Misses != 1 || tier.st.Hits != 0 || counter != 1 {
			t.Errorf("%s tier: stats hits=%d misses=%d, miss counter %d; want 0, 1 and 1", tier.name, tier.st.Hits, tier.st.Misses, counter)
		}
	}
}
