package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"sweepsched/internal/obs"
	"sweepsched/internal/service"
)

// serviceParams sizes the service-tiers workload: a closed loop of
// clients, each sending its next request only after the previous reply.
// One round is three phases that differ in how much work requests share
// against the daemon's cache tiers.
type serviceParams struct {
	scale   float64 // tetonly
	k, m    int
	clients int
	cold    int // requests per client per round, a distinct mesh and schedule seed each: every tier misses
	family  int // same mesh, a distinct schedule seed each: skeleton and family hit
	warm    int // identical requests: the schedule tier hits
}

func serviceParamsFor(smoke bool) serviceParams {
	if smoke {
		return serviceParams{scale: 0.01, k: 8, m: 8, clients: 2, cold: 1, family: 1, warm: 3}
	}
	return serviceParams{scale: 0.05, k: 24, m: 64, clients: 2, cold: 20, family: 20, warm: 1000}
}

// serviceState is a running daemon and what the clients need to reach
// and check it.
type serviceState struct {
	pp     serviceParams
	seed   uint64
	base   string
	client *http.Client
	prime  *service.ScheduleResponse // the warm request's first reply; later ones must equal it
}

// start brings up service.New behind a loopback net/http server and
// sends the warm phase's request once, so that phase starts on a hit.
func (st *serviceState) start() (stop func(), err error) {
	srv := service.New(service.Config{Verify: true, VerifyEvery: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	st.base = "http://" + ln.Addr().String()
	st.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: st.pp.clients},
		Timeout:   time.Minute,
	}
	stop = func() {
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // a timeout leaves nothing to do but exit
		<-served
		st.client.CloseIdleConnections()
	}
	resp, err := st.client.Get(st.base + "/readyz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
	}
	if err == nil {
		st.prime, _, err = st.post(st.request(0, 0))
	}
	if err != nil {
		stop()
		return nil, err
	}
	return stop, nil
}

// request is the body for mesh #meshIdx and schedule seed #seedIdx.
func (st *serviceState) request(meshIdx, seedIdx uint64) []byte {
	b, err := json.Marshal(service.ScheduleRequest{
		Mesh:       service.MeshSpec{Family: "tetonly", Scale: st.pp.scale, Seed: deriveSeed(st.seed, streamMesh, meshIdx)},
		Directions: st.pp.k, Procs: st.pp.m,
		Scheduler: "random_delays_priority",
		Seed:      deriveSeed(st.seed, streamSchedule, seedIdx),
	})
	if err != nil {
		panic(err) // a struct of numbers and strings always encodes
	}
	return b
}

// post sends one schedule request; anything but a 200 with a decodable
// schedule (a 429 included) is an error.
func (st *serviceState) post(body []byte) (*service.ScheduleResponse, int, error) {
	resp, err := st.client.Post(st.base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(raw), fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out service.ScheduleResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, len(raw), err
	}
	if out.Makespan <= 0 {
		return nil, len(raw), errors.New("reply carries no schedule")
	}
	return &out, len(raw), nil
}

func (st *serviceState) stats() (*service.StatsResponse, error) {
	resp, err := st.client.Get(st.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// phaseOut is one phase of one round.
type phaseOut struct {
	latencies []float64
	replies   []*service.ScheduleResponse
	bytes     int
	wall      float64
}

// phase runs n requests per client, closed loop, under one root span
// with a child span per request, and records the latencies under metric
// (none when it is empty). body picks request j of client c.
func (st *serviceState) phase(r *run, t *tracer, name, metric string, n int, body func(c, j int) []byte) phaseOut {
	var (
		out phaseOut
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	r.flush() // a phase is its own window
	t.root("service.phase."+name, func(sc *scope) {
		t0 := time.Now()
		for c := 0; c < st.pp.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					b := body(c, j)
					id := sc.begin("service.request." + name)
					q0 := time.Now()
					reply, size, err := st.post(b)
					lat := time.Since(q0).Seconds()
					sc.end(id)
					if err == nil && name == "warm" {
						err = sameReply(reply, st.prime)
					}
					mu.Lock()
					if r.attempt(name+" request", err) {
						out.latencies = append(out.latencies, lat)
						out.replies = append(out.replies, reply)
						out.bytes += size
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		out.wall = time.Since(t0).Seconds()
	})
	if metric != "" {
		r.sample(metric, out.latencies...)
	}
	return out
}

// sameReply requires a warm reply to carry the first reply's schedule.
func sameReply(got, want *service.ScheduleResponse) error {
	if got.Makespan != want.Makespan || got.C1 != want.C1 || got.C2 != want.C2 ||
		math.Float64bits(got.Ratio) != math.Float64bits(want.Ratio) || got.Tasks != want.Tasks {
		return fmt.Errorf("warm reply changed: makespan %d c1 %d c2 %d, first was %d %d %d",
			got.Makespan, got.C1, got.C2, want.Makespan, want.C1, want.C2)
	}
	return nil
}

// runService is the service-tiers workload.
func runService(r *run, pp serviceParams) error {
	st := &serviceState{pp: pp, seed: r.opts.seed}
	stop, err := r.timeSetup(func() (stop func(), err error) {
		r.tr.root("setup", func(*scope) { stop, err = st.start() })
		return stop, err
	})
	if err != nil {
		return err
	}
	defer stop()

	var warmReqs, warmWall, respBytes, replies float64
	err = r.rounds(func(round int, t *tracer, col *obs.Collector) error {
		var before *service.StatsResponse
		if t != nil && round == 0 {
			if before, err = st.stats(); err != nil {
				return err
			}
		}
		perRound := uint64(pp.clients * max(pp.cold, pp.family))
		idx := func(c, j int) uint64 { return 1 + uint64(round)*perRound + uint64(c*max(pp.cold, pp.family)+j) }

		// Where a phase's latencies go: the end-to-end metrics untraced,
		// the per-layer ones in a traced round, and in the rounds between
		// only the warm phase's, against which tracing's cost is measured.
		metrics := map[string]string{"cold": "cold_s", "warm": "warm_s"}
		if r.opts.trace {
			metrics = map[string]string{"warm": "op.untraced"}
			if t != nil {
				metrics = map[string]string{"cold": "service.cold", "family": "service.family_p50_s", "warm": "op.traced"}
			}
		}
		cold := st.phase(r, t, "cold", metrics["cold"], pp.cold, func(c, j int) []byte { return st.request(idx(c, j), idx(c, j)) })
		family := st.phase(r, t, "family", metrics["family"], pp.family, func(c, j int) []byte { return st.request(0, idx(c, j)) })
		prime := st.request(0, 0)
		warm := st.phase(r, t, "warm", metrics["warm"], pp.warm, func(int, int) []byte { return prime })

		// The replies of the first rounds carry the paper's metrics;
		// sorted, so the mean does not depend on arrival order.
		fresh := append(append([]*service.ScheduleResponse(nil), cold.replies...), family.replies...)
		sort.Slice(fresh, func(a, b int) bool {
			if fresh[a].Makespan != fresh[b].Makespan {
				return fresh[a].Makespan < fresh[b].Makespan
			}
			return fresh[a].C2 < fresh[b].C2
		})
		for _, reply := range fresh {
			r.addQuality(round, reply.Ratio, reply.C1, reply.C2, true)
		}

		if t == nil {
			return nil
		}
		warmReqs += float64(len(warm.latencies))
		warmWall += warm.wall
		for _, ph := range []phaseOut{cold, family, warm} {
			respBytes += float64(ph.bytes)
			replies += float64(len(ph.replies))
		}
		if before != nil {
			after, err := st.stats()
			if err != nil {
				return err
			}
			r.serviceCounts(before, after)
		}
		return nil
	})
	if err != nil || !r.opts.trace {
		return err
	}
	r.values["service.cold_p90_s"] = nearestRank(r.samples["service.cold"], 90)
	r.values["service.warm_p95_s"] = nearestRank(r.samples["op.traced"], 95)
	if warmWall > 0 {
		r.values["service.warm_req_per_s"] = warmReqs / warmWall
	}
	if replies > 0 {
		r.values["service.resp_bytes"] = respBytes / replies
	}
	return nil
}

// serviceCounts differences GET /v1/stats across the first round: the
// request counts of a round are fixed, so these repeat exactly.
func (r *run) serviceCounts(before, after *service.StatsResponse) {
	delta := func(name string) float64 {
		return float64(after.Metrics.CounterValue(name) - before.Metrics.CounterValue(name))
	}
	for _, tier := range []string{"skeleton", "family", "schedule"} {
		hit, miss := delta("service.cache."+tier+".hit"), delta("service.cache."+tier+".miss")
		if hit+miss > 0 {
			r.values["service.cache."+tier+".hit_ratio"] = hit / (hit + miss)
		}
	}
	for _, name := range []string{
		"service.build.skeleton", "service.build.dag_family", "service.build.schedule",
		"service.admission.rejected", "service.flight.coalesced", "service.verify.audited",
	} {
		r.values[name] = delta(name)
	}
}
