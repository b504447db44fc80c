package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sweepsched"
)

// TestSchedulerModelTable runs every scheduler under every model the
// daemon takes — plain, a comm delay, anglesets, weighted costs, and a
// synthetic (non-geometric) mesh plain, aggregated and block-partitioned
// — through the API entry point the daemon plans it with, and through
// the daemon. The daemon answers 400 with the API's own refusal exactly
// where the API refuses, and 200 elsewhere; a refused request builds
// nothing (service.build.* stays 0).
func TestSchedulerModelTable(t *testing.T) {
	geo, err := sweepsched.NewProblemFromFamily("tetonly", 0.02, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := sweepsched.NewProblemNonGeometric(sweepsched.RandomChains, 50, 8, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := sweepsched.ScheduleOptions{Seed: 7, Workers: 1}
	models := []struct {
		name string
		spec map[string]any
		api  func(alg sweepsched.Scheduler) error
	}{
		{"plain", map[string]any{}, func(alg sweepsched.Scheduler) error {
			_, err := geo.Schedule(alg, opts)
			return err
		}},
		{"comm_delay", map[string]any{"comm_delay": 2}, func(alg sweepsched.Scheduler) error {
			_, err := geo.ScheduleComm(alg, opts, 2)
			return err
		}},
		{"anglesets", map[string]any{"anglesets": 4}, func(alg sweepsched.Scheduler) error {
			o := opts
			o.Anglesets = 4
			_, err := geo.Schedule(alg, o)
			return err
		}},
		{"weighted", map[string]any{"weighted": true}, func(alg sweepsched.Scheduler) error {
			_, err := geo.ScheduleWeightedMachine(alg, opts, sweepsched.LogNormalWeights(geo.N(), 4, 0.75, 0), nil)
			return err
		}},
		{"synthetic", map[string]any{"mesh": map[string]any{"synthetic": "random_chains", "n": 50, "seed": 1}}, func(alg sweepsched.Scheduler) error {
			_, err := syn.Schedule(alg, opts)
			return err
		}},
		{"synthetic_anglesets", map[string]any{"mesh": map[string]any{"synthetic": "random_chains", "n": 50, "seed": 1}, "anglesets": 4}, func(alg sweepsched.Scheduler) error {
			o := opts
			o.Anglesets = 4
			_, err := syn.Schedule(alg, o)
			return err
		}},
		{"synthetic_blocks", map[string]any{"mesh": map[string]any{"synthetic": "random_chains", "n": 50, "seed": 1}, "block_size": 8}, func(alg sweepsched.Scheduler) error {
			o := opts
			o.BlockSize = 8
			_, err := syn.Schedule(alg, o)
			return err
		}},
	}
	accepting, refusing := New(testConfig()), New(testConfig())
	post := func(srv *Server, spec map[string]any) (int, string) {
		body, _ := json.Marshal(spec)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		var eb errorBody
		_ = json.Unmarshal(rec.Body.Bytes(), &eb)
		return rec.Code, eb.Error
	}
	refused := 0
	for _, alg := range sweepsched.Schedulers() {
		for _, mdl := range models {
			spec := baseSpec()
			spec["scheduler"] = string(alg)
			for k, v := range mdl.spec {
				spec[k] = v
			}
			apiErr := mdl.api(alg)
			if apiErr == nil {
				if status, msg := post(accepting, spec); status != http.StatusOK {
					t.Errorf("%s, %s: the API plans it, the daemon answers %d (%s)", alg, mdl.name, status, msg)
				}
				continue
			}
			refused++
			status, msg := post(refusing, spec)
			if status != http.StatusBadRequest || msg != apiErr.Error() {
				t.Errorf("%s, %s: the API refuses it (%v), the daemon answers %d (%s)", alg, mdl.name, apiErr, status, msg)
			}
		}
	}
	// random_delays with a comm delay, aggregated and weighted,
	// improved_delays aggregated, and every scheduler on the synthetic
	// mesh aggregated or in blocks.
	if want := 3 + 1 + 2*len(sweepsched.Schedulers()); refused != want {
		t.Errorf("%d scheduler-model pairs refused, want %d", refused, want)
	}
	for _, c := range []string{"service.build.skeleton", "service.build.dag_family", "service.build.schedule"} {
		if got := counterValue(refusing, c); got != 0 {
			t.Errorf("%d refused requests built %s %d times", refused, c, got)
		}
	}
}
