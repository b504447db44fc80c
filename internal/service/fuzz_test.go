package service

import (
	"strings"
	"testing"

	"sweepsched/internal/heuristics"
)

// FuzzScheduleRequest drives arbitrary bytes through the JSON spec
// decoder and validator. The contract under fuzz: never panic, and
// every rejection must classify as a client error (4xx) via StatusOf —
// a decoder that returns 5xx-classified errors for malformed input
// would page the operator for the client's typo. A request it admits
// passes heuristics.Check, so the plan behind it is not refused.
func FuzzScheduleRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"mesh":{"family":"tetonly","scale":0.02,"seed":1},"directions":8,"procs":16}`,
		`{"mesh":{"synthetic":"random_chains","n":50,"seed":1},"directions":4,"procs":8}`,
		`{"mesh":{"encoded":"sweepmesh v1\n"},"directions":8,"procs":16}`,
		`{"mesh":{"family":"tetonly","scale":1e308},"directions":-1,"procs":0}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"scheduler":"random_delays","comm_delay":1}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16} {"second":"doc"}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"bogus":true}`,
		`{"mesh":{"family":"tetonly","scale":"NaN"},"directions":8,"procs":16}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":16,"procs":8,"scheduler":"level","anglesets":8}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":16,"procs":8,"anglesets":-3}`,
		`{"mesh":{"synthetic":"random_chains","n":50},"directions":4,"procs":8,"anglesets":4}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":4,"scheduler":"improved_delays","anglesets":8}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"weighted":true,"weight_seed":7,"speeds":[1,2,3]}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"speeds":[0]}`,
		`{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"weighted":true,"comm_delay":1}`,
		strings.Repeat(`[`, 1000),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeScheduleRequest(strings.NewReader(body))
		if err != nil {
			if st := StatusOf(err); st < 400 || st >= 500 {
				t.Fatalf("decode error classified %d (want 4xx): %v\ninput: %q", st, err, body)
			}
			return
		}
		// A decoded request must have passed validation: spot-check the
		// invariants the server relies on downstream.
		if req.Directions <= 0 || req.Directions > MaxDirections || req.Procs <= 0 || req.Procs > MaxProcs {
			t.Fatalf("validator admitted k=%d m=%d\ninput: %q", req.Directions, req.Procs, body)
		}
		if req.CommDelay > MaxCommDelay || req.BlockSize > MaxBlockSize || len(req.Speeds) > MaxSpeedEntries {
			t.Fatalf("validator admitted comm_delay=%d block_size=%d and %d speeds\ninput: %q",
				req.CommDelay, req.BlockSize, len(req.Speeds), body)
		}
		if req.Scheduler == "" {
			t.Fatalf("validator left scheduler empty\ninput: %q", body)
		}
		// The daemon plans it through the API, which runs the same check.
		mdl := heuristics.Model{
			Anglesets:    req.Anglesets > 0,
			CommDelay:    req.CommDelay > 0,
			Weighted:     req.Weighted,
			Blocks:       req.BlockSize > 1,
			NonGeometric: req.Mesh.Synthetic != "",
		}
		if err := heuristics.Check(heuristics.Name(req.Scheduler), mdl); err != nil {
			t.Fatalf("validator admitted what the scheduler-by-model check refuses: %v\ninput: %q", err, body)
		}
		if _, _, err := req.Mesh.meshKey(); err != nil {
			if st := StatusOf(err); st < 400 || st >= 500 {
				t.Fatalf("meshKey error classified %d (want 4xx): %v\ninput: %q", st, err, body)
			}
		}
	})
}

// FuzzTransportRequest covers the outer transport envelope the same
// way (it embeds and re-validates the schedule spec). A decoded request's
// iteration cap must be bounded: it is how long the solve holds its
// admission slot.
func FuzzTransportRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"schedule":{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16},"sigma_t":1,"sigma_s":0.5,"source":1}`,
		`{"schedule":{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16},"sigma_t":1,"sigma_s":2,"source":1}`,
		`{"schedule":{"mesh":{"family":"tetonly","scale":0.02},"directions":8,"procs":16,"weighted":true},"sigma_t":1,"sigma_s":0.5,"source":1}`,
		`{"schedule":null,"sigma_t":1e999}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeTransportRequest(strings.NewReader(body))
		if err != nil {
			if st := StatusOf(err); st < 400 || st >= 500 {
				t.Fatalf("decode error classified %d (want 4xx): %v\ninput: %q", st, err, body)
			}
			return
		}
		if req.MaxIters < 0 || req.MaxIters > maxIters {
			t.Fatalf("validator admitted max_iters=%d\ninput: %q", req.MaxIters, body)
		}
	})
}
