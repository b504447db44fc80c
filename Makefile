# Tier-1 verify is `make check`; `make ci` adds the race detector and a
# short fuzz smoke pass (see ci.sh).

GO ?= go

.PHONY: check ci race resilience procfault fuzz bench bench-smoke verify service loadtest loadtest-smoke

check:
	$(GO) build ./... && $(GO) test ./...

# The whole suite with runtime schedule auditing forced on: every
# schedule produced anywhere is re-checked by internal/verify
# (precedence, exclusivity, copies, metrics, recovery accounting).
# -count=1 defeats the test cache so the audited paths really run.
verify:
	SWEEPSCHED_VERIFY=1 $(GO) test -count=1 ./...

race:
	$(GO) test -race ./...

# The fault-injection / recovery / cancellation suite under the race
# detector, with a hard timeout so a deadlock fails instead of hanging.
resilience:
	$(GO) test -race -timeout 120s ./internal/machine ./internal/faults ./internal/simulate ./internal/transport

# Multi-process fault injection under the race detector: spawn real
# worker OS processes over localhost TCP, kill -9 one mid-epoch (and in
# the wider suite sever sockets), and require the recovered flux to be
# bitwise-identical to the serial solver with a reproducible merged
# stats snapshot. A deadlocked barrier or unreaped worker fails on the
# timeout / orphan scan rather than hanging.
procfault:
	$(GO) test -race -count=1 -timeout 300s ./internal/procrun

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFromEdges$$' -fuzztime 10s ./internal/dag
	$(GO) test -run '^$$' -fuzz '^FuzzBuildEquivalence$$' -fuzztime 10s ./internal/dag
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/mesh
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTrace$$' -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleRequest$$' -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzTransportRequest$$' -fuzztime 10s ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzAnglesetExpand$$' -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzWeightedEquivalence$$' -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzWeightedMachineDifferential$$' -fuzztime 10s ./internal/sched
	$(GO) test -run '^$$' -fuzz '^FuzzFluxBatchCodec$$' -fuzztime 10s ./internal/procrun

ci:
	./ci.sh

# The sweepschedd daemon suite under the race detector plus a short
# in-process loadtest smoke (8 clients against the paper tetonly mesh,
# server-side sampled audits on; see ci.sh).
service:
	$(GO) test -race -count=1 ./internal/service ./internal/cliutil ./internal/obs
	$(GO) run ./cmd/sweeploadtest -clients 8 -requests 4 -scale 0.02 -k 8 -m 16 -verify-every 4 -out /dev/null

# Print the service load/soak numbers: 8 concurrent clients, cold
# (unique meshes) vs warm (identical request) phases on a paper-scale
# tetonly mesh with sampled runtime audits enabled.
loadtest:
	$(GO) run ./cmd/sweeploadtest -clients 8 -requests 25 -mesh tetonly -scale 0.05 \
	    -k 24 -m 64 -verify-every 8

# Same harness, small enough for CI.
loadtest-smoke:
	$(GO) run ./cmd/sweeploadtest -clients 8 -requests 5 -scale 0.02 -k 8 -m 16 \
	    -verify-every 4 -out /dev/null

# The one benchmark of the whole pipeline (bench/, BENCHMARK.json): all
# workloads end to end; `bash bench/run.sh -trace 1` for the per-layer
# rows, `-workload <name>` for one workload (see bench/README.md). The Go
# micro-benchmarks of the single layers run by name with
# `go test -run '^$$' -bench <regexp> -benchmem <package>`.
bench:
	bash bench/run.sh

# One iteration of every benchmark in the repo — a compile-and-run smoke
# pass (also part of ci.sh), not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
