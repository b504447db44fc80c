# Tier-1 verify is `make check`; `make ci` adds the race detector and a
# short fuzz smoke pass (see ci.sh).

GO ?= go

.PHONY: check ci race resilience procfault fuzz bench bench-smoke verify service

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
	$(GO) test -race -timeout 120s ./internal/machine ./internal/faults ./internal/transport

# Multi-process fault injection under the race detector: spawn real
# worker OS processes over localhost TCP, kill -9 one mid-epoch (and in
# the wider suite sever sockets), and require the recovered flux to be
# bitwise-identical to the serial solver with a reproducible merged
# stats snapshot. A deadlocked barrier or unreaped worker fails on the
# timeout / orphan scan rather than hanging.
procfault:
	$(GO) test -race -count=1 -timeout 300s ./internal/procrun

# Every fuzz target for 10s (FUZZTIME overrides); the list is fuzz.sh's.
fuzz:
	./fuzz.sh

ci:
	./ci.sh

# The sweepschedd daemon suite under the race detector. The daemon's
# load numbers (cold, family and warm phases) are the benchmark's
# service-tiers workload: `bash bench/run.sh -workload service-tiers`.
service:
	$(GO) test -race -count=1 ./internal/service ./internal/cliutil ./internal/obs

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
