#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate plus the race/fuzz hardening pass.
#
#   ./ci.sh         # vet + build + race-enabled tests + fuzz smoke
#   FUZZTIME=30s ./ci.sh   # longer fuzz smoke
#
# The race-enabled test run is what makes the determinism harness
# (TestTraceDeterminismAcrossWorkers) race-proof: it executes every
# scheduler's parallel pipeline at Workers=8 under the race detector.
set -euo pipefail
cd "$(dirname "$0")"

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
# The one race-enabled pass. It covers the determinism harness, the
# fault-injection / recovery / cancellation suite (an epoch that never
# ends fails on the timeout instead of hanging), the multi-process runner
# (4 worker OS processes over localhost TCP, one killed with SIGKILL
# mid-epoch, recovery from on-disk checkpoints bitwise-equal to the
# serial solver, no orphaned workers) and the daemon's integration tests.
# The structure checks that used to be shell here are TestStructure in
# the root package, so this pass and tier-1 both run them.
go test -race -count=1 -timeout 300s ./...

echo "== verify: full suite with runtime schedule auditing forced on =="
# SWEEPSCHED_VERIFY=1 routes every schedule produced by any test through
# the internal/verify auditor; -count=1 defeats the test cache.
SWEEPSCHED_VERIFY=1 go test -count=1 ./...

echo "== benchmark smoke (1 iteration each) =="
# Compile-and-run pass over every benchmark: catches bit-rot in the
# kernel benchmarks (and their zero-alloc assertions use the same paths)
# without turning CI into a measurement job.
go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench module: vet + smoke (its own module, so ./... above does not compile it) =="
# bench/ imports the kernels and the public API by name; a changed
# signature would otherwise surface only in the benchmark pipeline.
(cd bench && go vet . && go test .)

echo "== dag builder bench smoke (allocation-counted) =="
go test -run '^$' -bench 'Benchmark(BuildInto|BuildAllFamily)/' -benchmem -benchtime 1x ./internal/dag

echo "== feasibility tail bench smoke (allocation-counted) =="
# Validate, ValidateComm and the verify audit run after every plan; their
# bytes/op is the garbage one plan's check leaves behind.
go test -run '^$' -bench 'Benchmark(Validate|VerifySchedule|VerifyWeighted)' -benchmem -benchtime 1x ./internal/sched ./internal/verify
# The unit-step kernel at the paper's size (755k tasks, a new assignment
# every run), where it is bound by memory; it fails on a warm allocation.
go test -run '^$' -bench 'BenchmarkScheduleKernelPaperShape$' -benchmem -benchtime 1x ./internal/sched
# The weighted event core and the greedy preprocessing on the same warm
# workspace contract: either fails on a warm allocation.
go test -run '^$' -bench 'Benchmark(WeightedKernel|GreedySchedule)$' -benchmem -benchtime 1x ./internal/sched
# The priority fillers on a family's first plan and on every later one,
# and whole warm plans: bytes/op there is the Result and little else.
go test -run '^$' -bench 'Benchmark(DescendantPriorities|DFDSPriorities|PlanWarm)/' -benchmem -benchtime 1x ./internal/heuristics .
# The in-process executors — all the modelled machine — on the small box
# and at the benchmark's sweep-goroutine shape (ns/step, ns/message), the
# simulator's single sweep, and the route table every solve builds once
# and every recovery once more.
go test -run '^$' -bench 'Benchmark(SolveParallel|SolveFaultTolerant|RecvTableBuild|Run)$' -benchmem -benchtime 1x ./internal/transport ./internal/simulate ./internal/sched

echo "== service: loadtest smoke =="
# A short in-process loadtest exercises the daemon end to end with 8
# concurrent clients and server-side sampled audits on. The harness exits
# non-zero on any request error or if no audit ran.
go run ./cmd/sweeploadtest -clients 8 -requests 4 -scale 0.02 -k 8 -m 16 -verify-every 4 -out /dev/null

echo "== angleset smoke: aggregated pipeline end to end under -race, every run audited =="
# The aggregated scheduling path (priorities once per octant angleset on
# representative DAGs, anglesets-aware kernel) through the real CLI, with
# the independent auditor re-checking every produced schedule against
# per-direction true DAGs rebuilt from scratch (-anglesets triggers the
# wrong-octant audit in internal/verify).
go run -race ./cmd/sweepsim -mesh tetonly -scale 0.02 -k 16 -m 8 \
    -alg descendant_delays -anglesets 8 -verify -verify-every 1

echo "== weighted smoke: heterogeneous machine end to end under -race, every run audited =="
# The weighted event-driven engine (log-normal cell costs, per-processor
# speeds) through both CLIs, with the independent verify.Weighted auditor
# re-checking every produced schedule (precedence with delay gaps,
# exclusivity, speed-scaled durations, recomputed makespan).
go run -race ./cmd/sweepsim -mesh tetonly -scale 0.02 -k 8 -m 8 \
    -weights 9 -speeds 1,2,4 -verify -verify-every 1
go run -race ./cmd/sweepbench -exp weighted -scale 0.02 -procs 2,8 \
    -speeds 1,2 -verify -verify-every 1

echo "== batched-transport smoke: fault-injected solve under -race, batched default + -nobatch oracle =="
# The batched flux interconnect is the default on every communicating
# executor; the per-message oracle stays reachable behind -nobatch. Both
# runs must report the recovered flux bitwise-identical to the serial
# solve (the binary exits non-zero otherwise) with the same logical
# message count — only transmissions and modeled bytes may differ.
go run -race ./cmd/sweepsim -mesh tetonly -scale 0.02 -k 8 -m 8 \
    -faults -drop 2 -delay 1 -dup 1 -verify
go run -race ./cmd/sweepsim -mesh tetonly -scale 0.02 -k 8 -m 8 \
    -faults -drop 2 -delay 1 -dup 1 -verify -nobatch
go run -race ./cmd/sweepbench -exp comm -scale 0.02 -procs 2,8

echo "== fuzz smoke (${FUZZTIME} per target) =="
go test -run '^$' -fuzz '^FuzzFromEdges$' -fuzztime "$FUZZTIME" ./internal/dag
go test -run '^$' -fuzz '^FuzzBuildEquivalence$' -fuzztime "$FUZZTIME" ./internal/dag
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime "$FUZZTIME" ./internal/mesh
go test -run '^$' -fuzz '^FuzzDecodeTrace$' -fuzztime "$FUZZTIME" ./internal/sched
go test -run '^$' -fuzz '^FuzzFaultPlan$' -fuzztime "$FUZZTIME" ./internal/faults
go test -run '^$' -fuzz '^FuzzScheduleRequest$' -fuzztime "$FUZZTIME" ./internal/service
go test -run '^$' -fuzz '^FuzzTransportRequest$' -fuzztime "$FUZZTIME" ./internal/service
go test -run '^$' -fuzz '^FuzzAnglesetExpand$' -fuzztime "$FUZZTIME" ./internal/sched
go test -run '^$' -fuzz '^FuzzWeightedEquivalence$' -fuzztime "$FUZZTIME" ./internal/sched
go test -run '^$' -fuzz '^FuzzWeightedMachineDifferential$' -fuzztime "$FUZZTIME" ./internal/sched
go test -run '^$' -fuzz '^FuzzFluxBatchCodec$' -fuzztime "$FUZZTIME" ./internal/procrun

echo "ci: all green"
