#!/usr/bin/env bash
# fuzz.sh — the fuzz smoke: every fuzz target in the module, FUZZTIME
# (default 10s) each. ci.sh and `make fuzz` run it; TestFuzzTargetsListed
# (root package, tier-1) fails when a Fuzz function is missing below.
#
#   ./fuzz.sh
#   FUZZTIME=30s ./fuzz.sh
set -euo pipefail
cd "$(dirname "$0")"

FUZZTIME="${FUZZTIME:-10s}"

while read -r target pkg; do
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
done <<'TARGETS'
FuzzFromEdges ./internal/dag
FuzzBuildEquivalence ./internal/dag
FuzzDecode ./internal/mesh
FuzzDecodeTrace ./internal/sched
FuzzFaultPlan ./internal/faults
FuzzScheduleRequest ./internal/service
FuzzTransportRequest ./internal/service
FuzzAnglesetExpand ./internal/sched
FuzzWeightedEquivalence ./internal/sched
FuzzWeightedMachineDifferential ./internal/sched
FuzzStepCoreEquivalence ./internal/sched
FuzzFluxBatchCodec ./internal/procrun
FuzzOutboxMatchesReference ./internal/comm
FuzzStepMatchesPerRowReference ./internal/machine
FuzzFlatSweepMatchesStepped ./internal/machine
FuzzKWayEquivalence ./internal/partition
TARGETS
