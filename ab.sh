#!/usr/bin/env bash
# ab.sh — the A/B protocol behind a performance claim: alternating runs
# of the whole-pipeline benchmark at a parent revision and at this
# checkout, summarised per workload and metric by ab.awk.
#
#   ./ab.sh <parent-rev> [workloads] [pairs] [seconds]
#
# workloads is "all" (the default: every workload, one run) or a
# comma-separated list of workload names (one run each); pairs defaults to 10; seconds goes to
# bench/run.sh as -seconds (the benchmark's own default when absent). The
# parent is checked out as a git worktree under .ab/ and runs its own
# bench/run.sh, which builds that checkout. Pair i runs the parent first
# when i is odd, and both sides use seed i. Every run's stdout is kept
# under .ab/out/ as <side>.<pair>.<workload>.txt. The summary goes to
# stdout; the exit status is non-zero when makespan_ratio, c1_edges,
# c2_rounds or failed_frac differs between the sides of any pair.
set -euo pipefail
cd "$(dirname "$0")"

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
	echo "usage: ./ab.sh <parent-rev> [workloads] [pairs] [seconds]" >&2
	exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
workloads=${2:-all}
pairs=${3:-10}
seconds=(${4:+-seconds "$4"})

tree=.ab/parent
out=.ab/out
git worktree remove --force "$tree" 2>/dev/null || true
rm -rf "$tree" "$out"
mkdir -p "$out"
git worktree add --detach --quiet "$tree" "$rev"
trap 'git worktree remove --force "$tree"' EXIT

for ((i = 1; i <= pairs; i++)); do
	sides="parent change"
	((i % 2)) || sides="change parent"
	for side in $sides; do
		root=.
		[ "$side" = parent ] && root=$tree
		for w in ${workloads//,/ }; do
			bash "$root/bench/run.sh" -workload "$w" -seed "$i" ${seconds[@]+"${seconds[@]}"} >"$out/$side.$i.$w.txt"
		done
	done
done
awk -f ab.awk "$out"/*.txt
