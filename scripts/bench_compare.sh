#!/usr/bin/env bash
# The repository benchmark, this checkout against its merge-base with
# <base-ref>, on one machine: every workload of BENCHMARK.json once on
# each side at seed 1 (the seed bench/golden.json pins), then
# `bench/run.sh -compare`.
#
#   scripts/bench_compare.sh <base-ref> [bench flags, e.g. -quick]
#   scripts/bench_compare.sh -advisory
#
# The first form fails on what a machine cannot blur: a run that is not
# correct (failed operations, or a seed-1 digest that differs from the
# pinned one), more failed operations than at the base, and alloc_mb or
# mallocs beyond their bound — counts made by the program, which repeat to
# 0.1 % (bench/README.md). Host-time metrics (setup_s, wall_s, cpu_s,
# ops_per_s, peak_rss_mb) beyond their bounds are only reported; the
# second form re-reads the comparisons the first left behind and fails on
# those, for a CI step that is allowed to fail.
#
# Results stay in .bench_build/compare/ (gitignored): <workload>.base.json,
# <workload>.head.json, <workload>.compare.txt. The base is unpacked with
# `git archive`, so nothing is registered in .git.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/compare"
workloads="tree_packet million_hybrid sweep_cold cache_warm"
host_time='setup_s|wall_s|cpu_s|ops_per_s|peak_rss_mb'

if [ "${1:-}" = "-advisory" ]; then
	if grep -E "^($host_time) .*WORSE THAN BOUND" "$out"/*.compare.txt; then
		echo "bench_compare: host-time metrics beyond their bounds (advisory: one run a side on a shared machine)"
		exit 1
	fi
	echo "bench_compare: host-time metrics within their bounds"
	exit 0
fi

[ $# -ge 1 ] || { echo "usage: $0 <base-ref> [bench flags] | -advisory" >&2; exit 2; }
base_ref=$1
shift
base=$(git -C "$root" merge-base HEAD "$base_ref")
rm -rf "$out"
mkdir -p "$out/base"
git -C "$root" archive "$base" | tar -xf - -C "$out/base"
if [ ! -f "$out/base/bench/run.sh" ]; then
	echo "bench_compare: $base has no bench/; nothing to compare against"
	exit 0
fi

# run <side> <dir> <workload> [flags]: one run; the report goes to the log
# and <workload>.<side>.txt, the stamped result to <workload>.<side>.json.
run() {
	local side=$1 dir=$2 w=$3
	shift 3
	echo "--- $w @ $side"
	(cd "$dir" && BENCH_COMMIT="$side" bash bench/run.sh -workload "$w" -seed 1 -json "$out/$w.$side.json" "$@") | tee "$out/$w.$side.txt"
}

hard=0
fail() {
	echo "bench_compare: FAIL $*"
	hard=1
}
for w in $workloads; do
	run base "$out/base" "$w" "$@"
	run head "$root" "$w" "$@"
	grep -q '^{"correct":true,' "$out/$w.head.txt" || fail "$w: the run is not correct (failed operations or golden mismatch)"
	grep -q '^# .* golden=mismatch ' "$out/$w.head.txt" && fail "$w: seed-1 digest differs from bench/golden.json"
	echo "--- $w: base vs head"
	(cd "$root" && bash bench/run.sh -compare "$out/$w.base.json" "$out/$w.head.json") >"$out/$w.compare.txt" 2>&1 || true
	cat "$out/$w.compare.txt"
	grep -q 'failed operations, was' "$out/$w.compare.txt" && fail "$w: more failed operations than at the base"
	grep -q 'refusing to compare' "$out/$w.compare.txt" && fail "$w: the two runs cannot be compared"
	if grep -E '^(alloc_mb|mallocs) .*WORSE THAN BOUND' "$out/$w.compare.txt"; then
		fail "$w: allocation counts beyond their bound"
	fi
	if grep -qE "^($host_time) .*WORSE THAN BOUND" "$out/$w.compare.txt"; then
		echo "bench_compare: $w: host-time metrics beyond their bounds (advisory)"
	fi
done
exit $hard
