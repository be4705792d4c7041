#!/usr/bin/env bash
# Bench floor gate: run the bench no BENCHMARK.json workload measures yet
# (storage_cold, for paged catalogs) at its canonical (default-flag) sizes,
# and fail (exit 1) when a gated metric in BENCH_storage.json sits below its
# absolute floor. A floor means the floor: there is no tolerance below it,
# no baseline file and no retry. Speed of everything else is the
# yardstick's job (BENCHMARK.json).
#
# Usage:
#   scripts/bench_regression.sh

set -euo pipefail
cd "$(dirname "$0")/.."

# file | metric | absolute floor
#
# Storage floors: cold_query_headroom >= 1.0 holds a cold (all-faulting)
# query under the 20ms serving ceiling on a 128MB catalog;
# hot_over_cold_query_speedup >= 4.48 is a block-cache hit beating a cold
# fault (recorded 5.97-7.05; the floor is 5.969 less 25%).
FLOORS="
BENCH_storage.json|cold_query_headroom|1.0
BENCH_storage.json|hot_over_cold_query_speedup|4.48
"

# extract FILE KEY -> prints the numeric value of "KEY": value
extract() {
    sed -n 's/^ *"'"$2"'": *\(-\{0,1\}[0-9.e+-]*\),\{0,1\}$/\1/p' "$1" | head -n1
}

cargo build --release -p rambo-bench
# Canonical run: default flags, which fix the seed and sizes.
echo "+ cargo run --release -p rambo-bench --bin storage_cold" >&2
cargo run --release -p rambo-bench --bin storage_cold >/dev/null

echo "bench floor gate:"
failed=0
for check in $FLOORS; do
    file="${check%%|*}"
    rest="${check#*|}"
    key="${rest%%|*}"
    floor="${rest##*|}"
    new="$(extract "$file" "$key")"
    if [ -z "$new" ]; then
        echo "  MISSING metric $key in $file"
        failed=1
    elif awk -v n="$new" -v f="$floor" 'BEGIN { exit !(n + 0 >= f) }'; then
        printf '  ok        %-20s %-30s %10s (floor %s)\n' "$file" "$key" "$new" "$floor"
    else
        printf '  BELOW     %-20s %-30s %10s < floor %s\n' "$file" "$key" "$new" "$floor"
        failed=1
    fi
done

if [ "$failed" -ne 0 ]; then
    echo "bench floor gate FAILED: a gated metric is missing or below its floor." >&2
    exit 1
fi
echo "bench floor gate passed."
