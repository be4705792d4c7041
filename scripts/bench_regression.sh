#!/usr/bin/env bash
# Bench-regression gate: run the benchmark binaries at their canonical
# (default-flag) sizes and compare each BENCH_*.json headline metric against
# the committed baselines in scripts/bench_baselines/. Fails (exit 1) when a
# headline metric regresses by more than TOLERANCE_PCT, or when a gated
# metric sits below its absolute floor.
#
# The headline metrics are deliberately *within-run speedup ratios*, not
# absolute throughputs: a ratio divides out the host's clock speed and cache
# sizes, so a baseline recorded on one machine remains meaningful on CI
# runners of a different class. A code change that slows the optimized side
# of any ratio shows up directly; absolute numbers are still recorded in the
# JSONs (and uploaded as CI artifacts) for human eyes.
#
# Usage:
#   scripts/bench_regression.sh            # gate: run + compare
#   scripts/bench_regression.sh --update   # rebless: run + overwrite baselines
#   TOLERANCE_PCT=10 scripts/bench_regression.sh   # tighter gate

# ---- the one tolerance knob -------------------------------------------------
TOLERANCE_PCT="${TOLERANCE_PCT:-25}"
# -----------------------------------------------------------------------------

set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE_DIR=scripts/bench_baselines

# file | headline metric (a within-run speedup ratio; higher is better)
#
# Metrics chosen for stability on the host class that recorded the
# baseline. Ingestion is not gated here: the write path is measured by the
# archive_build workload of BENCHMARK.json.
CHECKS="
BENCH_probe.json|speedup_vectorized_vs_scalar
BENCH_storage.json|hot_over_cold_query_speedup
"

# file | metric | absolute floor — design targets that hold regardless of
# what any past run blessed, with no tolerance below them: a floor means
# the floor. A served hot query must beat re-evaluation by a wide margin
# (recorded runs read 8-14x against 5).
#
# Storage floors: dense_over_rrr_bits_per_doc >= 1.667 is the acceptance
# criterion "RRR cold tier <= 0.6x the dense bits/doc" (deterministic —
# same seed, same sizes; recorded 2.85); cold_query_headroom >= 1.0 holds a
# cold (all-faulting) query under the 20ms serving ceiling on a 128MB
# catalog.
#
# Cluster floors are correctness/availability gates, not performance: the
# scatter-gather union must be bit-identical to the monolith on every
# query of the run, killing one replica must lose zero queries, and
# killing a full replica set must keep availability at 1.0 via degraded
# replies. These are 0-or-1 outcomes.
#
# Mutable-index floors: generations_parity_ok is the live-insert
# bit-identity gate (0-or-1 — every query through the generational index
# must equal a from-scratch monolithic rebuild, after a run full of
# concurrent seals and merges); merge_read_p99_headroom >= 1.0 holds the
# concurrent-read p99 under the mutable bench's latency ceiling while
# background merges run.
#
# Tenant floors are likewise 0-or-1 correctness gates: every named index
# served over the RESP front must answer bit-identically to an isolated
# single-index oracle (multi-tenancy unobservable from inside a tenant),
# and document-quota admission must reject exactly the inserts beyond the
# cap, in-protocol, with the registry's rejection counter agreeing.
ABS_CHECKS="
BENCH_serve.json|cache_hit_p50_speedup|5.0
BENCH_storage.json|dense_over_rrr_bits_per_doc|1.667
BENCH_storage.json|cold_query_headroom|1.0
BENCH_cluster.json|scatter_parity_ok|1.0
BENCH_cluster.json|replica_kill_success|1.0
BENCH_cluster.json|degraded_availability|1.0
BENCH_mutable.json|generations_parity_ok|1.0
BENCH_mutable.json|merge_read_p99_headroom|1.0
BENCH_tenant.json|tenant_isolation_parity_ok|1.0
BENCH_tenant.json|quota_enforcement_ok|1.0
"

# Canonical runs: default flags except a fixed seed — these sizes are what
# the committed baselines were recorded with. Keep flags here and baseline
# regeneration (--update) in lockstep.
run_benches() {
    for bin in probe_kernel serve_load storage_cold cluster_serve mutable_load tenant_serve; do
        echo "+ cargo run --release -p rambo-bench --bin $bin" >&2
        cargo run --release -p rambo-bench --bin "$bin" >/dev/null
    done
}

# extract FILE KEY -> prints the numeric value of "KEY": value
extract() {
    sed -n 's/^ *"'"$2"'": *\(-\{0,1\}[0-9.e+-]*\),\{0,1\}$/\1/p' "$1" | head -n1
}

cargo build --release -p rambo-bench
run_benches

if [ "${1:-}" = "--update" ]; then
    mkdir -p "$BASELINE_DIR"
    for f in BENCH_probe.json BENCH_serve.json BENCH_storage.json BENCH_cluster.json BENCH_mutable.json BENCH_tenant.json; do
        cp "$f" "$BASELINE_DIR/$f"
        echo "blessed $BASELINE_DIR/$f"
    done
    exit 0
fi

# file -> bench bin (for targeted retries)
bin_of() {
    case "$1" in
        BENCH_probe.json) echo probe_kernel ;;
        BENCH_serve.json) echo serve_load ;;
        BENCH_storage.json) echo storage_cold ;;
        BENCH_cluster.json) echo cluster_serve ;;
        BENCH_mutable.json) echo mutable_load ;;
        BENCH_tenant.json) echo tenant_serve ;;
    esac
}

# compare_all -> prints per-metric verdicts; echoes failing files (unique,
# space-separated) on the FAILED_FILES line of its stdout tail via a global.
failed_files=""
hard_fail=0
compare_all() {
    failed_files=""
    for check in $CHECKS; do
        file="${check%%|*}"
        key="${check##*|}"
        base_file="$BASELINE_DIR/$file"
        if [ ! -f "$base_file" ]; then
            echo "  MISSING baseline $base_file (run scripts/bench_regression.sh --update)"
            hard_fail=1
            continue
        fi
        new="$(extract "$file" "$key")"
        base="$(extract "$base_file" "$key")"
        if [ -z "$new" ] || [ -z "$base" ]; then
            echo "  MISSING metric $key in $file (new='$new' baseline='$base')"
            hard_fail=1
            continue
        fi
        if awk -v n="$new" -v b="$base" -v tol="$TOLERANCE_PCT" \
            'BEGIN { exit !(n + 0 >= b * (1 - tol / 100)) }'; then
            printf '  ok        %-26s %-40s %10s (baseline %s)\n' "$file" "$key" "$new" "$base"
        else
            printf '  REGRESSED %-26s %-40s %10s < %s - %s%%\n' "$file" "$key" "$new" "$base" "$TOLERANCE_PCT"
            case " $failed_files " in
                *" $file "*) ;;
                *) failed_files="$failed_files $file" ;;
            esac
        fi
    done
    for check in $ABS_CHECKS; do
        file="${check%%|*}"
        rest="${check#*|}"
        key="${rest%%|*}"
        floor="${rest##*|}"
        new="$(extract "$file" "$key")"
        if [ -z "$new" ]; then
            echo "  MISSING metric $key in $file"
            hard_fail=1
            continue
        fi
        if awk -v n="$new" -v f="$floor" 'BEGIN { exit !(n + 0 >= f) }'; then
            printf '  ok        %-26s %-40s %10s (floor %s)\n' "$file" "$key" "$new" "$floor"
        else
            printf '  BELOW     %-26s %-40s %10s < floor %s\n' "$file" "$key" "$new" "$floor"
            case " $failed_files " in
                *" $file "*) ;;
                *) failed_files="$failed_files $file" ;;
            esac
        fi
    done
}

echo "bench-regression gate (tolerance ${TOLERANCE_PCT}% against baselines, none below floors):"
compare_all

# Benchmarks are noisy on shared runners: give any regressed bench one
# fresh run before failing — a persistent regression survives the retry, a
# scheduling hiccup does not.
if [ -n "$failed_files" ]; then
    echo "retrying regressed benches once:$failed_files"
    for f in $failed_files; do
        bin="$(bin_of "$f")"
        echo "+ cargo run --release -p rambo-bench --bin $bin" >&2
        cargo run --release -p rambo-bench --bin "$bin" >/dev/null
    done
    echo "re-comparing after retry:"
    compare_all
fi

if [ "$hard_fail" -ne 0 ] || [ -n "$failed_files" ]; then
    echo "bench-regression gate FAILED: a headline metric regressed more than ${TOLERANCE_PCT}% or sat below its floor (twice in a row)." >&2
    echo "If the change is intentional, rebless with scripts/bench_regression.sh --update." >&2
    exit 1
fi
echo "bench-regression gate passed."
