#!/usr/bin/env bash
# Smoke-run the bench binary that no BENCHMARK.json workload covers yet,
# with a small, fast workload. This script is the single source of truth for
# the smoke flags: CI's test job runs it verbatim, and a local
# `scripts/bench_smoke.sh` executes exactly what CI does.
#
# The binary asserts its own correctness invariants (paged-vs-buffered
# parity) and writes BENCH_storage.json into the repo root. For the
# full-size run the floor gate checks, see scripts/bench_regression.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "+ $*" >&2
    "$@"
}

# storage-smoke: dense vs RRR tier sizes with result-parity asserts, then a
# small on-disk catalog opened paged (cold) and re-queried hot through the
# block cache, with paged-vs-buffered parity asserts throughout.
run cargo run --release -p rambo-bench --bin storage_cold -- \
    --docs 60 --terms 300 --buckets 256 \
    --paged-docs 16 --paged-terms 120 --paged-m-bits 16 --queries 64
