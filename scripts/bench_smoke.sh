#!/usr/bin/env bash
# Smoke-run the bench binaries that no BENCHMARK.json workload covers yet,
# with small, fast workloads. This script is the single source of truth for
# the smoke flags: CI's test job runs it verbatim, and a local
# `scripts/bench_smoke.sh` executes exactly what CI does.
#
# Each binary asserts its own correctness invariants (paged-vs-buffered
# parity, generational-vs-monolith parity) and writes its BENCH_*.json into
# the repo root. For the full-size runs the floor gate checks, see
# scripts/bench_regression.sh.
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
# mutable-smoke: streams live inserts into the generational index while
# closed-loop readers query through the background seal/merge churn, then
# asserts every answer (both modes, single- and multi-term) bit-identical
# to a from-scratch monolithic rebuild.
run cargo run --release -p rambo-bench --bin mutable_load -- \
    --docs 60 --mean-terms 200 --queries 300 --readers 2 --memtable-cap 8
