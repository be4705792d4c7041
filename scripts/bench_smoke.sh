#!/usr/bin/env bash
# Smoke-run the throughput benchmark binaries with small, fast
# workloads. This script is the single source of truth for the smoke flags:
# CI's test job runs it verbatim, and a local `scripts/bench_smoke.sh`
# executes exactly what CI does.
#
# Each binary asserts its own correctness invariants (served-vs-direct
# result parity, paged-vs-buffered parity, …) and writes its
# BENCH_*.json into the repo root. For the full-size runs that the
# regression gate compares against committed baselines, see
# scripts/bench_regression.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "+ $*" >&2
    "$@"
}

run cargo run --release -p rambo-bench --bin probe_kernel -- \
    --mask-words 262144 --rows 8 --iters 3 --docs 100 --queries 300
# serve-smoke: starts the server (in-process and on a loopback
# non-blocking TCP port), sweeps the paced load levels 1/2/8 so concurrent
# clients exercise both inline evaluation and the worker queue, and
# asserts result parity with direct evaluation (in-process and TCP front
# alike), non-empty responses for present-term queries, strictly-smaller
# tier selection under a loosened FPR budget, and a clean drain-and-join
# shutdown. Mid-frame stalled-client abort and cached-vs-uncached parity
# are covered by `cargo test -p rambo-server` in the test step above.
run cargo run --release -p rambo-bench --bin serve_load -- \
    --docs 120 --mean-terms 800 --queries 800 --window 32 \
    --loads 1,2,8 --tcp
# cluster-smoke: plans a corpus into node-local shards, spawns replicated
# shard servers plus a scatter-gather coordinator over loopback, asserts
# every answer bit-identical to the stacked monolith, then kills one
# replica (zero queries may fail) and a whole replica set (replies must
# degrade, not error).
run cargo run --release -p rambo-bench --bin cluster_serve -- \
    --docs 24 --queries 80 --nodes 1,2 --replicas 2
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
# tenant-smoke: one process serving several named RAMBO indexes over the
# RESP text protocol, loaded and queried concurrently over real sockets,
# with per-tenant answers asserted bit-identical to isolated single-index
# oracles and document-quota admission rejections verified in-protocol.
run cargo run --release -p rambo-bench --bin tenant_serve -- \
    --tenants 3 --docs 40 --mean-terms 60 --queries 120
