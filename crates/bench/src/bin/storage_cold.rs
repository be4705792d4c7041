//! Storage-tier benchmark: paged catalog opens and the block cache's
//! cold-vs-hot serving gap.
//!
//! Write a ≥100MB catalog to disk, open it with
//! `Catalog::builder().file(..)` (metadata only; payload blocks fault
//! through the byte-budgeted block cache) and measure: open time vs a
//! 4×-smaller file (`paged_open_payload_independence` ≈ 4 when the open is
//! O(metadata)), open time vs a full read+parse
//! (`cold_open_speedup_vs_full`), per-query p50 cold (faulting) vs hot
//! (cache-resident), and the block-cache hit ratios behind both. The report
//! is `BENCH_storage.json`.
//!
//! ```text
//! cargo run --release -p rambo-bench --bin storage_cold -- \
//!     --buckets 512 --paged-m-bits 20
//! ```

use rambo_bench::{archive_with_mean_terms, window_queries, Args, JsonReport};
use rambo_core::RamboParams;
use rambo_server::Catalog;
use rambo_workloads::timing::time;
use std::time::{Duration, Instant};

/// Serving-latency design ceiling for a cold (all-faulting) query, µs. The
/// gate metric `cold_query_headroom = CEILING / cold_p50_us` must stay ≥ 1:
/// a cold query against a 100MB+ on-disk catalog answers well inside the
/// paper's "milliseconds" envelope.
const COLD_QUERY_CEILING_US: f64 = 20_000.0;

fn p50(mut samples: Vec<Duration>) -> Duration {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Time each query separately (the paged experiments need a latency
/// *distribution* — cold faults make the mean meaningless).
fn per_query_times(catalog: &Catalog, tier: usize, queries: &[Vec<u64>]) -> (Vec<Duration>, usize) {
    let index = catalog.tier(tier);
    let mut times = Vec::with_capacity(queries.len());
    let mut hits = 0usize;
    for q in queries {
        let start = Instant::now();
        hits += index.query_terms_u64(q, rambo_core::QueryMode::Full).len();
        times.push(start.elapsed());
    }
    (times, hits)
}

fn main() {
    let args = Args::parse();
    let buckets = args.get_u64("buckets", 512);
    let paged_docs = args.get_usize("paged-docs", 64);
    let paged_terms = args.get_usize("paged-terms", 500);
    let paged_m_bits = args.get_usize("paged-m-bits", 20);
    let cache_mb = args.get_usize("cache-mb", 192);
    let n_queries = args.get_usize("queries", 256);
    let seed = args.get_u64("seed", 42);
    rambo_bench::require_nonzero(
        "storage_cold",
        &[
            ("--buckets", buckets as usize),
            ("--paged-docs", paged_docs),
            ("--paged-terms", paged_terms),
            ("--paged-m-bits", paged_m_bits),
            ("--cache-mb", cache_mb),
            ("--queries", n_queries),
        ],
    );

    let mut report = JsonReport::new("storage_cold");
    report
        .int("buckets", buckets)
        .int("paged_docs", paged_docs as u64)
        .int("paged_terms", paged_terms as u64)
        .int("paged_m_bits", paged_m_bits as u64)
        .int("cache_mb", cache_mb as u64)
        .int("seed", seed);

    // Two single-tier on-disk catalogs differing ONLY in filter bits (4x):
    // an O(metadata) open costs the same on both, an O(payload) open does
    // not. The big file is the ≥100MB acceptance artifact at default flags
    // (2 reps x 2^20 x 512 bits = 128MB).
    let eta = 2u32;
    let dir = std::path::Path::new("target").join("storage_cold");
    std::fs::create_dir_all(&dir).expect("create target/storage_cold");
    let paged_archive = archive_with_mean_terms(paged_docs, paged_terms, seed + 1);
    let mut sizes = Vec::new();
    for (tag, m_bits) in [("big", paged_m_bits), ("small", paged_m_bits - 2)] {
        let params = RamboParams::flat(buckets, 2, 1 << m_bits, eta, seed + 1);
        let index = rambo_bench::build_rambo(params, &paged_archive.docs);
        let bytes = index.to_bytes().expect("serialize");
        let path = dir.join(format!("{tag}.cat"));
        std::fs::write(&path, &bytes).expect("write catalog file");
        eprintln!("paged: wrote {} ({} MB)", path.display(), bytes.len() >> 20);
        sizes.push((path, bytes.len()));
    }
    let (big_path, big_len) = sizes[0].clone();
    let (small_path, _) = sizes[1].clone();
    report.int("paged_file_bytes", big_len as u64);
    let cache_bytes = cache_mb << 20;
    let open_paged = |path: &std::path::Path| {
        Catalog::builder()
            .file(path)
            .cache_bytes(cache_bytes)
            .build()
            .expect("paged open")
    };

    // Open cost, best of 5 (page-cache warmup on the metadata reads is part
    // of what "best" strips out; the payload is never read either way).
    let best_open = |path: &std::path::Path| {
        (0..5)
            .map(|_| {
                let (cat, t) = time(|| open_paged(path));
                drop(cat);
                t
            })
            .min()
            .expect("five opens")
    };
    let open_big = best_open(&big_path);
    let open_small = best_open(&small_path);
    let (full_cat, open_full) = time(|| {
        let bytes = std::fs::read(&big_path).expect("read catalog");
        Catalog::builder()
            .buffer(bytes.into())
            .build()
            .expect("open buffered")
    });
    // 4x the payload should cost ~1x the open when reads are O(metadata):
    // normalize so "fully payload-bound" ≈ 1 and "payload-independent" ≈ 4.
    let independence = 4.0 / (open_big.as_secs_f64() / open_small.as_secs_f64().max(1e-9));
    report
        .num("paged_open_us", open_big.as_secs_f64() * 1e6)
        .num("paged_open_small_us", open_small.as_secs_f64() * 1e6)
        .num("full_open_us", open_full.as_secs_f64() * 1e6)
        .num("paged_open_payload_independence", independence)
        .ratio("cold_open_speedup_vs_full", open_full, open_big);
    eprintln!(
        "paged: open big {:?} / small {:?} (independence {:.2}), full read+parse {:?}",
        open_big, open_small, independence, open_full
    );

    // Cold pass: a fresh open faults every probed block from disk. Hot
    // pass: same catalog, same queries — every probe hits the block cache.
    let paged_queries = window_queries(&paged_archive, 4, 4, n_queries);
    let cold_cat = open_paged(&big_path);
    let (cold_times, cold_hits) = per_query_times(&cold_cat, 0, &paged_queries);
    let cold_blocks = cold_cat.block_cache_stats(0).expect("paged tier");
    let (hot_times, hot_hits) = per_query_times(&cold_cat, 0, &paged_queries);
    let after_hot = cold_cat.block_cache_stats(0).expect("paged tier");
    assert_eq!(cold_hits, hot_hits, "hot pass must answer identically");
    // Paged answers must match the in-memory catalog bit for bit.
    for q in paged_queries.iter().take(32) {
        assert_eq!(
            cold_cat
                .tier(0)
                .query_terms_u64(q, rambo_core::QueryMode::Full),
            full_cat
                .tier(0)
                .query_terms_u64(q, rambo_core::QueryMode::Full),
            "paged tier diverged from buffered on {q:?}"
        );
    }
    let cold_p50 = p50(cold_times);
    let hot_p50 = p50(hot_times);
    let hot_blocks_hits = after_hot.hits - cold_blocks.hits;
    let hot_blocks_misses = after_hot.misses - cold_blocks.misses;
    let hot_hit_ratio = if hot_blocks_hits + hot_blocks_misses == 0 {
        0.0
    } else {
        hot_blocks_hits as f64 / (hot_blocks_hits + hot_blocks_misses) as f64
    };
    let cold_p50_us = cold_p50.as_secs_f64() * 1e6;
    report
        .num("cold_p50_us", cold_p50_us)
        .num("hot_p50_us", hot_p50.as_secs_f64() * 1e6)
        .ratio("hot_over_cold_query_speedup", cold_p50, hot_p50)
        .num(
            "cold_query_headroom",
            COLD_QUERY_CEILING_US / cold_p50_us.max(1e-9),
        )
        .num("block_hit_ratio_cold", cold_blocks.hit_ratio())
        .num("block_hit_ratio_hot", hot_hit_ratio)
        .int("blocks_faulted_cold", cold_blocks.misses)
        .int("block_evictions", after_hot.evictions);
    eprintln!(
        "paged: cold p50 {:?} (hit ratio {:.3}) -> hot p50 {:?} (hit ratio {:.3})",
        cold_p50,
        cold_blocks.hit_ratio(),
        hot_p50,
        hot_hit_ratio,
    );

    report.finish("BENCH_storage.json");
}
