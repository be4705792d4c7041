//! Probe-kernel benchmark: the row-at-a-time scalar AND loop (the
//! pre-kernel query hot path) vs the fused 4-row word-parallel kernel of
//! [`rambo_bitvec::kernel`], on tables well past the last-level cache —
//! with one fused row per **kernel backend** (the portable auto-vectorized
//! loop pinned via `Kernel::forced(Backend::Scalar)`, the AVX2
//! `target_feature` variant where the host supports it, and the dispatched
//! default the production query path uses) — plus the storage backends:
//! copying [`Rambo::from_bytes`] load vs the zero-copy [`Rambo::open_view`],
//! with query parity asserted between them.
//!
//! Emits `BENCH_probe.json` (`fused_<backend>_ms` /
//! `speedup_fused_<backend>_vs_scalar` per supported backend;
//! `dispatch_backend` records what `Kernel::auto()` picked).
//!
//! ```text
//! cargo run --release -p rambo-bench --bin probe_kernel -- \
//!     --mask-words 524288 --rows 16 --iters 5 --docs 200 --queries 500
//! ```

use rambo_bench::{
    archive_with_mean_terms, build_rambo, paper_rambo_params, single_term_queries, speedup, us_per,
    Args, JsonReport,
};
use rambo_bitvec::kernel::{self, Backend, Kernel};
use rambo_core::{QueryContext, QueryMode, Rambo};
use rambo_hash::SplitMix64;
use rambo_workloads::timing::time;
use std::sync::Arc;

/// Row-at-a-time baseline: one pass over the mask per probed row.
fn probe_scalar(mask: &mut [u64], rows: &[u64], mask_words: usize) {
    mask.fill(u64::MAX);
    for row in rows.chunks_exact(mask_words) {
        kernel::and_into_scalar(mask, row);
    }
}

/// The production probe under one pinned backend: every row gathered into
/// the mask in one kernel call — four rows fused per pass, early-exiting the
/// moment the mask dies (it does not on random rows of this density).
fn probe_fused(k: Kernel, mask: &mut [u64], rows: &[u64], offsets: &[usize]) {
    mask.fill(u64::MAX);
    k.and_gather_rows_into_any(mask, rows, offsets);
}

fn main() {
    let args = Args::parse();
    let mask_words = args.get_usize("mask-words", 1 << 19); // 4 MiB mask
    let n_rows = args.get_usize("rows", 16);
    if mask_words == 0 || n_rows == 0 {
        eprintln!(
            "probe_kernel: --mask-words and --rows must be >= 1 \
             (a zero-sized table has no probe to measure)"
        );
        std::process::exit(2);
    }
    let iters = args.get_usize("iters", 5).max(1);
    let docs = args.get_usize("docs", 200);
    let mean_terms = args.get_usize("mean-terms", 400);
    let n_queries = args.get_usize("queries", 500);
    let seed = args.get_u64("seed", 7);

    // ---- Kernel comparison on a >LLC table of random Bloom rows. ----
    let mut rng = SplitMix64::new(seed);
    let rows: Vec<u64> = (0..n_rows * mask_words).map(|_| rng.next_u64()).collect();
    let table_bytes = rows.len() * 8;
    let mut mask_s = vec![0u64; mask_words];
    let mut mask_v = vec![0u64; mask_words];

    let (_, t_scalar) = time(|| {
        for _ in 0..iters {
            probe_scalar(&mut mask_s, &rows, mask_words);
        }
    });
    // The dispatched default — the exact call the planned probe makes in
    // production (best supported backend, RAMBO_KERNEL to override).
    let dispatch = Kernel::auto();
    let offsets: Vec<usize> = (0..n_rows).map(|r| r * mask_words).collect();
    let (_, t_vec) = time(|| {
        for _ in 0..iters {
            probe_fused(dispatch, &mut mask_v, &rows, &offsets);
        }
    });
    assert_eq!(mask_s, mask_v, "kernels must be bit-identical");
    let kernel_speedup = speedup(t_scalar, t_vec);
    eprintln!(
        "probe kernel: {table_bytes} B table, {n_rows} rows × {iters} iters — \
         row-at-a-time scalar {:.2} ms, fused dispatch[{}] {:.2} ms ({kernel_speedup:.2}x)",
        t_scalar.as_secs_f64() * 1e3,
        dispatch.backend(),
        t_vec.as_secs_f64() * 1e3,
    );

    // One fused row per supported backend, pinned via `Kernel::forced`, all
    // asserted bit-identical to the row-at-a-time reference mask.
    let mut backend_rows: Vec<(Backend, std::time::Duration)> = Vec::new();
    let mut mask_b = vec![0u64; mask_words];
    for backend in Backend::ALL {
        let Ok(k) = Kernel::forced(backend) else {
            eprintln!("probe kernel: backend {backend} unsupported on this host, skipped");
            continue;
        };
        let (_, t_b) = time(|| {
            for _ in 0..iters {
                probe_fused(k, &mut mask_b, &rows, &offsets);
            }
        });
        assert_eq!(mask_s, mask_b, "backend {backend} must be bit-identical");
        eprintln!(
            "probe kernel: fused {backend} {:.2} ms ({:.2}x vs row-at-a-time)",
            t_b.as_secs_f64() * 1e3,
            speedup(t_scalar, t_b),
        );
        backend_rows.push((backend, t_b));
    }

    // ---- Storage comparison: copying load vs zero-copy view. ----
    let archive = archive_with_mean_terms(docs, mean_terms, seed);
    let index = build_rambo(
        paper_rambo_params(docs, mean_terms, false, seed),
        &archive.docs,
    );
    let bytes = index.to_bytes().expect("serializable index");
    let index_bytes = bytes.len();
    let buf: Arc<[u8]> = bytes.into();

    let (owned, t_load_owned) = time(|| Rambo::from_bytes(&buf).expect("valid index"));
    let (view, t_load_view) = time(|| Rambo::open_view(buf.clone()).expect("valid index"));
    assert!(view.is_view() && view.payload_borrows(&buf));
    assert!(!owned.payload_borrows(&buf));

    let queries = single_term_queries(&archive, n_queries);
    let run = |idx: &Rambo| {
        let mut ctx = QueryContext::new();
        queries
            .iter()
            .map(|&t| idx.query_terms_with(&[t], QueryMode::Full, &mut ctx))
            .collect::<Vec<_>>()
    };
    let (res_owned, t_q_owned) = time(|| run(&owned));
    let (res_view, t_q_view) = time(|| run(&view));
    assert_eq!(res_owned, res_view, "owned and view storage must agree");

    let nq = queries.len();
    eprintln!(
        "storage: {index_bytes} B index — load from_bytes {:.3} ms, open_view {:.3} ms; \
         query owned {:.2} us, view {:.2} us",
        t_load_owned.as_secs_f64() * 1e3,
        t_load_view.as_secs_f64() * 1e3,
        us_per(t_q_owned, nq),
        us_per(t_q_view, nq),
    );

    let mut report = JsonReport::new("probe_kernel");
    report
        .int("table_bytes", table_bytes as u64)
        .int("mask_words", mask_words as u64)
        .int("rows", n_rows as u64)
        .int("iters", iters as u64)
        .num("scalar_ms", t_scalar.as_secs_f64() * 1e3 / iters as f64)
        .num("vectorized_ms", t_vec.as_secs_f64() * 1e3 / iters as f64)
        .num("speedup_vectorized_vs_scalar", kernel_speedup)
        .str("dispatch_backend", dispatch.backend().name());
    for (backend, t_b) in &backend_rows {
        report
            .num(
                &format!("fused_{}_ms", backend.name()),
                t_b.as_secs_f64() * 1e3 / iters as f64,
            )
            .num(
                &format!("speedup_fused_{}_vs_scalar", backend.name()),
                speedup(t_scalar, *t_b),
            );
    }
    report
        .int("index_bytes", index_bytes as u64)
        .int("docs", docs as u64)
        .num("load_from_bytes_ms", t_load_owned.as_secs_f64() * 1e3)
        .num("load_view_ms", t_load_view.as_secs_f64() * 1e3)
        .ratio("load_speedup_view", t_load_owned, t_load_view)
        .int("view_borrows_payload", 1)
        .num("owned_query_us_per_query", us_per(t_q_owned, nq))
        .num("view_query_us_per_query", us_per(t_q_view, nq));
    report.finish("BENCH_probe.json");
}
