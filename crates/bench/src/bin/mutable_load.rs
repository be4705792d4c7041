//! Mutable-index load benchmark: live insert throughput and read latency
//! while the LSM-style generational index seals and merges underneath.
//!
//! One writer streams the synthetic archive into a one-tenant
//! [`rambo_server::TenantRegistry`] while a merge thread loops
//! `maintain_once` and `--readers` closed-loop readers query concurrently —
//! the write phase continuously triggers memtable seals (about every
//! `--memtable-cap` documents: the cap is translated into the tenant's
//! memtable FPR budget) and background size-tiered merges, so the
//! concurrent read latencies *are* "read p99 during merge". After the
//! writer finishes and merges drain, every probe is
//! replayed against a from-scratch monolithic [`rambo_core::Rambo`] build
//! in both query modes; `generations_parity_ok` is 1 only if all answers
//! are bit-identical (the gate the regression baseline pins at 1.0).
//!
//! `merge_read_p99_headroom` = `--p99-ceiling-ms` / measured merge-phase
//! read p99: ≥ 1.0 means background maintenance never stalled readers
//! past the ceiling. The install critical section is a two-`Arc` splice,
//! so the default 50 ms ceiling is generous by orders of magnitude.
//!
//! Emits `BENCH_mutable.json`.
//!
//! ```text
//! cargo run --release -p rambo-bench --bin mutable_load -- \
//!     --docs 300 --mean-terms 800 --queries 2000 --readers 2
//! ```

use rambo_bench::{absent_term, archive_with_mean_terms, require_nonzero, Args, JsonReport};
use rambo_core::{theory, QueryContext, QueryMode, Rambo, RamboParams};
use rambo_server::{TenantOptions, TenantQuotas, TenantRegistry};
use rambo_workloads::stats::percentile;
use rambo_workloads::timing::time;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

const TENANT: &str = "live";

fn main() {
    let args = Args::parse();
    let docs = args.get_usize("docs", 300);
    let mean_terms = args.get_usize("mean-terms", 800);
    let queries = args.get_usize("queries", 2000);
    let readers = args.get_usize("readers", 2);
    let cap = args.get_usize("memtable-cap", 32);
    let ceiling_ms = args.get_f64("p99-ceiling-ms", 50.0);
    let seed = args.get_u64("seed", 42);
    require_nonzero(
        "mutable_load",
        &[
            ("--docs", docs),
            ("--mean-terms", mean_terms),
            ("--queries", queries),
            ("--readers", readers),
            ("--memtable-cap", cap),
        ],
    );

    let archive = archive_with_mean_terms(docs, mean_terms, seed);
    let total_terms = archive.total_terms() as u64;
    let b = ((docs as f64).sqrt() * 4.5).round().max(4.0) as u64;
    let per_bucket = ((docs as f64 / b as f64) * mean_terms as f64 * 1.2).ceil() as usize;
    let params = RamboParams::flat(
        b,
        3,
        rambo_bloom::params::optimal_m(per_bucket.max(64), 0.01),
        2,
        seed,
    );
    // Seal about every `cap` documents: the budget is the memtable's
    // predicted per-BFU FPR once it holds that many mean-sized documents.
    let keys_at_cap = cap * mean_terms / b as usize;
    let registry = TenantRegistry::new(params, TenantQuotas::default()).expect("valid geometry");
    let options = TenantOptions {
        fpr: theory::bfu_fpr(params.bfu_bits, keys_at_cap, params.eta).clamp(1e-12, 1.0),
        max_generations: Some(4),
        ..TenantOptions::default()
    };
    registry.create(TENANT, options).expect("fresh tenant");
    let query = |terms: &[u64], mode| registry.query(TENANT, terms, mode).expect("tenant");
    eprintln!(
        "mutable: K={docs} mean_terms={mean_terms} B={b} cap={cap} readers={readers} \
         queries={queries}"
    );

    // Probe pool the readers cycle through: up to three present terms per
    // document, 1/4 absent.
    let mut probes: Vec<u64> = archive
        .docs
        .iter()
        .flat_map(|(_, ts)| ts.iter().take(3).copied())
        .take(queries * 3 / 4)
        .collect();
    while probes.len() < queries {
        probes.push(absent_term(probes.len()));
    }

    let writing = AtomicBool::new(true);
    // Write phase: one writer streaming the archive, a merge thread, and
    // `readers` closed-loop readers measuring latency while seals and merges
    // churn underneath.
    let (write_elapsed, merge_lat_us, mut merges) = std::thread::scope(|s| {
        let merger = s.spawn(|| {
            let mut merges = 0u64;
            while writing.load(Ordering::Relaxed) {
                if registry.maintain_once() {
                    merges += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            merges
        });
        let reader_handles: Vec<_> = (0..readers)
            .map(|r| {
                let (query, probes, writing) = (&query, &probes, &writing);
                s.spawn(move || {
                    let mut lat_us = Vec::new();
                    let mut i = r;
                    // At least one read per reader even if the write phase
                    // finishes first (smoke runs).
                    loop {
                        let t0 = Instant::now();
                        let got = query(&[probes[i % probes.len()]], None);
                        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        std::hint::black_box(got);
                        i += 1;
                        if !writing.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    lat_us
                })
            })
            .collect();
        let (_, write_elapsed) = time(|| {
            for (name, terms) in &archive.docs {
                registry.insert_document(TENANT, name, terms).unwrap();
            }
        });
        writing.store(false, Ordering::Relaxed);
        let mut merge_lat_us = Vec::new();
        for h in reader_handles {
            merge_lat_us.extend(h.join().unwrap());
        }
        (write_elapsed, merge_lat_us, merger.join().unwrap())
    });
    while registry.maintain_once() {
        merges += 1;
    }

    // Parity phase: every probe plus multi-term windows, both modes, against
    // a from-scratch monolithic rebuild.
    let mut mono = Rambo::new(params).unwrap();
    for (name, terms) in &archive.docs {
        mono.insert_document(name, terms.iter().copied()).unwrap();
    }
    let mut ctx = QueryContext::new();
    let mut parity_ok = true;
    let mut quiet_us = Vec::with_capacity(probes.len());
    for &t in &probes {
        for mode in [QueryMode::Full, QueryMode::Sparse] {
            let t0 = Instant::now();
            let live_ans = query(&[t], Some(mode));
            quiet_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if live_ans != mono.query_terms_with(&[t], mode, &mut ctx) {
                eprintln!("PARITY FAILURE on {t:#x} ({mode:?})");
                parity_ok = false;
            }
        }
    }
    for pair in probes.chunks(2).take(queries / 4) {
        if query(pair, Some(QueryMode::Full))
            != mono.query_terms_with(pair, QueryMode::Full, &mut ctx)
        {
            eprintln!("PARITY FAILURE on multi-term {pair:x?}");
            parity_ok = false;
        }
    }
    let quiet_p99_us = percentile(&quiet_us, 99.0);
    assert!(parity_ok, "generational index diverged from the monolith");
    let stats = registry.stats(TENANT).expect("tenant");
    // Every seal and every merge advances the epoch by one.
    let seals = stats.epoch - merges;
    assert!(
        seals > 0 && merges > 0,
        "the write phase must exercise seals and merges: {stats:?}"
    );

    let merge_p50_us = percentile(&merge_lat_us, 50.0);
    let merge_p99_us = percentile(&merge_lat_us, 99.0);
    let headroom = ceiling_ms * 1e3 / merge_p99_us.max(1e-9);
    let write_docs_per_s = docs as f64 / write_elapsed.as_secs_f64();
    eprintln!(
        "write: {write_docs_per_s:.0} docs/s over {} seals / {} merges; \
         read-during-merge p99 {merge_p99_us:.0}µs (headroom {headroom:.1}x), \
         quiescent p99 {quiet_p99_us:.0}µs, parity {}",
        seals,
        merges,
        if parity_ok { "OK" } else { "FAILED" }
    );

    JsonReport::new("mutable_load")
        .int("docs", docs as u64)
        .int("total_terms", total_terms)
        .int("buckets", b)
        .int("memtable_cap", cap as u64)
        .int("readers", readers as u64)
        .num("write_s", write_elapsed.as_secs_f64())
        .num("write_docs_per_s", write_docs_per_s)
        .num(
            "write_mterms_per_s",
            total_terms as f64 / write_elapsed.as_secs_f64() / 1e6,
        )
        .num("insert_p99_us", stats.write_p99.as_secs_f64() * 1e6)
        .int("merge_phase_reads", merge_lat_us.len() as u64)
        .num("merge_read_p50_us", merge_p50_us)
        .num("merge_read_p99_us", merge_p99_us)
        .num("quiescent_read_p99_us", quiet_p99_us)
        .num("merge_read_p99_headroom", headroom)
        .num("generations_parity_ok", f64::from(u8::from(parity_ok)))
        .int("seals", seals)
        .int("merges", merges)
        .int("final_generations", stats.generations as u64)
        .int("epoch", stats.epoch)
        .finish("BENCH_mutable.json");
}
