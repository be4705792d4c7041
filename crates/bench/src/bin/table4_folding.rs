//! **Table 4 reproduction** — fold-over: query time and index size at folds
//! ×2, ×4, ×8 of a sharded-then-stacked index (§5.3, Figure 3).
//!
//! Paper numbers (170TB build, B = 50000, R = 5): fold 2 → 66.5ms /
//! 7.13TB; fold 4 → 43.5ms / 3.6TB; fold 8 → 26.25ms / 1.78TB. The
//! shape: each fold halves the size **and** reduces query time (fewer BFUs
//! to probe) while the false-positive rate climbs super-linearly — we print
//! the measured FPR alongside to expose that trade-off (the paper defers it
//! to Figure 4).
//!
//! ```text
//! cargo run -p rambo-bench --release --bin table4_folding -- \
//!     [--docs 2000] [--terms 1000] [--nodes 8] [--local-b 64] [--reps 5] \
//!     [--queries 1000] [--seed 7]
//! ```

use rambo_bench::Args;
use rambo_core::{build_sharded_parallel, QueryContext, QueryMode, RamboParams};
use rambo_workloads::timing::{human_bytes, time};
use rambo_workloads::{ArchiveParams, PlantedQueries, SyntheticArchive, Table};

fn main() {
    let args = Args::parse();
    let k = args.get_usize("docs", 2000);
    let mean_terms = args.get_usize("terms", 1000);
    let nodes = args.get_u64("nodes", 8);
    let local_b = args.get_u64("local-b", 64);
    let reps = args.get_usize("reps", 5);
    let n_queries = args.get_usize("queries", 1000);
    let seed = args.get_u64("seed", 7);
    rambo_bench::require_nonzero(
        "table4_folding",
        &[
            ("--docs", k),
            ("--terms", mean_terms),
            ("--nodes", nodes as usize),
            ("--local-b", local_b as usize),
            ("--reps", reps),
            ("--queries", n_queries),
        ],
    );

    println!("RAMBO reproduction — Table 4 (folding over the stacked index)");
    println!(
        "build: {k} docs x ~{mean_terms} terms, {nodes} simulated nodes x {local_b} local buckets, R = {reps}\n"
    );

    // Archive + planted FPR probes.
    let mut p = ArchiveParams::ena_like(k, 1.0 / 2000.0, seed);
    p.mean_terms = mean_terms;
    p.std_terms = mean_terms / 2;
    let mut archive = SyntheticArchive::generate(&p);
    let planted = PlantedQueries::generate(n_queries, k, 100.0, seed ^ 0xF01D);
    planted.plant_into(&mut archive.docs);
    let query_terms: Vec<u64> = planted.queries.iter().map(|(t, _)| *t).collect();

    // Sharded build, as the paper's cluster would produce it.
    let per_bucket = ((k as f64 / (nodes * local_b) as f64) * mean_terms as f64 * 1.2)
        .ceil()
        .max(64.0) as usize;
    let params = RamboParams::two_level(
        nodes,
        local_b,
        reps,
        rambo_bloom::params::optimal_m(per_bucket, 0.01),
        2,
        seed,
    );
    let (index, build_time) =
        time(|| build_sharded_parallel(params, archive.docs.clone()).expect("sharded build"));
    println!(
        "stacked build: B = {} x R = {} in {}\n",
        index.buckets(),
        index.repetitions(),
        rambo_workloads::timing::human_duration(build_time)
    );

    let mut table = Table::new(
        "Table 4: query time / size / FPR per fold",
        &["fold", "B", "QT (ms)", "size", "per-doc FPR"],
    );
    let mut current = index;
    for fold in [1u32, 2, 4, 8] {
        if fold > 1 {
            current.fold_once().expect("fold available");
        }
        let mut ctx = QueryContext::new();
        let (_, full_t) = time(|| {
            for &t in &query_terms {
                std::hint::black_box(current.query_terms_with(&[t], QueryMode::Full, &mut ctx));
            }
        });
        // The sharded build renumbers documents node-major; translate index
        // ids back to archive positions for the ground-truth comparison.
        let archive_pos: std::collections::HashMap<&str, u32> = archive
            .docs
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.as_str(), i as u32))
            .collect();
        let fpr = planted.measure(k, |t| {
            let mut ids: Vec<u32> = current
                .query_u64(t)
                .into_iter()
                .map(|d| archive_pos[current.document_name(d)])
                .collect();
            ids.sort_unstable();
            ids
        });
        table.row(&[
            format!("x{fold}"),
            current.buckets().to_string(),
            format!(
                "{:.4}",
                full_t.as_secs_f64() * 1e3 / query_terms.len() as f64
            ),
            human_bytes(current.size_bytes()),
            format!("{:.5}", fpr.per_doc_rate()),
        ]);
    }
    println!("{table}");
    println!("shape checks vs paper (Table 4: 66.5ms/7.13TB -> 43.5/3.6 -> 26.25/1.78):");
    println!("  * size halves per fold;");
    println!("  * query time falls as B shrinks (fewer BFU probes);");
    println!("  * FPR rises super-linearly with each fold (Figure 4's trade-off).");
}
