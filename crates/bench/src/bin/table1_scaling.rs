//! **Table 1 reproduction** — the theoretical query-time comparison, checked
//! empirically: how mean query time grows with `K` for each index family.
//!
//! | structure | paper's query complexity |
//! |---|---|
//! | Inverted index | O(1) best case |
//! | BIGSI/COBS | O(K) |
//! | SBT family | O(log K) best, O(K) worst |
//! | RAMBO | O(√K · log K) |
//!
//! The harness sweeps K geometrically and prints per-doubling growth
//! factors: COBS should approach 2.0x per doubling, RAMBO ≈ √2 ≈ 1.4x, the
//! inverted index ≈ 1.0x, with the trees in between (absent queries prune
//! early; present ones descend).
//!
//! ```text
//! cargo run -p rambo-bench --release --bin table1_scaling -- \
//!     [--ks 400,1600,6400,25600] [--terms 100] [--queries 300] [--alpha 4] [--seed 7]
//!
//! Note on scale: COBS's O(K) term is word-parallel (64 documents per AND
//! word), so its linear growth only emerges for K in the tens of thousands;
//! the default sweep goes there. `--alpha` keeps planted multiplicities
//! small so result-set materialization does not mask index probe costs.
//! ```

use rambo_baselines::{BitSlicedIndex, InvertedIndex, MembershipIndex, RamboIndex, Sbt, SplitSbt};
use rambo_bench::{
    build_rambo, mean_query_time, paper_buckets_for, paper_rambo_params_with_fpr, Args,
};
use rambo_workloads::{ArchiveParams, PlantedQueries, SyntheticArchive, Table};

fn main() {
    let args = Args::parse();
    let ks = args.get_usize_list("ks", &[400, 1600, 6400, 25600]);
    let mean_terms = args.get_usize("terms", 100);
    let n_queries = args.get_usize("queries", 300);
    let alpha = args.get_f64("alpha", 4.0);
    let seed = args.get_u64("seed", 7);
    rambo_bench::require_nonzero(
        "table1_scaling",
        &[
            ("--ks", ks.iter().copied().min().unwrap_or(0)),
            ("--terms", mean_terms),
            ("--queries", n_queries),
        ],
    );

    println!("RAMBO reproduction — Table 1 (query-time scaling with K)\n");
    let labels = ["Inverted", "RAMBO", "COBS", "SBT", "SSBT"];
    let mut headers = vec!["K".to_string()];
    headers.extend(labels.iter().map(|l| format!("{l} (us)")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("mean query time (microseconds)", &header_refs);

    let mut series: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    for &k in &ks {
        let mut p = ArchiveParams::tiny(k, seed);
        p.mean_terms = mean_terms;
        p.std_terms = mean_terms / 3;
        let mut archive = SyntheticArchive::generate(&p);
        let planted = PlantedQueries::generate(n_queries, k, alpha, seed ^ 0xAB);
        planted.plant_into(&mut archive.docs);
        let terms: Vec<u64> = planted.queries.iter().map(|(t, _)| *t).collect();
        let docs = &archive.docs;

        // Theorem 4.5's precondition: per-BFU FPR p ≤ 1/B, so the
        // B·p false-bucket term of Lemma 4.4 stays O(1) as K grows.
        let p_bfu = (1.0 / paper_buckets_for(k) as f64).min(0.01);
        let rambo = build_rambo(
            paper_rambo_params_with_fpr(k, mean_terms, false, p_bfu, seed),
            docs,
        );
        let max_n = docs.iter().map(|(_, t)| t.len()).max().unwrap_or(1).max(1);
        let m_tree = rambo_bloom::params::optimal_m(max_n, 0.01);
        let indexes: Vec<Box<dyn MembershipIndex>> = vec![
            Box::new(InvertedIndex::build(docs)),
            Box::new(RamboIndex::new(rambo)),
            Box::new(BitSlicedIndex::build_auto(docs, 0.01, 3, seed)),
            Box::new(Sbt::build(docs, m_tree, 1, seed)),
            Box::new(SplitSbt::build(docs, m_tree, 1, seed, false)),
        ];

        let mut row = vec![k.to_string()];
        for (i, idx) in indexes.iter().enumerate() {
            let t = mean_query_time(idx.as_ref(), &terms).as_secs_f64() * 1e6;
            series[i].push(t);
            row.push(format!("{t:.2}"));
        }
        table.row(&row);
    }
    println!("{table}");

    // Per-doubling growth factors (geometric mean across the sweep).
    let mut growth = Table::new(
        "growth factor per K-doubling (geometric mean)",
        &["index", "growth", "theory"],
    );
    let theory = [
        "~1.0 (O(1))",
        "~1.4 (O(sqrt K log K))",
        "~2.0 (O(K))",
        "1..2 (O(log K)..O(K))",
        "1..2",
    ];
    for (i, label) in labels.iter().enumerate() {
        let s = &series[i];
        if s.len() < 2 {
            continue;
        }
        let mut factors = Vec::new();
        for w in s.windows(2) {
            // Adjacent Ks may not be exact doublings; normalize the ratio to
            // a per-doubling exponent.
            let k_ratio = ks[factors.len() + 1] as f64 / ks[factors.len()] as f64;
            let t_ratio = (w[1] / w[0]).max(1e-9);
            factors.push(t_ratio.powf(1.0 / k_ratio.log2()));
        }
        let g = rambo_workloads::stats::geo_mean(&factors);
        growth.row(&[
            (*label).to_string(),
            format!("{g:.2}x"),
            theory[i].to_string(),
        ]);
    }
    println!("{growth}");
    println!("shape check: COBS growth > RAMBO growth > Inverted growth.");
}
