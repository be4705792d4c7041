//! **§5.3 reproduction** — distributed construction: thread-parallel sharded
//! builds, stacking losslessness, and scaling with the number of simulated
//! nodes.
//!
//! The paper's claim is architectural: with the two-level hash, 100 nodes
//! ingest 460K files with **zero** inter-node communication, and stacking
//! the per-node structures reproduces the monolithic index exactly. We
//! verify the exactness on every run and report the wall-clock scaling over
//! worker threads (bounded by physical cores, unlike the paper's cluster).
//!
//! Keep `total-b / nodes ≥ 64`: each node's matrix rows round up to whole
//! 64-bit words, so smaller node-local bucket counts make the shards pay
//! word-granularity padding and memory traffic that erases the parallel win.
//!
//! ```text
//! cargo run -p rambo-bench --release --bin cluster_scaling -- \
//!     [--docs 2000] [--terms 2000] [--total-b 1024] [--reps 3] [--seed 7] \
//!     [--nodes 1,2,4,8,16]
//! ```

use rambo_bench::Args;
use rambo_core::{build_sharded_parallel, Rambo, RamboParams};
use rambo_workloads::timing::{human_duration, time};
use rambo_workloads::{ArchiveParams, SyntheticArchive, Table};

fn main() {
    let args = Args::parse();
    let k = args.get_usize("docs", 2000);
    let mean_terms = args.get_usize("terms", 2000);
    let total_b = args.get_u64("total-b", 1024);
    let reps = args.get_usize("reps", 3);
    let seed = args.get_u64("seed", 7);
    let node_counts = args.get_usize_list("nodes", &[1, 2, 4, 8, 16]);
    rambo_bench::require_nonzero(
        "cluster_scaling",
        &[
            ("--docs", k),
            ("--terms", mean_terms),
            ("--total-b", total_b as usize),
            ("--reps", reps),
            ("--nodes", node_counts.iter().copied().min().unwrap_or(0)),
        ],
    );

    println!("RAMBO reproduction — §5.3 cluster construction (simulated nodes)");
    println!("workload: {k} docs x ~{mean_terms} terms, global B = {total_b}, R = {reps}\n");

    let mut p = ArchiveParams::ena_like(k, 1.0 / 2000.0, seed);
    p.mean_terms = mean_terms;
    p.std_terms = mean_terms / 2;
    let archive = SyntheticArchive::generate(&p);
    let per_bucket = ((k as f64 / total_b as f64) * mean_terms as f64 * 1.2)
        .ceil()
        .max(64.0) as usize;
    let bfu_bits = rambo_bloom::params::optimal_m(per_bucket, 0.01);

    // Single-thread monolithic reference (also the correctness oracle).
    let mono_params = RamboParams::two_level(1, total_b, reps, bfu_bits, 2, seed);
    let (_, mono_time) = time(|| {
        let mut r = Rambo::new(mono_params).expect("params");
        for (name, terms) in &archive.docs {
            r.insert_document_batch(name, terms).expect("unique");
        }
        r
    });
    println!(
        "monolithic single-thread build: {}",
        human_duration(mono_time)
    );
    println!(
        "host parallelism: {} hardware threads (speedup saturates there)\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    );

    let mut table = Table::new(
        "sharded build scaling",
        &["nodes", "build time", "speedup", "stack == monolithic BFUs"],
    );
    for &n in &node_counts {
        let n = n as u64;
        if !total_b.is_multiple_of(n) {
            continue;
        }
        let params = RamboParams::two_level(n, total_b / n, reps, bfu_bits, 2, seed);
        let (stacked, t) =
            time(|| build_sharded_parallel(params, archive.docs.clone()).expect("sharded build"));
        // Lossless-stacking check: identical BFU bit patterns as a
        // same-seed monolithic build with the same node layout.
        let mut mono = Rambo::new(params).expect("params");
        for (name, terms) in &archive.docs {
            mono.insert_document(name, terms.iter().copied())
                .expect("unique");
        }
        let mut identical = true;
        'check: for rep in 0..reps {
            for b in 0..total_b as usize {
                if stacked.bfu_bits(rep, b) != mono.bfu_bits(rep, b) {
                    identical = false;
                    break 'check;
                }
            }
        }
        table.row(&[
            n.to_string(),
            human_duration(t),
            format!("{:.2}x", mono_time.as_secs_f64() / t.as_secs_f64()),
            if identical {
                "yes".into()
            } else {
                "NO — BUG".to_string()
            },
        ]);
    }
    println!("{table}");
    println!("shape checks vs paper (§5.3):");
    println!("  * every row must say 'yes' — stacking is lossless by construction;");
    println!("  * speedup grows with nodes until physical cores saturate (the paper's");
    println!("    100-node, 1-hour construction of 460K files is this same curve).");
}
