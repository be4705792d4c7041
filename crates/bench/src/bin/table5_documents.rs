//! **Table 5 reproduction** — document (text) indexing: Wiki-dump-like and
//! ClueWeb09-like corpora, RAMBO vs COBS vs HowDeSBT-like.
//!
//! Paper (Table 5): on Wiki-dump (17.6K docs) RAMBO answers in 0.074ms with
//! a 51MB index built in 1.75s, vs COBS 0.523ms / 157MB / 2.71s and HowDe
//! 3.781ms / 6.43GB / 101m. On ClueWeb (50K docs) RAMBO and COBS converge
//! (0.58 vs 0.56ms) with RAMBO smaller (62MB vs 88MB).
//!
//! Paper parameters reproduced: Wiki B = 1000, R = 2, BFU = 200,000 bits;
//! ClueWeb B = 5000, R = 3, BFU = 20,000 bits. The corpora are Zipfian
//! synthetics calibrated to ~650/~450 distinct terms per document; `--scale`
//! shrinks the document counts for quick runs (BFU bits scale with K/B).
//!
//! ```text
//! cargo run -p rambo-bench --release --bin table5_documents -- \
//!     [--scale 0.1] [--queries 400] [--seed 7] [--trees true]
//! ```

use rambo_baselines::{CompactBitSliced, MembershipIndex, RamboIndex, SplitSbt};
use rambo_bench::{build_rambo, mean_query_time, Args};
use rambo_core::RamboParams;
use rambo_text::{CorpusParams, ZipfCorpus};
use rambo_workloads::timing::{human_bytes, human_duration, time};
use rambo_workloads::{PlantedQueries, Table};

struct DatasetSpec {
    label: &'static str,
    corpus: CorpusParams,
    buckets: u64,
    reps: usize,
    bfu_bits: usize,
}

fn main() {
    let args = Args::parse();
    let scale = args.get_f64("scale", 0.1);
    let n_queries = args.get_usize("queries", 400);
    let seed = args.get_u64("seed", 7);
    let with_trees = args.get("trees").is_none_or(|v| v != "false");
    rambo_bench::require_nonzero("table5_documents", &[("--queries", n_queries)]);
    if scale <= 0.0 {
        eprintln!("table5_documents: --scale must be > 0 (a zero-scale corpus has no documents)");
        std::process::exit(2);
    }

    println!("RAMBO reproduction — Table 5 (document indexing)");
    println!("scale = {scale} of the paper's corpus sizes\n");

    let scale_b = |b: u64| ((b as f64 * scale).round() as u64).max(4);
    let scale_bits = |m: usize| ((m as f64).round() as usize).max(1024);
    let specs = [
        DatasetSpec {
            label: "Wiki-dump",
            corpus: CorpusParams::wiki(scale, seed),
            buckets: scale_b(1000),
            reps: 2,
            bfu_bits: scale_bits(200_000),
        },
        DatasetSpec {
            label: "ClueWeb09",
            corpus: CorpusParams::clueweb(scale, seed),
            buckets: scale_b(5000),
            reps: 3,
            bfu_bits: scale_bits(20_000),
        },
    ];

    let mut table = Table::new(
        "Table 5: QT (ms) / size / construction time",
        &["dataset", "index", "QT (ms)", "size", "CT"],
    );

    for spec in specs {
        let corpus = ZipfCorpus::generate(&spec.corpus);
        let k = corpus.docs.len();
        let mut docs: Vec<(String, Vec<u64>)> =
            corpus.docs.into_iter().map(|d| (d.name, d.terms)).collect();
        let planted = PlantedQueries::generate(n_queries, k, 100.0_f64.min(k as f64 / 2.0), seed);
        planted.plant_into(&mut docs);
        let terms: Vec<u64> = planted.queries.iter().map(|(t, _)| *t).collect();

        // RAMBO with the paper's per-dataset parameters.
        let params = RamboParams::flat(spec.buckets, spec.reps, spec.bfu_bits, 2, seed);
        let (rambo, rambo_ct) = time(|| build_rambo(params, &docs));
        let rambo = RamboIndex::new(rambo);

        let (cobs, cobs_ct) =
            time(|| CompactBitSliced::build(&docs, (k / 16).max(8), 0.01, 3, seed));

        let mut entries: Vec<(&dyn MembershipIndex, std::time::Duration)> =
            vec![(&rambo, rambo_ct), (&cobs, cobs_ct)];
        let howde_storage;
        if with_trees {
            let max_n = docs.iter().map(|(_, t)| t.len()).max().unwrap_or(1).max(1);
            let m_tree = rambo_bloom::params::optimal_m(max_n, 0.01);
            let (howde, howde_ct) = time(|| SplitSbt::build(&docs, m_tree, 1, seed, true));
            howde_storage = howde;
            entries.push((&howde_storage, howde_ct));
        }

        for (idx, ct) in entries {
            let qt = mean_query_time(idx, &terms);
            table.row(&[
                spec.label.to_string(),
                idx.label().to_string(),
                format!("{:.4}", qt.as_secs_f64() * 1e3),
                human_bytes(idx.size_bytes()),
                human_duration(ct),
            ]);
        }
    }
    println!("{table}");
    println!("shape checks vs paper (Table 5):");
    println!("  * Wiki: RAMBO clearly faster and smaller than COBS (paper: 7x QT, 3x size);");
    println!("  * ClueWeb: RAMBO and COBS converge on QT, RAMBO stays smaller;");
    println!("  * HowDe-like: orders of magnitude slower to build, larger index.");
}
