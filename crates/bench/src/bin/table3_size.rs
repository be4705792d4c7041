//! **Table 3 reproduction** — index size for the same sweep as Table 2.
//!
//! Paper shape: RAMBO takes at most `O(log K)` extra space over the optimal
//! array of Bloom filters (COBS); the SBT family pays for per-node filters
//! (HowDeSBT's RRR compression mitigates but does not close the gap at
//! FASTQ sizes: 92.5GB vs COBS-class sizes at 100 files).
//!
//! ```text
//! cargo run -p rambo-bench --release --bin table3_size -- \
//!     [--files 100,200,500,1000,2000] [--terms 1500] [--seed 7] [--tree-limit 500]
//! ```

use rambo_bench::{build_suite, Args};
use rambo_workloads::timing::human_bytes;
use rambo_workloads::{ArchiveParams, SyntheticArchive, Table};

fn main() {
    let args = Args::parse();
    let files = args.get_usize_list("files", &[100, 200, 500, 1000, 2000]);
    let mean_terms = args.get_usize("terms", 1500);
    let seed = args.get_u64("seed", 7);
    let tree_limit = args.get_usize("tree-limit", 500);
    rambo_bench::require_nonzero(
        "table3_size",
        &[
            ("--files", files.iter().copied().min().unwrap_or(0)),
            ("--terms", mean_terms),
        ],
    );

    println!("RAMBO reproduction — Table 3 (index size)\n");
    let mut table = Table::new(
        "Table 3: serialized index size",
        &[
            "#files",
            "RAMBO",
            "COBS",
            "BIGSI",
            "SBT",
            "SSBT",
            "HowDe~",
            "RAMBO/COBS",
        ],
    );

    for &k in &files {
        let mut p = ArchiveParams::ena_like(k, 1.0 / 2000.0, seed);
        p.mean_terms = mean_terms;
        p.std_terms = mean_terms / 2;
        let archive = SyntheticArchive::generate(&p);
        let actual_mean = archive.mean_terms().round() as usize;
        let suite = build_suite(&archive.docs, actual_mean, false, seed, k <= tree_limit);

        // Suite order: RAMBO, COBS, BIGSI, SBT, SSBT, HowDe~.
        let size_of = |label: &str| -> Option<usize> {
            suite
                .iter()
                .find(|b| b.index.label() == label)
                .map(|b| b.index.size_bytes())
        };
        let rambo = size_of("RAMBO").expect("always built");
        let cobs = size_of("COBS").expect("always built");
        let cell = |l: &str| size_of(l).map_or("-".to_string(), human_bytes);
        table.row(&[
            k.to_string(),
            human_bytes(rambo),
            human_bytes(cobs),
            cell("COBS(uniform)"),
            cell("SBT"),
            cell("SSBT"),
            cell("HowDeSBT~"),
            format!("{:.2}x", rambo as f64 / cobs as f64),
        ]);
    }
    println!("{table}");
    println!("shape checks vs paper:");
    println!("  * RAMBO/COBS ratio stays small and ~flat-to-log in K (paper: 1.3x-2.1x");
    println!("    on McCortex; worst case O(log K) over the optimal filter array).");
    println!("  * SBT-family sizes sit above the bit-sliced family (paper FASTQ:");
    println!("    HowDe 92.5GB / SSBT 9.5GB vs RAMBO 12.8GB at 100 files).");
}
