//! Shared harness machinery for the table/figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index), except `storage_cold`, which
//! records the cold tiers no `benchmark/` workload measures yet. This
//! library holds what they share:
//! the paper's parameter grids, index-suite construction with build timing,
//! query timing loops, and a tiny CLI-argument parser (no external
//! dependency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rambo_baselines::{
    BitSlicedIndex, CompactBitSliced, MembershipIndex, RamboIndex, RamboPlusIndex, Sbt, SplitSbt,
};
use rambo_core::{Rambo, RamboParams};
use rambo_workloads::timing::time;
use std::time::Duration;

/// The paper's Table 2 parameter grid: `(files, B)` with `B ∈
/// {15, 27, 60, 100, 200}` for `K ∈ {100, 200, 500, 1000, 2000}`.
#[must_use]
pub fn paper_buckets_for(k: usize) -> u64 {
    match k {
        0..=100 => 15,
        101..=200 => 27,
        201..=500 => 60,
        501..=1000 => 100,
        _ => {
            // Extend the paper's grid by its own rule B = O(√K): the listed
            // constants track ≈ 4.5·√K / √10.
            let exact = [
                (100u64, 15u64),
                (200, 27),
                (500, 60),
                (1000, 100),
                (2000, 200),
            ];
            if let Some(&(_, b)) = exact.iter().find(|&&(kk, _)| kk == k as u64) {
                b
            } else {
                ((k as f64).sqrt() * 4.5).round() as u64
            }
        }
    }
}

/// RAMBO parameters for a Table-2-style run: the paper's `B` grid, `R = 2`
/// for McCortex-style input or `R = 3` for FASTQ-style, BFU bits sized by
/// the §5.1 pooling method at per-BFU FPR 1%.
#[must_use]
pub fn paper_rambo_params(k: usize, mean_terms: usize, fastq: bool, seed: u64) -> RamboParams {
    paper_rambo_params_with_fpr(k, mean_terms, fastq, 0.01, seed)
}

/// [`paper_rambo_params`] with an explicit per-BFU FPR target. The scaling
/// harness passes `p ≤ 1/B`, the assumption under which Theorem 4.5's
/// `O(√K log K)` holds (the `B·p` false-bucket term of Lemma 4.4 stays
/// constant instead of growing with `B`).
#[must_use]
pub fn paper_rambo_params_with_fpr(
    k: usize,
    mean_terms: usize,
    fastq: bool,
    p: f64,
    seed: u64,
) -> RamboParams {
    let b = paper_buckets_for(k);
    let r = if fastq { 3 } else { 2 };
    let per_bucket = (((k as f64 / b as f64) * mean_terms as f64) * rambo_core::theory::gamma(b, 2))
        .ceil()
        .max(64.0) as usize;
    RamboParams::flat(b, r, rambo_bloom::params::optimal_m(per_bucket, p), 2, seed)
}

/// One built index with its construction time.
pub struct BuiltIndex {
    /// The index behind the common query interface.
    pub index: Box<dyn MembershipIndex>,
    /// Wall-clock construction time.
    pub build_time: Duration,
}

/// Build the full Table 2 suite over a document batch: RAMBO, RAMBO+, COBS
/// (compact), COBS(uniform)=BIGSI, SBT, SSBT and HowDeSBT-like. `heavy_trees`
/// can be disabled for large K where the SBT family would dominate harness
/// runtime (mirroring the paper, where HowDeSBT runs out of RAM past 500
/// files).
#[must_use]
pub fn build_suite(
    docs: &[(String, Vec<u64>)],
    mean_terms: usize,
    fastq: bool,
    seed: u64,
    heavy_trees: bool,
) -> Vec<BuiltIndex> {
    let k = docs.len();
    let mut out: Vec<BuiltIndex> = Vec::new();

    let params = paper_rambo_params(k, mean_terms, fastq, seed);
    // Built on the calling thread, like the COBS/BIGSI/SBT builds its
    // construction-time column is compared against.
    let (rambo, t) = time(|| build_rambo(params, docs));
    out.push(BuiltIndex {
        index: Box::new(RamboIndex::new(rambo.clone())),
        build_time: t,
    });
    out.push(BuiltIndex {
        index: Box::new(RamboPlusIndex::new(rambo)),
        build_time: t,
    });

    let (cobs, t) = time(|| CompactBitSliced::build(docs, (k / 8).max(8), 0.01, 3, seed));
    out.push(BuiltIndex {
        index: Box::new(cobs),
        build_time: t,
    });
    let (bigsi, t) = time(|| BitSlicedIndex::build_auto(docs, 0.01, 3, seed));
    out.push(BuiltIndex {
        index: Box::new(bigsi),
        build_time: t,
    });

    if heavy_trees {
        // Tree filter size: fit the largest document at 1% (the SBT-family
        // constraint of one size for all nodes).
        let max_n = docs.iter().map(|(_, t)| t.len()).max().unwrap_or(1).max(1);
        let m = rambo_bloom::params::optimal_m(max_n, 0.01);
        let (sbt, t) = time(|| Sbt::build(docs, m, 1, seed));
        out.push(BuiltIndex {
            index: Box::new(sbt),
            build_time: t,
        });
        let (ssbt, t) = time(|| SplitSbt::build(docs, m, 1, seed, false));
        out.push(BuiltIndex {
            index: Box::new(ssbt),
            build_time: t,
        });
        let (howde, t) = time(|| SplitSbt::build(docs, m, 1, seed, true));
        out.push(BuiltIndex {
            index: Box::new(howde),
            build_time: t,
        });
    }
    out
}

/// Build a RAMBO index from a batch, one document at a time on the calling
/// thread.
#[must_use]
pub fn build_rambo(params: RamboParams, docs: &[(String, Vec<u64>)]) -> Rambo {
    let mut r = Rambo::new(params).expect("valid params");
    for (name, terms) in docs {
        r.insert_document_batch(name, terms).expect("unique names");
    }
    r
}

/// Synthetic ENA-like archive with an explicit mean terms-per-document —
/// the workload `storage_cold` builds (σ is set to a third of the mean,
/// matching the archives the paper's experiments sample).
#[must_use]
pub fn archive_with_mean_terms(
    docs: usize,
    mean_terms: usize,
    seed: u64,
) -> rambo_workloads::SyntheticArchive {
    let mut params = rambo_workloads::ArchiveParams::tiny(docs, seed);
    params.mean_terms = mean_terms;
    params.std_terms = mean_terms / 3;
    rambo_workloads::SyntheticArchive::generate(&params)
}

/// An absent probe term (outside every synthetic document's term range).
fn absent_term(i: usize) -> u64 {
    0xDEAD_0000_0000u64 + i as u64
}

/// Sliding `window`-term queries over the archive's documents (at most
/// `per_doc` windows each, filling 9/10 of `n`), padded to exactly `n` with
/// absent single-term probes. Adjacent queries share `window − 1` terms —
/// the §3.3.1 sequence-query shape.
#[must_use]
pub fn window_queries(
    archive: &rambo_workloads::SyntheticArchive,
    window: usize,
    per_doc: usize,
    n: usize,
) -> Vec<Vec<u64>> {
    let mut queries: Vec<Vec<u64>> = Vec::with_capacity(n);
    'outer: for (_, terms) in &archive.docs {
        if terms.len() < window {
            continue;
        }
        for w in terms.windows(window).take(per_doc) {
            queries.push(w.to_vec());
            if queries.len() == n * 9 / 10 {
                break 'outer;
            }
        }
    }
    while queries.len() < n {
        queries.push(vec![absent_term(queries.len())]);
    }
    queries
}

/// Exit with the conventional usage status (2) when any size/count flag is
/// zero: a zero-sized run measures nothing and would otherwise panic deep
/// inside index construction with a far less useful message. List-valued
/// flags pass each element (an empty list should be rejected by the caller
/// with `(flag, 0)`).
pub fn require_nonzero(bin: &str, flags: &[(&str, usize)]) {
    for (flag, v) in flags {
        if *v == 0 {
            eprintln!("{bin}: {flag} must be >= 1 (a zero-sized run measures nothing)");
            std::process::exit(2);
        }
    }
}

/// Mean microseconds per item of a workload that processed `n` items.
#[must_use]
pub fn us_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Time a query workload: mean wall time per query over `terms`.
#[must_use]
pub fn mean_query_time(index: &dyn MembershipIndex, terms: &[u64]) -> Duration {
    assert!(!terms.is_empty());
    let (_, total) = time(|| {
        let mut touched = 0usize;
        for &t in terms {
            touched += index.query_term(t).len();
        }
        touched
    });
    total / terms.len() as u32
}

/// Minimal JSON-object writer for the machine-readable `BENCH_storage.json`
/// artifact `storage_cold` emits (no external JSON dependency; keys keep
/// insertion order so diffs stay readable).
#[derive(Debug, Default)]
pub struct JsonReport {
    fields: Vec<(String, String)>,
}

impl JsonReport {
    /// Start a report for the named benchmark.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        let mut r = Self::default();
        r.str("bench", bench);
        r
    }

    /// Add a string field (JSON-escaped, including all control characters).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        use std::fmt::Write;
        let mut escaped = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                '\r' => escaped.push_str("\\r"),
                '\t' => escaped.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    write!(escaped, "\\u{:04x}", c as u32).expect("string write");
                }
                c => escaped.push(c),
            }
        }
        self.fields
            .push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Add an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add a float field. Values at or above 1e-3 in magnitude use fixed
    /// 6-decimal notation (stable across runs for diffing); smaller non-zero
    /// values switch to scientific notation so they are not flattened to
    /// `0.000000`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let rendered = if value == 0.0 || value.abs() >= 1e-3 {
            format!("{value:.6}")
        } else {
            format!("{value:.6e}")
        };
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Render the JSON object.
    #[must_use]
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{k}\": {v}"))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Add a duration ratio field: the wall-time speedup of `candidate`
    /// over `baseline` (>1 means `candidate` was faster).
    pub fn ratio(&mut self, key: &str, baseline: Duration, candidate: Duration) -> &mut Self {
        self.num(
            key,
            baseline.as_secs_f64() / candidate.as_secs_f64().max(1e-12),
        )
    }

    /// Write the report to `path` and echo it to stdout.
    ///
    /// # Panics
    /// Panics when the file cannot be written.
    pub fn finish(&self, path: &str) {
        let rendered = self.render();
        print!("{rendered}");
        std::fs::write(path, rendered).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
}

/// Minimal `--key value` argument parser for the harness binaries.
#[derive(Debug)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parse `std::env::args()`.
    #[must_use]
    pub fn parse() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            if let Some(key) = argv[i].strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    pairs.push((key.to_string(), argv[i + 1].clone()));
                    i += 2;
                } else {
                    pairs.push((key.to_string(), "true".to_string()));
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Self { pairs }
    }

    /// Look up a `usize` flag.
    #[must_use]
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Look up a `u64` flag.
    #[must_use]
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Look up an `f64` flag.
    #[must_use]
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Raw lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Comma-separated usize list.
    #[must_use]
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.get(key) {
            None => default.to_vec(),
            Some(v) => v.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambo_workloads::{ArchiveParams, SyntheticArchive};

    #[test]
    fn paper_bucket_grid_matches_table2() {
        assert_eq!(paper_buckets_for(100), 15);
        assert_eq!(paper_buckets_for(200), 27);
        assert_eq!(paper_buckets_for(500), 60);
        assert_eq!(paper_buckets_for(1000), 100);
        assert_eq!(paper_buckets_for(2000), 200);
        // Extrapolation stays √K-shaped.
        let b4000 = paper_buckets_for(4000);
        assert!((250..350).contains(&(b4000 as usize)), "B(4000) = {b4000}");
    }

    #[test]
    fn suite_builds_and_answers() {
        let archive = SyntheticArchive::generate(&ArchiveParams::tiny(30, 5));
        let suite = build_suite(&archive.docs, 200, false, 5, true);
        assert_eq!(suite.len(), 7);
        let probe = archive.docs[3].1[0];
        for built in &suite {
            assert!(
                built.index.query_term(probe).contains(&3),
                "{} lost the probe",
                built.index.label()
            );
            assert!(built.index.size_bytes() > 0);
        }
    }

    #[test]
    fn mean_query_time_is_positive() {
        let archive = SyntheticArchive::generate(&ArchiveParams::tiny(10, 6));
        let suite = build_suite(&archive.docs, 200, false, 6, false);
        let terms: Vec<u64> = archive.docs.iter().map(|(_, t)| t[0]).collect();
        for built in &suite {
            let d = mean_query_time(built.index.as_ref(), &terms);
            assert!(d.as_nanos() > 0);
        }
    }
}
