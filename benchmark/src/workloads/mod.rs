//! The four workloads and what they share.

pub mod archive_build;
pub mod query_direct;
pub mod serve_wire;
pub mod tenant_mixed;

use crate::metrics::LayerMetrics;
use crate::oracle::Tally;
use crate::stats::{median_ops_per_s, quantile_us, Slice};
use crate::trace::Tracer;
use std::time::Duration;

/// `--seconds` this benchmark's op counts are written for: at this value
/// the timed phases of every workload take about that long on two cores of
/// the reference box. Another value scales the number of slices, never the
/// work inside one sample.
const REFERENCE_SECONDS: u64 = 10;

/// Fewest timed slices of a phase, after the one that is thrown away
/// (rule 5).
const MIN_SLICES: usize = 7;

/// Set-ups per run. `setup_s` is their median, and every one of them is
/// measured on: the timed slices are spread over the instances (rule 8).
pub const SETUPS: usize = 5;

/// Queries run straight after each set-up, inside `setup_s`, so that set-up
/// work a change defers to the first request is still counted as set-up.
pub const SETUP_PROBE_OPS: usize = 200;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
}

impl RunConfig {
    /// Timed slices of a phase that has `at_reference` of them at the
    /// reference `--seconds`; `--quick` runs three.
    pub fn slices(&self, at_reference: usize) -> usize {
        if self.quick {
            return 3;
        }
        let scaled = at_reference as u64 * self.seconds / REFERENCE_SECONDS;
        (scaled as usize).max(MIN_SLICES)
    }

    /// Timed slices on each of the [`SETUPS`] instances of a phase that has
    /// `at_reference` slices in all at the reference `--seconds`.
    pub fn slices_per_instance(&self, at_reference: usize) -> usize {
        self.slices(at_reference).div_ceil(SETUPS)
    }

    /// Ops of a phase that is not sliced (a latency phase): `full` at the
    /// reference `--seconds`, in proportion at another.
    pub fn phase_ops(&self, full: usize) -> usize {
        self.ops(full) * self.seconds as usize / REFERENCE_SECONDS as usize
    }

    /// Documents of a corpus; `--quick` builds a quarter of them.
    pub fn docs(&self, full: usize) -> usize {
        if self.quick {
            full / 4
        } else {
            full
        }
    }

    /// Work per slice or phase; `--quick` does a tenth of it.
    pub fn ops(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// What one run of one workload hands back.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
    /// Sizes and op counts for the provenance line.
    pub sizes: String,
}

/// The five end-to-end numbers every workload reports.
pub struct EndToEnd {
    pub setup_s: f64,
    pub op_p50_us: f64,
    pub ops_per_s: f64,
    pub index_bytes_per_doc: f64,
    pub fp_docs_per_op: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_s),
            ("op_p50_us", self.op_p50_us),
            ("ops_per_s", self.ops_per_s),
            ("index_bytes_per_doc", self.index_bytes_per_doc),
            ("fp_docs_per_op", self.fp_docs_per_op),
        ]
    }
}

/// Timed samples of a closed single-threaded loop: per-op times and slices.
#[derive(Default)]
pub struct Samples {
    pub op_ns: Vec<u32>,
    pub slices: Vec<Slice>,
}

impl Samples {
    pub fn push_slice(&mut self, op_ns: &[u32], elapsed: Duration) {
        self.op_ns.extend_from_slice(op_ns);
        self.slices.push(Slice {
            ops: op_ns.len(),
            elapsed,
        });
    }

    pub fn p50_us(&self) -> f64 {
        quantile_us(&self.op_ns, 0.5)
    }

    pub fn ops_per_s(&self) -> f64 {
        median_ops_per_s(&self.slices)
    }
}

pub fn clamp_ns(d: Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// CPU seconds (user + system) this process has used, from
/// `/proc/self/stat` at the usual 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after the name.
    let after = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The onion budget: print each layer's total and self time per op (`ops` of
/// them passed through the outermost surface), and report how far the self
/// times are from adding up to what that surface observed. `layers` run from
/// the inside out. `nested` says the layers run one inside the other on one
/// thread; where the program overlaps them on two threads the self times are
/// work done, not shares of the elapsed time, and add up to more.
pub fn finish_trace(
    m: &mut LayerMetrics,
    tracer: &Tracer,
    ops: usize,
    outer_us_per_op: f64,
    layers: &[&str],
    nested: bool,
) {
    let times = tracer.layer_times();
    let outer = layers.last().expect("at least one layer");
    let ops = ops as f64;
    println!(
        "onion budget, µs per op of {outer} ({} spans):",
        tracer.len()
    );
    let mut self_sum = 0.0;
    for layer in layers {
        let t = times.get(layer).copied().unwrap_or_default();
        let total = t.total_ns as f64 / 1e3 / ops;
        let own = t.self_ns as f64 / 1e3 / ops;
        // A layer cannot take less than no time: a negative self time means
        // an inner replay ran slower than the outer one saw it run.
        self_sum += own.max(0.0);
        println!("  {layer:<18} total {total:>9.3}  self {own:>9.3}");
    }
    let residual = (self_sum - outer_us_per_op).abs() / outer_us_per_op;
    let verdict = match (nested, residual <= 0.10) {
        (true, true) => "within the 10 % allowed",
        (true, false) => "OVER the 10 % allowed",
        (false, _) => "the layers overlap on two threads, so this is work per op, not elapsed time",
    };
    println!(
        "  self times add up to {self_sum:.3} of {outer_us_per_op:.3} observed ({:.1} % apart: {verdict})",
        residual * 100.0
    );
    m.set("trace.onion_self_sum_us_per_op", self_sum);
    m.set("trace.onion_residual_share", residual);
    m.set("trace.spans", tracer.len() as f64);
    m.set("proc.cpu_s", cpu_seconds());
    m.set("proc.peak_rss_mb", peak_rss_mb());
}
