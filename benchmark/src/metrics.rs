//! Names and units of every metric, in one place. `BENCHMARK.json` lists the
//! same names; a unit test holds the two together.

/// End-to-end metrics: what a user of the index sees. The same five on every
/// workload, measured with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("index_bytes_per_doc", "B"),
    ("fp_docs_per_op", "docs"),
];

/// Per-layer metrics of the traced run. A workload reports 0 for a layer it
/// does no work in.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("kmer.extract_s", "s"),
    ("kmer.mkmers_per_s", "M/s"),
    ("kmer.kmers", "count"),
    ("hash.pair_ns_per_term", "ns"),
    ("core.pipeline.hash_s", "s"),
    ("core.pipeline.apply_s", "s"),
    ("core.pipeline.producer_stall_ms", "ms"),
    ("core.pipeline.writer_stall_ms", "ms"),
    ("core.pipeline.inserts", "count"),
    ("core.batch.insert_s", "s"),
    ("core.serialize.to_bytes_s", "s"),
    ("core.serialize.open_view_us", "us"),
    ("server.catalog.build_s", "s"),
    ("bitvec.kernel.and_rows_ns_per_word", "ns"),
    ("core.query.full_us_per_op", "us"),
    ("core.query.full_p99_us", "us"),
    ("core.query.sparse_us_per_op", "us"),
    ("core.query.seq_theta_us_per_op", "us"),
    ("core.query.docs_returned_per_op", "docs"),
    ("core.query.us_per_op.k1000", "us"),
    ("core.query.us_per_op.k4000", "us"),
    ("core.query.us_per_op.k16000", "us"),
    ("core.query.k_exponent", "1"),
    ("core.batch.query_us_per_op", "us"),
    ("core.batch.speedup_vs_percall", "x"),
    ("server.handle.query_us_per_op", "us"),
    ("server.scheduler.inline_share", "1"),
    ("server.scheduler.batches", "count"),
    ("server.cache.hit_ratio", "1"),
    ("server.cache.hits", "count"),
    ("server.cache.hit_us_per_op", "us"),
    ("server.tcp.rtt_p50_us", "us"),
    ("server.tcp.rtt_p99_us", "us"),
    ("server.tcp.idle_wait_us", "us"),
    ("server.tcp.saturated_us_per_op", "us"),
    ("server.tcp.saturated_overhead_us_per_op", "us"),
    ("server.tcp.rejected", "count"),
    ("core.generations.insert_us_per_doc", "us"),
    ("core.generations.query_us_per_op", "us"),
    ("core.generations.seals", "count"),
    ("core.generations.merges", "count"),
    ("core.generations.merge_s", "s"),
    ("core.generations.count", "count"),
    ("server.tenant.query_us_per_op", "us"),
    ("server.tenant.insert_us_per_doc", "us"),
    ("server.resp.read_p50_us", "us"),
    ("server.resp.read_p99_us", "us"),
    ("server.resp.write_p50_us", "us"),
    ("server.resp.idle_wait_us", "us"),
    ("server.resp.saturated_us_per_op", "us"),
    ("server.resp.saturated_overhead_us_per_op", "us"),
    ("trace.onion_self_sum_us_per_op", "us"),
    ("trace.onion_residual_share", "1"),
    ("trace.overhead_share", "1"),
    ("trace.spans", "count"),
    ("proc.cpu_s", "s"),
    ("proc.peak_rss_mb", "MiB"),
];

/// The per-layer metrics of one traced run, every name present from the
/// start so that a layer a workload never enters reads 0.
pub struct LayerMetrics(Vec<(&'static str, f64)>);

impl LayerMetrics {
    pub fn zeroed() -> Self {
        Self(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// # Panics
    /// Panics on a name that is not in [`PER_LAYER`]: a misspelt metric must
    /// not vanish silently.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = value;
    }

    pub fn into_vec(self) -> Vec<(&'static str, f64)> {
        self.0
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this file name the same metrics with the same
    /// units, and the four workloads.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section ends")];
            assert_eq!(body.matches("\"name\"").count(), table.len(), "{section}");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
        for w in crate::WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
