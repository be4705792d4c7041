//! Cluster planning: partition a corpus into node-local shards whose
//! scatter-gather union is bit-identical to the stacked monolith.
//!
//! The correctness argument rests on the two-level hash
//! ([`rambo_core::PartitionScheme::TwoLevel`]): global bucket =
//! `local_buckets · τ(doc) + φ(doc)`, so each node owns a *disjoint slice*
//! of the global bucket space and [`rambo_core::ShardedRambo::stack`]
//! copies the slices verbatim. A node-local shard's query answer is
//! therefore exactly the monolith's answer restricted to that node's
//! documents — identical false positives included, because no other node's
//! insertions ever touch its buckets. Document ids in the stacked monolith
//! are node-major (all of node 0's docs, then node 1's, …), so a
//! coordinator recovers global ids by adding each shard's `doc_lo` offset,
//! and concatenating the (sorted, node-local) per-shard answers in shard
//! order yields the monolith's sorted answer directly.

use rambo_core::{DocId, Rambo, RamboError, RamboParams, ShardedRambo};

/// A corpus partitioned for cluster serving, plus the monolithic oracle.
#[derive(Debug)]
pub struct ClusterPlan {
    /// Node-local shards in node order; deploy each behind a [`crate::ShardNode`]
    /// (replicate by deploying clones of the same shard).
    pub shards: Vec<Rambo>,
    /// Global (node-major) doc-id range `[lo, hi)` served by each shard.
    pub ranges: Vec<(DocId, DocId)>,
    /// The stacked monolithic index — the bit-identity oracle for tests
    /// and benchmarks.
    pub monolith: Rambo,
}

/// Partition `docs` across the nodes of a two-level `params` geometry,
/// returning the node-local shards, their global doc-id ranges, and the
/// stacked monolith built from the *same* ingestion order.
///
/// # Errors
/// Propagates parameter validation and ingestion errors; `params` must use
/// [`rambo_core::PartitionScheme::TwoLevel`].
pub fn plan_cluster(
    params: RamboParams,
    docs: &[(String, Vec<u64>)],
) -> Result<ClusterPlan, RamboError> {
    let mut sharded = ShardedRambo::new(params)?;
    for (name, terms) in docs {
        sharded.ingest_document(name, terms.iter().copied())?;
    }
    let shards: Vec<Rambo> = (0..sharded.nodes())
        .map(|node| sharded.shard(node).clone())
        .collect();
    let mut ranges = Vec::with_capacity(shards.len());
    let mut lo: DocId = 0;
    for shard in &shards {
        let hi = lo + shard.num_documents() as DocId;
        ranges.push((lo, hi));
        lo = hi;
    }
    let monolith = sharded.stack()?;
    Ok(ClusterPlan {
        shards,
        ranges,
        monolith,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambo_core::QueryMode;

    fn corpus(n: u64) -> Vec<(String, Vec<u64>)> {
        (0..n)
            .map(|d| (format!("doc{d}"), (0..30).map(|t| d << 16 | t).collect()))
            .collect()
    }

    #[test]
    fn ranges_are_contiguous_and_cover_the_corpus() {
        let docs = corpus(40);
        let plan = plan_cluster(RamboParams::two_level(3, 8, 3, 1 << 12, 2, 11), &docs).unwrap();
        assert_eq!(plan.shards.len(), 3);
        let mut expect_lo = 0;
        for &(lo, hi) in &plan.ranges {
            assert_eq!(lo, expect_lo);
            assert!(hi >= lo);
            expect_lo = hi;
        }
        assert_eq!(expect_lo as usize, docs.len());
        assert_eq!(plan.monolith.num_documents(), docs.len());
    }

    #[test]
    fn offset_union_matches_monolith() {
        let docs = corpus(48);
        let plan = plan_cluster(RamboParams::two_level(4, 8, 3, 1 << 12, 2, 13), &docs).unwrap();
        for d in [0u64, 7, 23, 47] {
            let terms: Vec<u64> = (0..5).map(|t| d << 16 | t).collect();
            let mut union: Vec<DocId> = Vec::new();
            for (shard, &(lo, _)) in plan.shards.iter().zip(&plan.ranges) {
                union.extend(
                    shard
                        .query_terms_u64(&terms, QueryMode::Full)
                        .into_iter()
                        .map(|local| lo + local),
                );
            }
            let mono = plan.monolith.query_terms_u64(&terms, QueryMode::Full);
            assert_eq!(union, mono, "term set of doc{d}");
        }
    }
}
