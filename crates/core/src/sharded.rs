//! Distributed construction (§5.3): "Smart parallelism — indexing the full
//! 170TB WGS dataset in 9 hours from scratch".
//!
//! The paper partitions the RAMBO data structure itself over 100 nodes: node
//! `τ(D)` owns document `D`, and inside the node the usual `φᵢ(D)` picks a
//! local BFU. Because the composed two-level map `b·τ(D) + φᵢ(D)` is again
//! 2-universal, *stacking* the per-node structures vertically yields exactly
//! the monolithic index — no inter-node communication, no repeated
//! installations ("this process preserves all the mathematical properties
//! and randomness in RAMBO").
//!
//! Here nodes are simulated by OS threads (see DESIGN.md, "Substitutions"
//! item 3): [`ShardedRambo`] owns one node-local shard per simulated machine,
//! [`ShardedRambo::build_parallel`] streams documents through per-node
//! channels exactly as the paper's router does, and [`ShardedRambo::stack`]
//! produces a monolithic [`Rambo`] that is **bit-for-bit identical** to a
//! single-machine build with the same seed (verified in the test suite).

use crate::error::RamboError;
use crate::index::{DocId, Rambo};
use crate::params::RamboParams;
use crate::partition::{derive_seeds, PartitionScheme, Resolver};
use crate::query::{QueryContext, QueryMode};
use rambo_hash::TwoLevelHash;

/// A RAMBO build split over `N` simulated nodes.
#[derive(Debug)]
pub struct ShardedRambo {
    params: RamboParams,
    router: TwoLevelHash,
    shards: Vec<Rambo>,
    local_buckets: u64,
}

impl ShardedRambo {
    /// Create the empty per-node shards. `params.partition` must be
    /// [`PartitionScheme::TwoLevel`].
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] for non-two-level layouts or degenerate
    /// dimensions.
    pub fn new(params: RamboParams) -> Result<Self, RamboError> {
        params.validate()?;
        let PartitionScheme::TwoLevel {
            nodes,
            local_buckets,
        } = params.partition
        else {
            return Err(RamboError::InvalidParams(
                "sharded construction requires a TwoLevel partition scheme".into(),
            ));
        };
        let seeds = derive_seeds(params.seed);
        let router =
            Resolver::shared_router(nodes, local_buckets, params.repetitions, seeds.partition);
        let shards = (0..nodes)
            .map(|node| {
                let local = RamboParams {
                    partition: PartitionScheme::Flat {
                        buckets: local_buckets,
                    },
                    ..params
                };
                Rambo::from_parts(
                    local,
                    Resolver::NodeLocal {
                        router: router.clone(),
                        node,
                    },
                    seeds.bloom,
                    local_buckets,
                )
            })
            .collect();
        Ok(Self {
            params,
            router,
            shards,
            local_buckets,
        })
    }

    /// Number of simulated nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.shards.len()
    }

    /// Which node owns a document name (`τ`).
    #[must_use]
    pub fn route(&self, name: &str) -> u64 {
        self.router.node_of(name.as_bytes())
    }

    /// A node's local shard — cloned out, the piece a *serving* cluster
    /// deploys. Each shard is a standalone [`Rambo`] over `local_buckets`
    /// buckets holding exactly the documents `τ` routed to that node,
    /// hashing with the shared router, so its answers are the monolithic
    /// index's answers restricted to its own documents: the two-level map
    /// gives every node a disjoint slice of the global bucket space, and
    /// [`ShardedRambo::stack`] copies those slices verbatim. Document ids
    /// are node-local (0.. per shard, in ingestion order); a coordinator
    /// recovers the stacked index's node-major global ids by offsetting with
    /// the cumulative document counts of earlier shards.
    ///
    /// # Panics
    /// Panics when `node` is out of range.
    #[must_use]
    pub fn shard(&self, node: usize) -> &Rambo {
        &self.shards[node]
    }

    /// Sequentially ingest one document on its owning node. Returns the node
    /// and the node-local document id.
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] if the name was already ingested.
    pub fn ingest_document(
        &mut self,
        name: &str,
        terms: impl IntoIterator<Item = u64>,
    ) -> Result<(u64, DocId), RamboError> {
        let node = self.route(name);
        let id = self.shards[node as usize].insert_document(name, terms)?;
        Ok((node, id))
    }

    /// Parallel ingestion: spawns one worker thread per node, routes each
    /// document through a channel to its owner (the paper's streaming
    /// setting), then stacks. This is the whole §5.3 pipeline.
    ///
    /// # Errors
    /// Propagates per-node ingestion failures and stacking failures.
    ///
    /// # Panics
    /// Panics if a worker thread panics.
    pub fn build_parallel(
        mut self,
        docs: impl IntoIterator<Item = (String, Vec<u64>)>,
    ) -> Result<Rambo, RamboError> {
        let shards = std::mem::take(&mut self.shards);
        let router = &self.router;
        let built: Result<Vec<Rambo>, RamboError> = std::thread::scope(|scope| {
            let mut txs = Vec::with_capacity(shards.len());
            let mut handles = Vec::with_capacity(shards.len());
            for mut shard in shards {
                let (tx, rx) = std::sync::mpsc::channel::<(String, Vec<u64>)>();
                txs.push(tx);
                handles.push(scope.spawn(move || -> Result<Rambo, RamboError> {
                    for (name, terms) in rx {
                        shard.insert_document_batch(&name, &terms)?;
                    }
                    Ok(shard)
                }));
            }
            for (name, terms) in docs {
                let node = router.node_of(name.as_bytes()) as usize;
                txs[node]
                    .send((name, terms))
                    .expect("worker hung up before end of stream");
            }
            drop(txs); // close channels; workers drain and return
            handles
                .into_iter()
                .map(|h| h.join().expect("node worker panicked"))
                .collect()
        });
        self.shards = built?;
        self.stack()
    }

    /// Stack the node shards vertically into the monolithic index
    /// (Figure 3). Global BFU index = `node·b + local`; document ids are
    /// renumbered node-major.
    ///
    /// # Errors
    /// [`RamboError::FoldUnavailable`] if any shard was folded before
    /// stacking (fold after stacking instead), or
    /// [`RamboError::DuplicateDocument`] if two shards somehow share a name.
    pub fn stack(self) -> Result<Rambo, RamboError> {
        let mut out = Rambo::new(self.params)?;
        let local_b = self.local_buckets;
        for (node, shard) in self.shards.into_iter().enumerate() {
            if shard.fold_factor() != 0 {
                return Err(RamboError::FoldUnavailable(
                    "shards must be stacked before folding".into(),
                ));
            }
            let offset = out.doc_names.len() as u32;
            for (local_id, name) in shard.doc_names.iter().enumerate() {
                let global = offset + local_id as u32;
                if out.name_index.insert(name.clone(), global).is_some() {
                    return Err(RamboError::DuplicateDocument(name.clone()));
                }
                out.doc_names.push(name.clone());
            }
            let bucket_base = node as u64 * local_b;
            for (dst, src) in out.tables.iter_mut().zip(shard.tables) {
                dst.assign
                    .extend(src.assign.iter().map(|&a| a + bucket_base as u32));
                for (lb, docs) in src.buckets.into_iter().enumerate() {
                    dst.buckets[bucket_base as usize + lb]
                        .extend(docs.into_iter().map(|d| d + offset));
                }
                dst.matrix
                    .copy_columns_from(&src.matrix, bucket_base as usize);
            }
            out.inserts += shard.inserts;
        }
        Ok(out)
    }
}

/// One-call §5.3 pipeline: shard, ingest in parallel, stack.
///
/// # Errors
/// See [`ShardedRambo::new`] and [`ShardedRambo::build_parallel`].
pub fn build_sharded_parallel(
    params: RamboParams,
    docs: impl IntoIterator<Item = (String, Vec<u64>)>,
) -> Result<Rambo, RamboError> {
    ShardedRambo::new(params)?.build_parallel(docs)
}

impl Rambo {
    /// Embarrassingly parallel batch querying (the paper: "RAMBO … is
    /// embarrassingly parallel for both insertion and query"). Splits the
    /// term batch over `threads` OS threads, each with its own
    /// [`QueryContext`]; results come back in input order.
    ///
    /// # Panics
    /// Panics if `threads == 0` or a worker thread panics.
    #[must_use]
    pub fn query_batch_parallel(
        &self,
        terms: &[u64],
        mode: QueryMode,
        threads: usize,
    ) -> Vec<Vec<DocId>> {
        assert!(threads > 0, "need at least one thread");
        if terms.is_empty() {
            return Vec::new();
        }
        let chunk = terms.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = terms
                .chunks(chunk)
                .map(|slice| {
                    scope.spawn(move || {
                        let mut ctx = QueryContext::new();
                        slice
                            .iter()
                            .map(|&t| self.query_terms_with(&[t], mode, &mut ctx))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("query worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(nodes: u64, local_b: u64, seed: u64) -> RamboParams {
        RamboParams::two_level(nodes, local_b, 3, 1 << 13, 2, seed)
    }

    fn make_docs(k: usize) -> Vec<(String, Vec<u64>)> {
        (0..k)
            .map(|d| {
                let base = (d as u64) << 20;
                (
                    format!("genome-{d:04}"),
                    (0..50u64).map(|t| base | t).collect(),
                )
            })
            .collect()
    }

    /// The §5.3 headline property: stacked sharded build == monolithic build,
    /// BFU for BFU, bit for bit.
    #[test]
    fn stacked_equals_monolithic() {
        let docs = make_docs(60);
        let p = params(4, 8, 11);

        // Sharded, sequential ingestion.
        let mut sharded = ShardedRambo::new(p).unwrap();
        for (name, terms) in &docs {
            sharded
                .ingest_document(name, terms.iter().copied())
                .unwrap();
        }
        let stacked = sharded.stack().unwrap();

        // Monolithic, same seed — inserted in node-major order to align doc
        // ids with the stacked renumbering.
        let probe = ShardedRambo::new(p).unwrap();
        let mut by_node: Vec<Vec<&(String, Vec<u64>)>> = vec![Vec::new(); 4];
        for doc in &docs {
            by_node[probe.route(&doc.0) as usize].push(doc);
        }
        let mut mono = Rambo::new(p).unwrap();
        for node_docs in by_node {
            for (name, terms) in node_docs {
                mono.insert_document(name, terms.iter().copied()).unwrap();
            }
        }
        assert_eq!(stacked, mono, "stacking must be lossless");
    }

    #[test]
    fn parallel_build_equals_sequential_shards() {
        let docs = make_docs(80);
        let p = params(5, 4, 23);

        let parallel = build_sharded_parallel(p, docs.clone()).unwrap();

        let mut sequential = ShardedRambo::new(p).unwrap();
        for (name, terms) in &docs {
            sequential
                .ingest_document(name, terms.iter().copied())
                .unwrap();
        }
        let sequential = sequential.stack().unwrap();

        // Same BFU bits regardless of thread interleaving (document order
        // within a node is preserved by the channel, so full equality holds).
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.num_documents(), 80);
    }

    #[test]
    fn queries_on_stacked_index_find_owners() {
        let docs = make_docs(40);
        let p = params(4, 4, 31);
        let idx = build_sharded_parallel(p, docs.clone()).unwrap();
        for (name, terms) in &docs {
            let id = idx.document_id(name).unwrap();
            for &t in terms.iter().take(3) {
                assert!(idx.query_u64(t).contains(&id), "{name} lost term {t:#x}");
            }
        }
    }

    #[test]
    fn routing_is_deterministic_and_balanced() {
        let s = ShardedRambo::new(params(8, 4, 1)).unwrap();
        let mut counts = [0usize; 8];
        for i in 0..800 {
            let name = format!("doc{i}");
            let n = s.route(&name);
            assert_eq!(n, s.route(&name));
            counts[n as usize] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            assert!((40..200).contains(&c), "node {node} got {c} docs");
        }
    }

    #[test]
    fn rejects_flat_layout() {
        let p = RamboParams::flat(16, 2, 1024, 2, 0);
        assert!(matches!(
            ShardedRambo::new(p),
            Err(RamboError::InvalidParams(_))
        ));
    }

    #[test]
    fn rejects_folded_shards_at_stack_time() {
        let mut s = ShardedRambo::new(params(2, 8, 3)).unwrap();
        for (name, terms) in make_docs(10) {
            s.ingest_document(&name, terms).unwrap();
        }
        s.shards[0].fold_once().unwrap();
        assert!(matches!(s.stack(), Err(RamboError::FoldUnavailable(_))));
    }

    #[test]
    fn stacked_index_can_fold_and_serialize() {
        let docs = make_docs(30);
        let p = params(4, 4, 7);
        let mut idx = build_sharded_parallel(p, docs.clone()).unwrap();
        idx.fold_once().unwrap();
        assert_eq!(idx.buckets(), 8);
        let back = Rambo::from_bytes(&idx.to_bytes().unwrap()).unwrap();
        assert_eq!(idx, back);
        // No false negatives post fold + roundtrip.
        let id = back.document_id("genome-0005").unwrap();
        assert!(back.query_u64((5u64 << 20) | 7).contains(&id));
    }

    #[test]
    fn node_local_shards_serialize_with_their_routing_context() {
        // Partition tag 2 (serialize.rs) carries the node-local routing
        // context, so each shard round-trips independently — the basis for
        // shipping a shard to its serving node (rambo-cluster).
        let mut s = ShardedRambo::new(params(2, 8, 9)).unwrap();
        for (name, terms) in make_docs(10) {
            s.ingest_document(&name, terms).unwrap();
        }
        for shard in &s.shards {
            let back = Rambo::from_bytes(&shard.to_bytes().unwrap()).unwrap();
            assert_eq!(*shard, back);
        }
    }

    #[test]
    fn parallel_batch_query_matches_serial() {
        let docs = make_docs(50);
        let idx = build_sharded_parallel(params(4, 4, 13), docs.clone()).unwrap();
        let terms: Vec<u64> = docs
            .iter()
            .flat_map(|(_, ts)| ts[..2].to_vec())
            .chain((0..20).map(|i| 0xF000_0000u64 + i))
            .collect();
        let serial: Vec<Vec<DocId>> = terms.iter().map(|&t| idx.query_u64(t)).collect();
        for threads in [1, 2, 4, 7] {
            let par = idx.query_batch_parallel(&terms, QueryMode::Full, threads);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }
}
