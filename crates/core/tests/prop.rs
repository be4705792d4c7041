//! Property-based tests for the RAMBO index invariants.
//!
//! These pin the paper's §4 claims under randomized workloads:
//! zero false negatives (always), RAMBO+ ≡ RAMBO (sparse evaluation is an
//! optimization, not an approximation), fold-over soundness, and the
//! losslessness of sharded construction.

use proptest::prelude::*;
use rambo_core::{
    build_sharded_parallel, IngestPipeline, QueryBatch, QueryContext, QueryMode, Rambo, RamboParams,
};
use std::sync::Arc;

/// A random archive: documents with disjoint private terms plus a shared
/// pool so multiplicity V > 1 occurs.
#[derive(Debug, Clone)]
struct Archive {
    docs: Vec<(String, Vec<u64>)>,
}

fn archive_strategy(max_docs: usize) -> impl Strategy<Value = Archive> {
    (2..max_docs, 1usize..40, 0usize..10).prop_map(|(k, private, shared)| {
        let docs = (0..k)
            .map(|d| {
                let base = (d as u64) << 32;
                let mut terms: Vec<u64> = (0..private as u64).map(|t| base | t).collect();
                // Shared terms drawn from a small pool → realistic V.
                terms.extend((0..shared as u64).map(|s| 0xABCD_0000 + (s % 5)));
                terms.dedup();
                (format!("doc-{d}"), terms)
            })
            .collect();
        Archive { docs }
    })
}

fn build(params: RamboParams, archive: &Archive) -> Rambo {
    let mut r = Rambo::new(params).unwrap();
    for (name, terms) in &archive.docs {
        r.insert_document(name, terms.iter().copied()).unwrap();
    }
    r
}

/// Does document `d` (appear to) hold `term`, straight from the definition:
/// in every repetition, the BFU of the document's bucket has all η bits of
/// the term's hash pair set. Shares no code with the planned probe.
fn holds(idx: &Rambo, d: u32, term: u64) -> bool {
    (0..idx.repetitions()).all(|rep| {
        let bucket = idx.bucket_of(rep, d) as usize;
        idx.bfu_contains_pair(rep, bucket, idx.hash_u64_rep(rep, term))
    })
}

/// Write `idx` to a scratch file and reopen it paged (payload left on disk);
/// also returns the bytes the record occupied.
fn reopen_paged(idx: &Rambo) -> (Rambo, u64) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "rambo-prop-paged-{}-{}.cat",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::write(&path, idx.to_bytes().unwrap()).unwrap();
    let file = rambo_bitvec::PagedFile::open(&path, 1 << 20).unwrap();
    let counters = Arc::new(rambo_bitvec::BlockCacheCounters::new());
    let opened = Rambo::open_paged_at(&file, 0, &counters).unwrap();
    std::fs::remove_file(&path).unwrap();
    opened
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// §4.1: "RAMBO cannot report false negatives" — for any geometry and
    /// any archive, every document is returned for every term it contains.
    #[test]
    fn zero_false_negatives(
        archive in archive_strategy(20),
        b in 2u64..20,
        r in 1usize..5,
        seed in any::<u64>(),
    ) {
        let idx = build(RamboParams::flat(b, r, 1 << 12, 2, seed), &archive);
        for (d, (_, terms)) in archive.docs.iter().enumerate() {
            for &t in terms {
                prop_assert!(
                    idx.query_u64(t).contains(&(d as u32)),
                    "doc {d} missing for term {t:#x} (B={b}, R={r})"
                );
            }
        }
    }

    /// RAMBO+ sparse evaluation returns exactly the full evaluation's result.
    #[test]
    fn sparse_equals_full(
        archive in archive_strategy(16),
        b in 2u64..16,
        r in 1usize..5,
        seed in any::<u64>(),
        probes in proptest::collection::vec(any::<u64>(), 1..30),
    ) {
        let idx = build(RamboParams::flat(b, r, 1 << 11, 2, seed), &archive);
        // Mix of absent terms (random u64s) and present terms.
        let mut all_probes = probes;
        all_probes.extend(archive.docs.iter().flat_map(|(_, ts)| ts.iter().take(2).copied()));
        for t in all_probes {
            prop_assert_eq!(
                idx.query_terms_u64(&[t], QueryMode::Full),
                idx.query_terms_u64(&[t], QueryMode::Sparse),
                "modes disagree on {:#x}", t
            );
        }
    }

    /// Folding never loses a document (no false negatives survive folding)
    /// and result sets only grow (false positives may be added, never
    /// removed).
    #[test]
    fn folding_is_monotone(
        archive in archive_strategy(14),
        seed in any::<u64>(),
    ) {
        let idx = build(RamboParams::flat(16, 2, 1 << 12, 2, seed), &archive);
        let folded = idx.folded(2).unwrap();
        prop_assert_eq!(folded.buckets(), 4);
        for (_, terms) in &archive.docs {
            for &t in terms.iter().take(3) {
                let before = idx.query_u64(t);
                let after = folded.query_u64(t);
                for d in &before {
                    prop_assert!(after.contains(d), "fold dropped doc {d} for {t:#x}");
                }
            }
        }
    }

    /// Sharded build + stack ≡ monolithic build with the same seed, at the
    /// level of query answers (name sets), for any node layout.
    #[test]
    fn sharded_stack_answers_match_monolithic(
        archive in archive_strategy(14),
        nodes in 2u64..5,
        local_b in 2u64..5,
        seed in any::<u64>(),
    ) {
        let params = RamboParams::two_level(nodes, local_b, 2, 1 << 11, 2, seed);
        let stacked = build_sharded_parallel(params, archive.docs.clone()).unwrap();
        let mono = build(params, &archive);
        for (_, terms) in &archive.docs {
            for &t in terms.iter().take(2) {
                let mut a: Vec<&str> = stacked.resolve_names(&stacked.query_u64(t));
                let mut b: Vec<&str> = mono.resolve_names(&mono.query_u64(t));
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "answers diverge on {:#x}", t);
            }
        }
    }

    /// Serialization roundtrips the exact structure for random archives and
    /// fold levels.
    #[test]
    fn serialization_roundtrip(
        archive in archive_strategy(12),
        folds in 0u32..2,
        seed in any::<u64>(),
    ) {
        let mut idx = build(RamboParams::flat(8, 2, 1 << 10, 2, seed), &archive);
        idx.fold_times(folds).unwrap();
        let back = Rambo::from_bytes(&idx.to_bytes().unwrap()).unwrap();
        prop_assert_eq!(idx, back);
    }

    /// Every way a whole document enters an index is `hash_document` →
    /// `apply_hashed`, and each entry point produces an index
    /// **bit-identical** to the Algorithm-1 loop (`add_document` +
    /// `insert_term_u64` per term) — full structural equality via
    /// `PartialEq`, same `total_inserts` — for any geometry and any documents,
    /// duplicate-bearing and empty term lists included:
    /// [`Rambo::insert_document_batch`]; the split called apart, with the
    /// plan's cache-resident (unsorted) and large-table (sorted) row order;
    /// and [`IngestPipeline::build`] then [`IngestPipeline::ingest`] into the
    /// non-empty result.
    #[test]
    fn batch_insertion_bit_identical_to_term_at_a_time(
        term_lists in proptest::collection::vec(proptest::collection::vec(0u64..48, 0..60), 1..14),
        b in 2u64..16,
        r in 1usize..5,
        eta in 1u32..=4,
        seed in any::<u64>(),
        split in any::<proptest::sample::Index>(),
    ) {
        const M: usize = 1 << 11;
        let docs: Vec<(String, Vec<u64>)> = term_lists
            .into_iter()
            .enumerate()
            .map(|(d, terms)| (format!("doc-{d}"), terms))
            .collect();
        let params = RamboParams::flat(b, r, M, eta, seed);
        let mut serial = Rambo::new(params).unwrap();
        for (name, terms) in &docs {
            let d = serial.add_document(name).unwrap();
            for &t in terms {
                serial.insert_term_u64(d, t).unwrap();
            }
        }

        let mut batch = Rambo::new(params).unwrap();
        for (name, terms) in &docs {
            batch.insert_document_batch(name, terms).unwrap();
        }
        prop_assert_eq!(&serial, &batch, "insert_document_batch");
        prop_assert_eq!(serial.total_inserts(), batch.total_inserts());

        // A plan is valid for any index of the same (R, m, η, seed); one
        // taken from an index whose tables reach 24 MiB sorts its row blocks.
        let wide = (24 << 20) * 8 / M as u64;
        let sorting = Rambo::new(RamboParams::flat(wide, r, M, eta, seed)).unwrap().hash_plan();
        prop_assert!(format!("{sorting:?}").contains("sort_rows: true"));
        for (plan, what) in [(batch.hash_plan(), "unsorted plan"), (sorting, "sorted plan")] {
            let mut split_apart = Rambo::new(params).unwrap();
            for (name, terms) in &docs {
                split_apart.apply_hashed(&plan.hash_document(name, terms)).unwrap();
            }
            prop_assert_eq!(&serial, &split_apart, "hash_document → apply_hashed, {}", what);
            prop_assert_eq!(serial.total_inserts(), split_apart.total_inserts());
        }

        let (head, tail) = docs.split_at(split.index(docs.len()));
        let (mut piped, built) = IngestPipeline::new().build(params, head.iter().cloned()).unwrap();
        let ingested = IngestPipeline::new().ingest(&mut piped, tail.iter().cloned()).unwrap();
        prop_assert_eq!(&serial, &piped, "pipeline build of {} + ingest of {}", head.len(), tail.len());
        prop_assert_eq!(serial.total_inserts(), piped.total_inserts());
        prop_assert_eq!((built.docs + ingested.docs) as usize, docs.len());
        prop_assert_eq!(built.terms + ingested.terms, serial.total_inserts());
    }

    /// [`QueryBatch`] returns exactly what per-call
    /// [`Rambo::query_terms_with`] returns, in both evaluation modes, for
    /// single- and multi-term queries with repeats (scratch reuse).
    #[test]
    fn query_batch_equals_per_call(
        archive in archive_strategy(14),
        seed in any::<u64>(),
        probes in proptest::collection::vec(any::<u64>(), 1..20),
    ) {
        let idx = build(RamboParams::flat(8, 3, 1 << 11, 2, seed), &archive);
        let mut queries: Vec<Vec<u64>> = archive
            .docs
            .iter()
            .map(|(_, ts)| ts.iter().take(3).copied().collect())
            .collect();
        queries.extend(probes.into_iter().map(|t| vec![t]));
        queries.push(queries[0].clone()); // repeated query
        for mode in [QueryMode::Full, QueryMode::Sparse] {
            let mut ctx = QueryContext::new();
            let expected: Vec<_> = queries
                .iter()
                .map(|q| idx.query_terms_with(q, mode, &mut ctx))
                .collect();
            let mut qb = QueryBatch::new(&idx);
            prop_assert_eq!(qb.run(&queries, mode), expected, "mode {:?}", mode);
        }
    }

    /// The zero-copy load path is bit-identical to the copying one: for any
    /// archive, geometry and fold level, `open_view` answers every query
    /// (Full and Sparse, present and absent terms) exactly like the
    /// `from_bytes` copy — while actually borrowing the input buffer.
    #[test]
    fn open_view_equals_from_bytes(
        archive in archive_strategy(12),
        b in 2u64..12,
        r in 1usize..4,
        folds in 0u32..2,
        seed in any::<u64>(),
        probes in proptest::collection::vec(any::<u64>(), 1..15),
    ) {
        let mut idx = build(RamboParams::flat(b << folds, r, 1 << 10, 2, seed), &archive);
        idx.fold_times(folds).unwrap();
        let buf: Arc<[u8]> = idx.to_bytes().unwrap().into();
        if !(buf.as_ptr() as usize).is_multiple_of(8) {
            continue; // 32-bit Arc layouts may misalign the payload; the
                      // loader correctly errors there (see store.rs tests)
        }
        let owned = Rambo::from_bytes(&buf).unwrap();
        let view = Rambo::open_view(buf.clone()).unwrap();
        prop_assert!(view.is_view());
        prop_assert!(view.payload_borrows(&buf), "view must borrow, not copy");
        prop_assert!(!owned.payload_borrows(&buf));
        prop_assert_eq!(&view, &owned);
        let mut all_probes = probes;
        all_probes.extend(archive.docs.iter().flat_map(|(_, ts)| ts.iter().take(2).copied()));
        let mut ctx_o = QueryContext::new();
        let mut ctx_v = QueryContext::new();
        for &t in &all_probes {
            for mode in [QueryMode::Full, QueryMode::Sparse] {
                prop_assert_eq!(
                    owned.query_terms_with(&[t], mode, &mut ctx_o),
                    view.query_terms_with(&[t], mode, &mut ctx_v),
                    "mode {:?} term {:#x}", mode, t
                );
            }
        }
        // Multi-term queries too.
        let q: Vec<u64> = all_probes.iter().take(4).copied().collect();
        prop_assert_eq!(
            owned.query_terms_with(&q, QueryMode::Full, &mut ctx_o),
            view.query_terms_with(&q, QueryMode::Full, &mut ctx_v)
        );
    }

    /// Fuzz the view loader with corrupted buffers: truncations at every
    /// depth, shifted (misaligned) payloads, and random byte flips must all
    /// return errors or decode to a structurally valid index — never panic
    /// and never exhibit UB (the suite runs under the normal test harness,
    /// so a crash here is a failure).
    #[test]
    fn open_view_fuzz_returns_errors_not_ub(
        archive in archive_strategy(8),
        seed in any::<u64>(),
        cut in any::<proptest::sample::Index>(),
        flip_at in any::<proptest::sample::Index>(),
        flip_to in any::<u8>(),
        shift in 1usize..8,
    ) {
        let idx = build(RamboParams::flat(6, 2, 1 << 9, 2, seed), &archive);
        let bytes = idx.to_bytes().unwrap();

        // Truncation at an arbitrary depth.
        let cut_len = cut.index(bytes.len());
        let truncated: Arc<[u8]> = bytes[..cut_len].to_vec().into();
        prop_assert!(Rambo::open_view(truncated).is_err());

        // Shifted buffer: everything (including word payloads) lands at the
        // wrong offset; must error (bad magic or misalignment), not crash.
        let mut shifted = vec![0u8; shift];
        shifted.extend_from_slice(&bytes);
        let _ = Rambo::open_view(shifted.clone().into());
        let arc: Arc<[u8]> = shifted.into();
        let _ = Rambo::open_view_at(&arc, shift);

        // Random single-byte corruption: either an error or a valid decode
        // (flips inside the word payload or a name are legal content).
        let mut flipped = bytes.clone();
        let at = flip_at.index(flipped.len());
        flipped[at] = flip_to;
        if let Ok(view) = Rambo::open_view(flipped.into()) {
            // Whatever decoded must be internally consistent enough to query.
            let _ = view.query_u64(0xF00D);
        }
    }

    /// Fold/shard interplay: [`rambo_core::ShardedRambo::stack`] followed
    /// by `fold_once` is **bit-identical** to folding the equivalent
    /// monolithic two-level build with the same seed. Fold-over OR-s bucket
    /// `b` with `b + B/2`; stacking places node `n`'s buckets at
    /// `n·b_local`; the two compose only because stacking reproduces the
    /// monolithic layout exactly — this pins that composition (§5.3's
    /// "preserves all the mathematical properties" claim, one step further
    /// than the stack ≡ monolithic test in the sharded module).
    #[test]
    fn stack_then_fold_equals_monolithic_fold(
        archive in archive_strategy(24),
        nodes in 2u64..5,
        local in 2u64..6,
        folds in 1u32..3,
        seed in any::<u64>(),
    ) {
        let total = nodes * local;
        // Folding `folds` times needs divisibility and ≥ 4 buckets at every
        // intermediate step.
        prop_assume!(total.is_multiple_of(1 << folds) && (total >> folds) >= 2 && total >= 4);
        let p = RamboParams::two_level(nodes, local, 2, 1 << 10, 2, seed);

        // Sharded: route, ingest per node, stack.
        let mut sharded = rambo_core::ShardedRambo::new(p).unwrap();
        let mut by_node: Vec<Vec<&(String, Vec<u64>)>> = vec![Vec::new(); nodes as usize];
        for doc in &archive.docs {
            by_node[sharded.route(&doc.0) as usize].push(doc);
        }
        for (name, terms) in &archive.docs {
            sharded.ingest_document(name, terms.iter().copied()).unwrap();
        }
        let mut stacked = sharded.stack().unwrap();

        // Monolithic reference, inserted in node-major order so document ids
        // align with the stacked renumbering.
        let mut mono = Rambo::new(p).unwrap();
        for node_docs in by_node {
            for (name, terms) in node_docs {
                mono.insert_document(name, terms.iter().copied()).unwrap();
            }
        }
        prop_assert_eq!(&stacked, &mono, "stacking must be lossless pre-fold");

        stacked.fold_times(folds).unwrap();
        mono.fold_times(folds).unwrap();
        prop_assert_eq!(&stacked, &mono, "fold after stack must equal monolithic fold");

        // And the folded index still has zero false negatives.
        for (d, (_, terms)) in archive.docs.iter().take(4).enumerate() {
            let id = stacked.document_id(&archive.docs[d].0).unwrap();
            if let Some(&t) = terms.first() {
                prop_assert!(stacked.query_u64(t).contains(&id));
            }
        }
    }

    /// Pipelined ingestion ([`IngestPipeline::build`], the worker pool) is
    /// **bit-identical** to Algorithm 1 term at a time — full structural
    /// equality and the same insert count — for any bucket count, for
    /// R ∈ {1, 2, 3, 5}, and for archives with duplicate terms and empty
    /// documents; its report counts what went in. (The pool-size and
    /// row-order sweep of the same property is `pipeline_pool_equals_algorithm_1`
    /// in `src/pipeline.rs`, where the test hooks are visible.)
    #[test]
    fn pipelined_build_bit_identical_to_sequential(
        archive in archive_strategy(16),
        extra in proptest::collection::vec(proptest::collection::vec(0u64..32, 0..40), 0..4),
        b in 2u64..16,
        r in proptest::sample::select(vec![1usize, 2, 3, 5]),
        seed in any::<u64>(),
    ) {
        let mut docs = archive.docs;
        let at = docs.len();
        docs.extend(extra.into_iter().enumerate().map(|(i, terms)| (format!("extra-{i}"), terms)));
        docs.push((format!("empty-{at}"), Vec::new()));
        let params = RamboParams::flat(b, r, 1 << 11, 2, seed);
        let mut reference = Rambo::new(params).unwrap();
        for (name, terms) in &docs {
            let d = reference.add_document(name).unwrap();
            for &t in terms {
                reference.insert_term_u64(d, t).unwrap();
            }
        }
        let (piped, report) = IngestPipeline::new()
            .build(params, docs.iter().cloned())
            .unwrap();
        prop_assert_eq!(&reference, &piped);
        prop_assert_eq!(reference.total_inserts(), piped.total_inserts());
        prop_assert_eq!(report.docs as usize, docs.len());
        prop_assert_eq!(report.terms, reference.total_inserts());
    }

    /// RRR-compressed storage is lossless: for any archive, geometry and
    /// fold level, compressing every table answers each query (Full and
    /// Sparse, present and absent terms) **bit-identically** to the dense
    /// original — and the compressed index round-trips through v2
    /// serialization back to logical equality.
    #[test]
    fn rrr_compressed_index_equals_dense(
        archive in archive_strategy(12),
        b in 2u64..12,
        r in 1usize..4,
        folds in 0u32..2,
        seed in any::<u64>(),
        probes in proptest::collection::vec(any::<u64>(), 1..15),
    ) {
        let mut dense = build(RamboParams::flat(b << folds, r, 1 << 10, 2, seed), &archive);
        dense.fold_times(folds).unwrap();
        let mut compressed = dense.clone();
        compressed.compress_to_rrr();
        prop_assert!(compressed.is_compressed());
        prop_assert_eq!(&compressed, &dense, "logical equality across backends");

        let mut all_probes = probes;
        all_probes.extend(archive.docs.iter().flat_map(|(_, ts)| ts.iter().take(2).copied()));
        let mut ctx_d = QueryContext::new();
        let mut ctx_c = QueryContext::new();
        for &t in &all_probes {
            for mode in [QueryMode::Full, QueryMode::Sparse] {
                prop_assert_eq!(
                    dense.query_terms_with(&[t], mode, &mut ctx_d),
                    compressed.query_terms_with(&[t], mode, &mut ctx_c),
                    "mode {:?} term {:#x}", mode, t
                );
            }
        }
        let q: Vec<u64> = all_probes.iter().take(4).copied().collect();
        prop_assert_eq!(
            dense.query_terms_with(&q, QueryMode::Full, &mut ctx_d),
            compressed.query_terms_with(&q, QueryMode::Full, &mut ctx_c)
        );

        // v2 roundtrip of the compressed form decodes back to equality.
        let back = Rambo::from_bytes(&compressed.to_bytes().unwrap()).unwrap();
        prop_assert_eq!(&back, &dense);
    }

    /// The paged (file-backed) load path answers every query exactly like
    /// the in-memory copy, for fuzzed archives, geometries and fold levels:
    /// block-cache faulting may never change a bit of any result.
    #[test]
    fn paged_load_equals_in_memory(
        archive in archive_strategy(10),
        b in 2u64..10,
        r in 1usize..4,
        folds in 0u32..2,
        seed in any::<u64>(),
        probes in proptest::collection::vec(any::<u64>(), 1..10),
    ) {
        let mut idx = build(RamboParams::flat(b << folds, r, 1 << 10, 2, seed), &archive);
        idx.fold_times(folds).unwrap();
        let (paged, used) = reopen_paged(&idx);
        prop_assert_eq!(used, idx.to_bytes().unwrap().len() as u64);
        prop_assert_eq!(&paged, &idx, "paged index must equal the source");

        let mut all_probes = probes;
        all_probes.extend(archive.docs.iter().flat_map(|(_, ts)| ts.iter().take(2).copied()));
        let mut ctx_m = QueryContext::new();
        let mut ctx_p = QueryContext::new();
        for &t in &all_probes {
            for mode in [QueryMode::Full, QueryMode::Sparse] {
                prop_assert_eq!(
                    idx.query_terms_with(&[t], mode, &mut ctx_m),
                    paged.query_terms_with(&[t], mode, &mut ctx_p),
                    "mode {:?} term {:#x}", mode, t
                );
            }
        }
        let q: Vec<u64> = all_probes.iter().take(4).copied().collect();
        prop_assert_eq!(
            idx.query_terms_with(&q, QueryMode::Full, &mut ctx_m),
            paged.query_terms_with(&q, QueryMode::Full, &mut ctx_p)
        );
    }

    /// Every query verb equals its definition on every storage backend.
    /// AND queries (Full and Sparse) return exactly the documents that hold
    /// every term; θ queries (Full: bucket-count filter-then-verify, Sparse:
    /// term-at-a-time) return exactly the documents holding at least
    /// `⌈θ·n⌉` terms counted with multiplicity. Queries carry repeated and
    /// absent terms; geometry sweeps η and bucket counts that are not a
    /// multiple of the word size. Each document's terms are also cycled into
    /// long AND windows (33 and 80 terms, and 80 ending on an absent term),
    /// so long row plans run through the RRR and paged sort-and-dedupe path
    /// and an early exit can only come from the last rows.
    #[test]
    fn every_verb_matches_the_definition_on_every_backend(
        archive in archive_strategy(10),
        b in 2u64..150,
        r in 1usize..4,
        eta in 1u32..=4,
        seed in any::<u64>(),
        absent in proptest::collection::vec(any::<u64>(), 1..4),
        tenths in 1u32..=10,
    ) {
        let dense = build(RamboParams::flat(b, r, 1 << 10, eta, seed), &archive);
        let bytes: Arc<[u8]> = dense.to_bytes().unwrap().into();
        let mut rrr = dense.clone();
        rrr.compress_to_rrr();
        let (paged, _) = reopen_paged(&dense);
        prop_assert!(rrr.is_compressed() && paged.tables_paged());
        let mut backends = vec![("dense", &dense), ("rrr", &rrr), ("paged", &paged)];
        // 32-bit Arc layouts may misalign the payload; the loader errors there.
        let view = Rambo::open_view(bytes).ok();
        if let Some(view) = &view {
            backends.push(("view", view));
        }

        let theta = f64::from(tenths) / 10.0;
        let k = archive.docs.len() as u32;
        let mut ctx = QueryContext::new();
        for (i, (_, terms)) in archive.docs.iter().enumerate() {
            // A window of the document's terms with one repeated, then the
            // same window with an absent term in the middle.
            let mut present: Vec<u64> = terms.iter().take(4).copied().collect();
            present.push(terms[0]);
            let mut perturbed = present.clone();
            perturbed.insert(2, absent[i % absent.len()]);
            let cycled = |len| terms.iter().copied().cycle().take(len).collect::<Vec<u64>>();
            let mut absent_last = cycled(80);
            absent_last[79] = absent[0];
            for q in [&present, &perturbed, &cycled(33), &cycled(80), &absent_last] {
                let all: Vec<u32> = (0..k).filter(|&d| q.iter().all(|&t| holds(&dense, d, t))).collect();
                let needed = (theta * q.len() as f64).ceil() as usize;
                let enough: Vec<u32> = (0..k)
                    .filter(|&d| q.iter().filter(|&&t| holds(&dense, d, t)).count() >= needed)
                    .collect();
                for (name, idx) in &backends {
                    for mode in [QueryMode::Full, QueryMode::Sparse] {
                        prop_assert_eq!(
                            &idx.query_terms_with(q, mode, &mut ctx), &all,
                            "{} {:?} AND {:x?}", name, mode, q
                        );
                        prop_assert_eq!(
                            &idx.query_sequence_theta(q, theta, mode, &mut ctx), &enough,
                            "{} {:?} theta {} {:x?}", name, mode, theta, q
                        );
                    }
                }
            }
        }
    }

    /// Multi-term queries (Algorithm 2 semantics) always contain every
    /// document holding *all* the queried terms.
    #[test]
    fn multi_term_no_false_negatives(
        archive in archive_strategy(12),
        seed in any::<u64>(),
    ) {
        let idx = build(RamboParams::flat(8, 3, 1 << 12, 2, seed), &archive);
        for (d, (_, terms)) in archive.docs.iter().enumerate() {
            let q: Vec<u64> = terms.iter().take(4).copied().collect();
            let joint = idx.query_terms_u64(&q, QueryMode::Full);
            prop_assert!(joint.contains(&(d as u32)));
            let seq = idx.query_sequence_u64(&q, QueryMode::Full);
            prop_assert!(seq.contains(&(d as u32)));
            // Algorithm-2 semantics at least as selective as term-at-a-time.
            prop_assert!(joint.iter().all(|x| seq.contains(x)));
        }
    }
}
