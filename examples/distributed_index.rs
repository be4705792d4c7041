//! The §5.3 cluster workflow on one machine: shard documents over simulated
//! nodes with the two-level hash, ingest in parallel, stack losslessly,
//! serialize, then fold the index down to smaller footprints.
//!
//! ```text
//! cargo run --release --example distributed_index
//! ```

use rambo::core::{build_sharded_parallel, QueryMode, Rambo, RamboParams};
use rambo::workloads::{ArchiveParams, SyntheticArchive};

const NODES: u64 = 8;
const LOCAL_BUCKETS: u64 = 32;
const REPETITIONS: usize = 4;

fn main() {
    // A synthetic archive standing in for a batch of ENA accessions.
    let mut params = ArchiveParams::ena_like(600, 1.0 / 20_000.0, 31);
    params.mean_terms = 2_000;
    params.std_terms = 1_000;
    let archive = SyntheticArchive::generate(&params);
    println!(
        "archive: {} documents, {:.0} mean distinct k-mers",
        archive.len(),
        archive.mean_terms()
    );

    // Shard over 8 simulated nodes: τ routes each document to a node, the
    // node-local φᵢ picks its BFU; global bucket = b·τ(D) + φᵢ(D).
    let bfu_bits = rambo::bloom::params::optimal_m(
        (archive.len() as f64 / (NODES * LOCAL_BUCKETS) as f64 * 2_000.0 * 1.3) as usize,
        0.01,
    );
    let rambo_params =
        RamboParams::two_level(NODES, LOCAL_BUCKETS, REPETITIONS, bfu_bits, 2, 0xC1C1);

    let start = std::time::Instant::now();
    let index =
        build_sharded_parallel(rambo_params, archive.docs.clone()).expect("sharded build succeeds");
    println!(
        "parallel build on {NODES} simulated nodes: {:?} (B = {} x R = {REPETITIONS})",
        start.elapsed(),
        index.buckets(),
    );

    // Verify stacking is lossless: a single-machine build with the same seed
    // produces byte-identical BFU columns.
    let mut mono = Rambo::new(rambo_params).expect("params");
    for (name, terms) in &archive.docs {
        mono.insert_document(name, terms.iter().copied())
            .expect("unique");
    }
    for rep in 0..REPETITIONS {
        for b in 0..index.buckets() as usize {
            assert_eq!(
                index.bfu_bits(rep, b),
                mono.bfu_bits(rep, b),
                "stacking must be lossless"
            );
        }
    }
    println!("stacked == monolithic: verified bit-for-bit");

    // Serialize / reload.
    let bytes = index.to_bytes().expect("stacked index serializes");
    let mut reloaded = Rambo::from_bytes(&bytes).expect("roundtrip");
    println!("serialized index: {:.2} MB", bytes.len() as f64 / 1e6);

    // Fold twice (Figure 3): size shrinks, FPR grows, no false negatives.
    let probe_doc = &archive.docs[123];
    let probe_id = reloaded.document_id(&probe_doc.0).expect("doc registered");
    for fold in 0..3 {
        let hits = reloaded.query_u64(probe_doc.1[0]);
        assert!(hits.contains(&probe_id), "owner lost at fold {fold}");
        println!(
            "fold x{}: B = {:>3}, {:>10} bytes, owner-of-probe found, {} total hits",
            1 << fold,
            reloaded.buckets(),
            reloaded.size_bytes(),
            hits.len()
        );
        if fold < 2 {
            reloaded.fold_once().expect("fold available");
        }
    }

    // Batch queries fan out over threads (queries are embarrassingly
    // parallel, §1.1).
    let queries: Vec<u64> = archive.docs.iter().map(|(_, t)| t[0]).collect();
    let start = std::time::Instant::now();
    let results = reloaded.query_batch_parallel(&queries, QueryMode::Full, 8);
    println!(
        "batch of {} queries on 8 threads: {:?} ({} non-empty)",
        queries.len(),
        start.elapsed(),
        results.iter().filter(|r| !r.is_empty()).count()
    );
}
