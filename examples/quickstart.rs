//! Quickstart: build a RAMBO index over a handful of documents and query it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use rambo::core::{QueryMode, Rambo, RamboBuilder};

fn main() {
    // Size the index from workload estimates (§5.1 pooling method): the
    // builder derives B = √(KV/η), R = log K, and BFU bits for the target
    // per-BFU false-positive rate.
    let mut index: Rambo = RamboBuilder::new()
        .expected_documents(4)
        .expected_terms_per_doc(8)
        .target_fpr(0.01)
        .seed(42)
        .build()
        .expect("valid parameters");

    // Documents are named sets of terms. Any u64 term works: packed k-mers,
    // word ids, feature hashes...
    let archive: &[(&str, &[u64])] = &[
        ("genome-alpha", &[10, 11, 12, 13, 99]),
        ("genome-beta", &[20, 21, 22, 23, 99]),
        ("genome-gamma", &[30, 31, 32, 33, 99]),
        ("genome-delta", &[40, 41, 42, 43]),
    ];
    for (name, terms) in archive {
        index
            .insert_document(name, terms.iter().copied())
            .expect("unique document names");
    }

    // Single-term membership: which documents contain term 21?
    let hits = index.query_u64(21);
    println!("term 21 -> {:?}", index.resolve_names(&hits));
    assert!(index.resolve_names(&hits).contains(&"genome-beta"));

    // A term shared by several documents returns all of them — with zero
    // false negatives, guaranteed.
    let hits = index.query_u64(99);
    println!("term 99 -> {:?}", index.resolve_names(&hits));
    assert!(hits.len() >= 3);

    // Multi-term (Algorithm 2): the documents holding every term.
    let joint = index.query_terms_u64(&[30, 31, 32], QueryMode::Full);
    println!("terms {{30,31,32}} -> {:?}", index.resolve_names(&joint));

    // Absent terms (almost always) return nothing.
    let miss = index.query_u64(777_777);
    println!("term 777777 -> {:?}", index.resolve_names(&miss));

    println!(
        "index: K={} documents, B={} buckets x R={} repetitions, {} bytes",
        index.num_documents(),
        index.buckets(),
        index.repetitions(),
        index.size_bytes()
    );
}
