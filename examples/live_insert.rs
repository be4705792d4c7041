//! Live inserts: a mutable index as a one-tenant registry.
//!
//! The paper's pipeline is batch-shaped — crawl, build for a week, then
//! serve a frozen catalog. This example shows the online path layered on
//! top: a `TenantRegistry` tenant is one RAMBO matrix whose fixed `B × R`
//! grid absorbs each inserted document's bits (the paper's cheap streaming
//! update). It accepts inserts while answering queries bit-identically to a
//! from-scratch build, exposes the same over TCP via the binary `MUTATE`
//! opcode, reports its predicted FPR as it fills, and finally freezes the
//! accumulated documents into a regular fold-over `Catalog` through the
//! builder.
//!
//! ```text
//! cargo run --release --example live_insert
//! ```

use rambo::core::{QueryMode, RamboParams, TierCompression};
use rambo::server::{
    serve_tenant_tcp, Catalog, TcpClient, TenantOptions, TenantQuotas, TenantRegistry,
    TenantServeOptions, TenantStats,
};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};

const TENANT: &str = "samples";

/// A synthetic "sample": 32 private terms plus one shared marker term.
fn sample(i: u64) -> (String, Vec<u64>) {
    let mut terms: Vec<u64> = (0..32).map(|t| (i << 20) | t).collect();
    terms.push(0xC0FFEE);
    (format!("sample-{i}"), terms)
}

/// A tenant's shape: documents, bytes, and predicted FPR.
fn shape(stats: &TenantStats) -> String {
    format!(
        "{} docs in {} bytes, predicted fpr {:.3e}",
        stats.documents, stats.size_bytes, stats.predicted_fpr
    )
}

fn main() {
    let params = RamboParams::flat(32, 3, 1 << 13, 2, 42);
    let registry = TenantRegistry::new(params, TenantQuotas::default()).expect("valid geometry");
    registry
        .create(TENANT, TenantOptions::default())
        .expect("fresh tenant");
    let query = |terms: &[u64], mode| registry.query(TENANT, terms, mode).expect("tenant");

    // 1. In-process live inserts, queried as they land.
    for i in 0..20 {
        let (name, terms) = sample(i);
        let id = registry
            .insert_document(TENANT, &name, &terms)
            .expect("insert");
        assert!(query(&[terms[0]], None).contains(&id));
    }
    let snap = registry.stats(TENANT).expect("tenant");
    println!("after 20 inserts: {}", shape(&snap));

    // 2. The same tenant over TCP: the binary front's MUTATE opcode inserts,
    //    QUERY reads its own writes on the same connection. (The RESP front
    //    on the other listener serves every tenant by name.)
    let resp_listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let binary_listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = binary_listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let serve_options = TenantServeOptions {
        binary_tenant: Some(TENANT.to_owned()),
        ..TenantServeOptions::default()
    };
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_tenant_tcp(
                &registry,
                resp_listener,
                Some(binary_listener),
                &stop,
                &serve_options,
            )
        });
        let mut client = TcpClient::connect(addr).expect("connect");
        for i in 20..28 {
            let (name, terms) = sample(i);
            let id = client.insert_document(&name, &terms).expect("mutate");
            let reply = client
                .query(&[terms[0]], 1.0, std::time::Duration::from_secs(5))
                .expect("query");
            assert!(reply.docs.contains(&id));
            println!("tcp insert {name} -> id {id}");
        }
        // Duplicates are rejected in-protocol; the connection survives.
        let err = client.insert_document("sample-5", &[1]).unwrap_err();
        println!("duplicate rejected: {err}");
        println!("--- STATS frame ---\n{}", client.stats().expect("stats"));
        stop.store(true, Ordering::Relaxed);
        server.join().expect("join").expect("serve");
    });

    // 3. All 28 documents answer, in either evaluation mode.
    for i in 0..28 {
        let (_, terms) = sample(i);
        assert!(query(&[terms[7]], Some(QueryMode::Sparse)).contains(&(i as u32)));
    }
    assert_eq!(query(&[0xC0FFEE], None).len(), 28);

    // 4. Freeze the tenant into a fold-over catalog (32- and 16-bucket
    //    tiers) through the builder.
    let frozen = registry.freeze(TENANT).expect("snapshot");
    let catalog = Catalog::builder()
        .base(&frozen)
        .tiers(&[(32, TierCompression::Dense), (16, TierCompression::Dense)])
        .build()
        .expect("freeze");
    println!(
        "frozen into a {}-tier catalog ({} bytes)",
        catalog.len(),
        catalog.buffer().len()
    );

    let stats = registry.stats(TENANT).expect("tenant");
    assert_eq!(stats.size_bytes, frozen.size_bytes(), "one matrix");
    println!(
        "final: {}, write p99 {:?}, read p99 {:?}",
        shape(&stats),
        stats.write_p99,
        stats.read_p99
    );
}
