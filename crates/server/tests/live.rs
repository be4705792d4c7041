//! End-to-end tests for a mutable index served as a one-tenant registry:
//! live inserts under concurrent readers stay bit-identical to a
//! from-scratch build, the result cache never serves a stale answer across
//! an insert, the binary `MUTATE` opcode round-trips, and a tenant freezes
//! into the same catalog a from-scratch build gives.

use rambo_core::{QueryContext, QueryMode, Rambo, RamboParams};
use rambo_server::{
    serve_tenant_tcp, Catalog, TcpClient, TcpClientError, TenantError, TenantOptions, TenantQuotas,
    TenantRegistry, TenantServeOptions,
};
use rambo_workloads::TestClient;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const TENANT: &str = "live";

fn params() -> RamboParams {
    RamboParams::flat(16, 3, 1 << 12, 2, 7)
}

/// Deterministic archive with per-document private terms + one shared term.
fn archive(k: usize) -> Vec<(String, Vec<u64>)> {
    (0..k)
        .map(|d| {
            let base = (d as u64) << 24;
            let mut ts: Vec<u64> = (0..40u64).map(|t| base | t).collect();
            ts.push(0xFFFF);
            (format!("doc-{d}"), ts)
        })
        .collect()
}

fn oracle(docs: &[(String, Vec<u64>)]) -> Rambo {
    let mut r = Rambo::new(params()).unwrap();
    for (name, terms) in docs {
        r.insert_document(name, terms.iter().copied()).unwrap();
    }
    r
}

/// A registry holding one tenant of the test geometry.
fn one_tenant() -> TenantRegistry {
    let registry = TenantRegistry::new(params(), TenantQuotas::default()).unwrap();
    registry.create(TENANT, TenantOptions::default()).unwrap();
    registry
}

/// Serve `registry` with the binary front bound to the tenant for the
/// closure's duration.
fn with_binary_front(registry: &TenantRegistry, f: impl FnOnce(SocketAddr)) {
    let resp_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let binary_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = binary_listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let options = TenantServeOptions {
        binary_tenant: Some(TENANT.to_owned()),
        ..TenantServeOptions::default()
    };
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_tenant_tcp(
                registry,
                resp_listener,
                Some(binary_listener),
                &stop,
                &options,
            )
        });
        f(addr);
        stop.store(true, Ordering::Relaxed);
        server.join().unwrap().unwrap();
    });
}

#[test]
fn live_inserts_match_monolith_under_concurrent_readers() {
    let docs = archive(40);
    let reg = one_tenant();
    let (head, tail) = docs.split_at(20);
    for (i, (name, terms)) in head.iter().enumerate() {
        let id = reg.insert_document(TENANT, name, terms).unwrap();
        assert_eq!(id, i as u32, "ids must be dense and insertion-ordered");
    }
    std::thread::scope(|s| {
        // Readers on their own threads while the writer streams the tail:
        // every document inserted before a reader started is found.
        for r in 0..4 {
            let (reg, head) = (&reg, head);
            s.spawn(move || {
                for (d, (_, terms)) in head.iter().enumerate() {
                    let t = terms[r % terms.len()];
                    let got = reg.query(TENANT, &[t], None).unwrap();
                    assert!(
                        got.contains(&(d as u32)),
                        "reader {r}: doc {d} missing for {t:#x}"
                    );
                }
            });
        }
        for (i, (name, terms)) in tail.iter().enumerate() {
            let id = reg.insert_document(TENANT, name, terms).unwrap();
            assert_eq!(id, (head.len() + i) as u32);
        }
    });
    // Bit-identity with the from-scratch monolith, both modes.
    let mono = oracle(&docs);
    let mut ctx = QueryContext::new();
    for (_, terms) in &docs {
        for &t in terms.iter().take(5) {
            for mode in [QueryMode::Full, QueryMode::Sparse] {
                assert_eq!(
                    reg.query(TENANT, &[t], Some(mode)).unwrap(),
                    mono.query_terms_with(&[t], mode, &mut ctx),
                    "divergence on {t:#x} ({mode:?})"
                );
            }
        }
    }
    let ids: Vec<u32> = (0..40).collect();
    let names: Vec<String> = docs.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(reg.resolve_names(TENANT, &ids).unwrap(), names);

    let stats = reg.stats(TENANT).unwrap();
    assert_eq!((stats.inserts, stats.documents), (40, 40));
    assert_eq!(stats.size_bytes, mono.size_bytes(), "one matrix: {stats:?}");
}

#[test]
fn result_cache_never_serves_stale_answers_across_inserts() {
    let reg = one_tenant();
    let shared = 0xFFFFu64;
    reg.insert_document(TENANT, "a", &[1, shared]).unwrap();
    // Prime the cache, then hit it.
    assert_eq!(reg.query(TENANT, &[shared], None).unwrap(), vec![0]);
    assert_eq!(reg.query(TENANT, &[shared], None).unwrap(), vec![0]);
    // The insert bumps the cache version: the cached answer for the shared
    // term must not mask the new document.
    let id = reg.insert_document(TENANT, "b", &[2, shared]).unwrap();
    assert_eq!(reg.query(TENANT, &[shared], None).unwrap(), vec![0, id]);
    let cache = reg.stats(TENANT).unwrap().cache.expect("cache enabled");
    assert!(
        cache.counters.hits >= 1,
        "second lookup must hit: {cache:?}"
    );
}

#[test]
fn duplicate_insert_is_rejected_without_poisoning_the_index() {
    let docs = archive(4);
    let reg = one_tenant();
    for (name, terms) in &docs {
        reg.insert_document(TENANT, name, terms).unwrap();
    }
    assert!(matches!(
        reg.insert_document(TENANT, "doc-0", &[12]),
        Err(TenantError::Index(_))
    ));
    assert_eq!(reg.insert_document(TENANT, "other", &[13]).unwrap(), 4);
    assert_eq!(reg.query(TENANT, &[1 << 24], None).unwrap(), vec![1]);
}

#[test]
fn binary_mutate_roundtrip() {
    let docs = archive(12);
    let reg = one_tenant();
    with_binary_front(&reg, |addr| {
        let mut client = TcpClient::connect(addr).unwrap();
        for (i, (name, terms)) in docs.iter().enumerate() {
            assert_eq!(client.insert_document(name, terms).unwrap(), i as u32);
        }
        // Duplicate name → in-protocol rejection, connection intact.
        match client.insert_document(&docs[3].0, &[1]) {
            Err(TcpClientError::Rejected(msg)) => {
                assert!(msg.contains("doc-3"), "reason should name the dup: {msg}")
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Query over the same connection sees the inserted docs.
        let reply = client
            .query(&[(5u64 << 24) | 7], 1.0, Duration::from_secs(5))
            .unwrap();
        assert!(reply.docs.contains(&5));
        let stats = client.stats().unwrap();
        assert!(stats.contains("12 docs"), "stats frame: {stats}");
    });
}

#[test]
fn malformed_mutate_frame_closes_the_connection() {
    with_binary_front(&one_tenant(), |addr| {
        let mut raw = TestClient::connect(addr).unwrap();
        // Opcode 4 with a lying name length.
        let mut frame = vec![4u8, 0, 0, 0];
        frame.extend_from_slice(&999u32.to_le_bytes());
        raw.send_framed(&frame).unwrap();
        // The server answers BAD_REQUEST, then closes.
        let reply = raw.read_until_close().unwrap();
        assert!(reply.len() >= 5);
        assert_eq!(reply[4], 3, "status must be BAD_REQUEST");
    });
}

#[test]
fn frozen_tenant_builds_the_monolith_catalog() {
    let docs = archive(24);
    let reg = one_tenant();
    for (name, terms) in &docs {
        reg.insert_document(TENANT, name, terms).unwrap();
    }
    let frozen = reg.freeze(TENANT).unwrap();
    let tiers = |base: &Rambo| {
        Catalog::builder()
            .base(base)
            .tier_buckets(&[16, 8])
            .build()
            .unwrap()
    };
    assert_eq!(
        tiers(&frozen).buffer(),
        tiers(&oracle(&docs)).buffer(),
        "snapshot ≡ monolith"
    );
    assert!(matches!(
        reg.freeze("ghost"),
        Err(TenantError::UnknownTenant(_))
    ));
}

#[test]
fn builder_rejects_contradictory_sources() {
    let index = oracle(&archive(8));
    // Base source without tiers.
    assert!(Catalog::builder().base(&index).build().is_err());
    // Serialized source with tiers.
    let buf: std::sync::Arc<[u8]> = index.fold_catalog_bytes(&[16]).unwrap().into();
    assert!(Catalog::builder()
        .buffer(buf)
        .tier_buckets(&[16])
        .build()
        .is_err());
    // No source at all.
    assert!(Catalog::builder().build().is_err());
}
