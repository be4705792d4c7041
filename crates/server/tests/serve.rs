//! End-to-end tests for the serving engine: result parity with direct
//! evaluation, tier routing, concurrent callers, deadlines, the result
//! cache and the TCP front.

use rambo_core::{QueryContext, QueryMode, Rambo, RamboParams};
use rambo_server::{
    serve_tcp, Catalog, QueryOptions, Server, ServerConfig, ServerError, TcpClient, TcpClientError,
};
use rambo_workloads::TestClient;
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A deterministic archive: disjoint per-document term ranges plus one
/// shared term, mirroring the core test fixtures.
fn archive(k: usize, terms_per_doc: usize) -> Vec<(String, Vec<u64>)> {
    (0..k)
        .map(|d| {
            let base = (d as u64) << 24;
            let mut ts: Vec<u64> = (0..terms_per_doc as u64).map(|t| base | t).collect();
            ts.push(0xFFFF);
            (format!("doc-{d}"), ts)
        })
        .collect()
}

fn build_index(buckets: u64, k: usize, seed: u64) -> Rambo {
    let mut r = Rambo::new(RamboParams::flat(buckets, 3, 1 << 13, 2, seed)).unwrap();
    for (name, terms) in archive(k, 60) {
        r.insert_document(&name, terms).unwrap();
    }
    r
}

/// A mixed query load: one present term per covered document, plus absent
/// probes.
fn query_load(k: usize) -> Vec<Vec<u64>> {
    let mut queries: Vec<Vec<u64>> = (0..k)
        .map(|d| vec![((d as u64) << 24) | 7, ((d as u64) << 24) | 8])
        .collect();
    queries.extend((0..k / 2).map(|i| vec![0xDEAD_0000_0000 + i as u64]));
    queries
}

#[test]
fn served_results_match_direct_evaluation_on_every_tier() {
    let index = build_index(32, 50, 1);
    let catalog = Catalog::builder().base(&index).halving(2).build().unwrap();
    let queries = query_load(50);
    let budgets: Vec<f64> = (0..catalog.len())
        .map(|t| catalog.info(t).predicted_fpr)
        .collect();

    let (checked, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        let mut checked = 0usize;
        let mut ctx = QueryContext::new();
        for (i, q) in queries.iter().enumerate() {
            let budget = budgets[i % budgets.len()];
            let reply = handle.query(q, budget, Duration::from_secs(5)).unwrap();
            assert_eq!(reply.tier, catalog.select(budget));
            let direct = catalog
                .tier(reply.tier)
                .query_terms_with(q, QueryMode::Full, &mut ctx);
            assert_eq!(reply.docs, direct, "query {i} disagrees with direct eval");
            checked += 1;
        }
        checked
    });
    assert_eq!(checked, queries.len());
    assert_eq!(stats.total_completed(), queries.len() as u64);
    // Every tier served some share of the mixed-budget load.
    for tier in &stats.tiers {
        assert!(tier.completed > 0, "tier {} sat idle", tier.tier);
        assert!(tier.p99 >= tier.p50);
    }
}

#[test]
fn explicit_tier_override() {
    let index = build_index(16, 30, 2);
    let catalog = Catalog::builder().base(&index).halving(1).build().unwrap();
    let (_, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        let term = (4u64 << 24) | 3;
        let reply = handle
            .query_opts(
                &[term],
                &QueryOptions {
                    tier: Some(1),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert_eq!(reply.tier, 1);
        assert!(reply.docs.contains(&4));
        assert_eq!(
            handle.query_opts(
                &[term],
                &QueryOptions {
                    tier: Some(9),
                    ..QueryOptions::default()
                }
            ),
            Err(ServerError::UnknownTier(9))
        );
    });
    assert_eq!(stats.tiers[0].completed, 0);
    assert_eq!(stats.tiers[1].completed, 1);
}

#[test]
fn concurrent_clients_all_get_right_answers() {
    let index = build_index(16, 40, 3);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    let n_clients = 4;
    let per_client = 100usize;
    let (_, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        std::thread::scope(|s| {
            for c in 0..n_clients {
                let handle = &handle;
                let catalog = &catalog;
                s.spawn(move || {
                    let mut ctx = QueryContext::new();
                    for i in 0..per_client {
                        let term = (((i % 40) as u64) << 24) | (c as u64);
                        let reply = handle.query(&[term], 0.0, Duration::from_secs(5)).unwrap();
                        assert_eq!(reply.tier, 0);
                        let direct =
                            catalog
                                .tier(0)
                                .query_terms_with(&[term], QueryMode::Full, &mut ctx);
                        assert_eq!(reply.docs, direct, "client {c} query {i}");
                        assert!(reply.docs.contains(&((i % 40) as u32)));
                    }
                });
            }
        });
    });
    let total = (n_clients * per_client) as u64;
    let t = &stats.tiers[0];
    assert_eq!(t.completed, total);
    // Every answer was either evaluated or served from the cache.
    assert_eq!(t.evaluated + t.cache_hits, t.completed);
    assert_eq!(t.expired, 0);
}

#[test]
fn expired_requests_are_dropped_not_evaluated() {
    let index = build_index(16, 20, 5);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    let (result, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        // A deadline of zero is already past at admission.
        handle.query(&[42], 0.0, Duration::ZERO)
    });
    assert_eq!(result, Err(ServerError::DeadlineExceeded { tier: 0 }));
    let t = &stats.tiers[0];
    assert_eq!((t.accepted, t.expired), (1, 1));
    assert_eq!((t.evaluated, t.completed, t.hits), (0, 0, 0));
}

#[test]
fn tcp_round_trip_matches_direct_evaluation() {
    let index = build_index(32, 40, 7);
    let catalog = Catalog::builder().base(&index).halving(2).build().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let loose_budget = catalog.info(catalog.len() - 1).predicted_fpr;

    let (checked, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(handle, listener, &stop));
            let mut checked = 0usize;
            let mut ctx = QueryContext::new();
            // Two sequential client connections, mixed budgets.
            for round in 0..2 {
                let mut client = TcpClient::connect(addr).unwrap();
                for d in 0..40u64 {
                    let budget = if d % 2 == round { 0.0 } else { loose_budget };
                    let q = [(d << 24) | 5];
                    let reply = client.query(&q, budget, Duration::from_secs(5)).unwrap();
                    assert_eq!(reply.tier, catalog.select(budget));
                    let direct =
                        catalog
                            .tier(reply.tier)
                            .query_terms_with(&q, QueryMode::Full, &mut ctx);
                    assert_eq!(reply.docs, direct);
                    assert!(reply.docs.contains(&(d as u32)), "lost doc {d} over TCP");
                    checked += 1;
                }
            }
            stop.store(true, Ordering::Relaxed);
            server.join().unwrap().unwrap();
            checked
        })
    });
    assert_eq!(checked, 80);
    assert_eq!(stats.total_completed(), 80);
    // Both the accurate and the folded tier saw traffic.
    assert!(stats.tiers[0].completed > 0);
    assert!(stats.tiers[catalog.len() - 1].completed > 0);
}

#[test]
fn tcp_rejects_malformed_frames_without_dying() {
    let index = build_index(16, 10, 8);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);

    Server::scope(&catalog, ServerConfig::default(), |handle| {
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(handle, listener, &stop));
            // Garbage opcode → status 3, connection closed by the server.
            let mut raw = TestClient::connect(addr).unwrap();
            raw.send_framed(&[9, 9, 9, 9, 9]).unwrap();
            let buf = raw.read_until_close().unwrap();
            assert!(buf.len() >= 5 && buf[4] == 3, "expected bad-request status");
            drop(raw);
            // The server still answers a well-formed client afterwards.
            let mut client = TcpClient::connect(addr).unwrap();
            let reply = client
                .query(&[(2u64 << 24) | 1], 0.0, Duration::from_secs(5))
                .unwrap();
            assert!(reply.docs.contains(&2));
            // And a budget outside [0,1] is a client-visible protocol error.
            let err = client.query(&[1], 7.5, Duration::from_secs(5));
            assert!(matches!(err, Err(TcpClientError::Protocol(_))));
            stop.store(true, Ordering::Relaxed);
            server.join().unwrap().unwrap();
        });
    });
    // Status 1 is reserved and never sent: a peer that sends it is
    // speaking an unknown status.
    let peer = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = peer.local_addr().unwrap();
    std::thread::scope(|s| {
        s.spawn(|| {
            let (mut conn, _) = peer.accept().unwrap();
            rambo_server::wire::read_frame(&mut conn).unwrap();
            let mut frame = Vec::new();
            rambo_server::wire::encode_response(&mut frame, 1, 0, &[]);
            conn.write_all(&frame).unwrap();
        });
        let err = TcpClient::connect(addr)
            .unwrap()
            .query(&[1], 0.0, Duration::from_secs(5));
        assert!(
            matches!(&err, Err(TcpClientError::Protocol(m)) if m == "unknown response status 1"),
            "{err:?}"
        );
    });
}

#[test]
fn reset_stats_opens_a_fresh_measurement_window() {
    let index = build_index(16, 20, 17);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    let terms = [(2u64 << 24) | 1, (2u64 << 24) | 3];
    let (_, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        handle.query(&terms, 0.0, Duration::from_secs(5)).unwrap();
        let warm = handle.stats();
        assert_eq!(warm.total_completed(), 1);
        assert!(warm.latency.count() >= 1);
        assert!(!warm.slow_queries.is_empty());
        handle.reset_stats();
        let cleared = handle.stats();
        assert_eq!(cleared.total_completed(), 0);
        assert_eq!(cleared.latency.count(), 0);
        assert!(cleared.slow_queries.is_empty());
        // The server keeps serving across the window boundary, and only
        // post-reset traffic lands in the new window.
        handle.query(&terms, 0.0, Duration::from_secs(5)).unwrap();
    });
    assert_eq!(stats.total_completed(), 1);
    assert_eq!(stats.latency.count(), 1);
}

#[test]
fn result_cache_serves_repeats_and_invalidates_on_version_bump() {
    let index = build_index(16, 20, 12);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    let terms = [(3u64 << 24) | 7, (3u64 << 24) | 9];
    let mut ctx = QueryContext::new();
    let direct = catalog
        .tier(0)
        .query_terms_with(&terms, QueryMode::Full, &mut ctx);
    let (_, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        let first = handle.query(&terms, 0.0, Duration::from_secs(5)).unwrap();
        assert_eq!(first.docs, direct);
        // A permuted, duplicated term list canonicalizes to the same key.
        let shuffled = [(3u64 << 24) | 9, (3u64 << 24) | 7, (3u64 << 24) | 9];
        let second = handle
            .query(&shuffled, 0.0, Duration::from_secs(5))
            .unwrap();
        assert_eq!(second.docs, direct);
        let mid = handle.stats();
        assert_eq!(mid.total_cache_hits(), 1, "repeat did not hit the cache");
        // Invalidation: the next repeat must re-evaluate, not serve stale.
        handle.invalidate_result_cache();
        let third = handle.query(&terms, 0.0, Duration::from_secs(5)).unwrap();
        assert_eq!(third.docs, direct);
    });
    assert_eq!(stats.total_completed(), 3);
    assert_eq!(stats.total_cache_hits(), 1);
    // A hit does not evaluate: three completions, two evaluations.
    assert_eq!(stats.total_inline(), 2);
    let cache = stats.cache.expect("cache enabled by default");
    assert_eq!(cache.counters.hits, 1);
    assert_eq!(cache.counters.stale, 1, "stale entry not dropped");
    assert_eq!(cache.version, 1);
    // The slow-query log saw the evaluated (non-cached) requests, worst
    // first.
    assert!(!stats.slow_queries.is_empty());
    assert!(stats
        .slow_queries
        .windows(2)
        .all(|w| w[0].total >= w[1].total));
}

#[test]
fn tcp_stats_frame_dumps_counters() {
    let index = build_index(16, 20, 13);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    Server::scope(&catalog, ServerConfig::default(), |handle| {
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(handle, listener, &stop));
            let mut client = TcpClient::connect(addr).unwrap();
            let q = [(5u64 << 24) | 1];
            client.query(&q, 0.0, Duration::from_secs(5)).unwrap();
            client.query(&q, 0.0, Duration::from_secs(5)).unwrap();
            let dump = client.stats().unwrap();
            assert!(dump.contains("tier 0:"), "missing tier line: {dump}");
            assert!(dump.contains("completed=2"), "missing counters: {dump}");
            assert!(dump.contains("cache_hits=1"), "repeat not cached: {dump}");
            assert!(dump.contains("cache: hits=1"), "missing cache line: {dump}");
            assert!(dump.contains("slow 0:"), "missing slow-query log: {dump}");
            stop.store(true, Ordering::Relaxed);
            server.join().unwrap().unwrap();
        });
    });
}
