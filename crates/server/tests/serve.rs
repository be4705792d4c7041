//! End-to-end tests for the serving engine: result parity with direct
//! evaluation, tier routing, batching, backpressure, deadlines, the TCP
//! front, and clean shutdown accounting.

use rambo_core::{QueryContext, QueryMode, Rambo, RamboParams};
use rambo_server::{
    serve_tcp, Catalog, QueryOptions, SchedulerMode, Server, ServerConfig, ServerError, TcpClient,
    TcpClientError,
};
use rambo_workloads::TestClient;
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
    assert_eq!(stats.total_rejected(), 0);
    // Every tier served some share of the mixed-budget load.
    for tier in &stats.tiers {
        assert!(tier.completed > 0, "tier {} sat idle", tier.tier);
        assert!(tier.p99 >= tier.p50);
    }
}

#[test]
fn sparse_mode_and_explicit_tier_override() {
    let index = build_index(16, 30, 2);
    let catalog = Catalog::builder().base(&index).halving(1).build().unwrap();
    let (_, stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        let term = (4u64 << 24) | 3;
        let full = handle
            .query_opts(
                &[term],
                &QueryOptions {
                    tier: Some(1),
                    mode: Some(QueryMode::Full),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        let sparse = handle
            .query_opts(
                &[term],
                &QueryOptions {
                    tier: Some(1),
                    mode: Some(QueryMode::Sparse),
                    ..QueryOptions::default()
                },
            )
            .unwrap();
        assert_eq!(full.tier, 1);
        assert_eq!(full.docs, sparse.docs);
        assert!(full.docs.contains(&4));
        assert!(matches!(
            handle.submit(
                &[term],
                &QueryOptions {
                    tier: Some(9),
                    ..QueryOptions::default()
                }
            ),
            Err(ServerError::UnknownTier(9))
        ));
    });
    assert_eq!(stats.tiers[0].completed, 0);
    assert_eq!(stats.tiers[1].completed, 2);
}

#[test]
fn concurrent_clients_get_batched() {
    let index = build_index(16, 40, 3);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    // Pin always-batch and disable the result cache: this test asserts the
    // *batching machinery* coalesces, so neither the adaptive inline bypass
    // nor cache hits may short-circuit the queue.
    let config = ServerConfig {
        max_batch: 8,
        max_delay: Duration::from_millis(5),
        workers_per_tier: 1,
        scheduler: SchedulerMode::AlwaysBatch,
        result_cache_bytes: 0,
        ..ServerConfig::default()
    };
    let n_clients = 4;
    let per_client = 100usize;
    let (_, stats) = Server::scope(&catalog, config, |handle| {
        std::thread::scope(|s| {
            for c in 0..n_clients {
                let handle = &handle;
                s.spawn(move || {
                    for i in 0..per_client {
                        let term = (((i % 40) as u64) << 24) | (c as u64);
                        let reply = handle.query(&[term], 0.0, Duration::from_secs(5)).unwrap();
                        assert_eq!(reply.tier, 0);
                    }
                });
            }
        });
    });
    let total = (n_clients * per_client) as u64;
    assert_eq!(stats.total_completed(), total);
    // Micro-batching must have coalesced concurrent requests: strictly
    // fewer batches than queries, i.e. mean batch size above one.
    assert!(
        stats.tiers[0].batches < total,
        "no batching happened: {} batches for {total} queries",
        stats.tiers[0].batches
    );
    assert!(stats.tiers[0].mean_batch > 1.0);
    assert_eq!(stats.tiers[0].hits, total); // every term hits exactly one doc
}

#[test]
fn overload_rejects_when_the_queue_is_full() {
    // One document with a large term set: a query over all its terms keeps
    // the single worker busy evaluating for many milliseconds (every term
    // is present, so there is no early exit), while the tiny admission
    // queue fills deterministically behind it.
    let slow_terms: Vec<u64> = (0..200_000u64).collect();
    let mut index = Rambo::new(RamboParams::flat(8, 3, 1 << 16, 2, 4)).unwrap();
    index
        .insert_document("big", slow_terms.iter().copied())
        .unwrap();
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    // Pin always-batch: under the adaptive scheduler the slow query would
    // evaluate inline on the submitting thread and the queue would never
    // fill — this test exercises the queue-full backpressure path.
    let config = ServerConfig {
        max_batch: 1, // no collection loop: the worker is either evaluating or idle
        queue_capacity: 2,
        workers_per_tier: 1,
        scheduler: SchedulerMode::AlwaysBatch,
        ..ServerConfig::default()
    };
    let ((accepted, rejected), stats) = Server::scope(&catalog, config, |handle| {
        let mut pending = vec![handle
            .submit(&slow_terms, &QueryOptions::default())
            .unwrap()];
        // Let the worker dequeue the slow query and start evaluating (the
        // sleep must end well inside the tens-of-ms evaluation).
        std::thread::sleep(Duration::from_millis(5));
        let mut rejected = 0usize;
        // The worker is mid-evaluation: the queue holds 2, the rest bounce.
        for i in 0..6u64 {
            match handle.submit(&[i], &QueryOptions::default()) {
                Ok(p) => pending.push(p),
                Err(ServerError::Overloaded { tier: 0 }) => rejected += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let accepted = pending.len();
        for p in pending {
            p.wait().unwrap();
        }
        (accepted, rejected)
    });
    assert!(rejected > 0, "queue never filled");
    assert_eq!(accepted + rejected, 7);
    assert_eq!(stats.tiers[0].rejected as usize, rejected);
    assert_eq!(stats.tiers[0].completed as usize, accepted);
}

#[test]
fn expired_requests_are_dropped_not_evaluated() {
    let index = build_index(16, 20, 5);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    let config = ServerConfig {
        workers_per_tier: 1,
        ..ServerConfig::default()
    };
    let (result, stats) = Server::scope(&catalog, config, |handle| {
        // A deadline of zero is already past when the worker dequeues.
        handle.query(&[42], 0.0, Duration::ZERO)
    });
    assert_eq!(result, Err(ServerError::DeadlineExceeded { tier: 0 }));
    assert_eq!(stats.tiers[0].expired, 1);
    assert_eq!(stats.tiers[0].completed, 0);
}

#[test]
fn deadline_caps_the_straggler_wait() {
    let index = build_index(16, 20, 6);
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    // Collection window far beyond the request deadline: the scheduler must
    // cut the wait at the deadline and still answer in time.
    let config = ServerConfig {
        max_batch: 64,
        max_delay: Duration::from_secs(30),
        workers_per_tier: 1,
        ..ServerConfig::default()
    };
    let (reply, _) = Server::scope(&catalog, config, |handle| {
        let start = std::time::Instant::now();
        let reply = handle.query(&[(3u64 << 24) | 1], 0.0, Duration::from_millis(200));
        (reply, start.elapsed())
    });
    let (reply, elapsed) = reply;
    assert!(reply.is_ok(), "deadline-capped wait must still answer");
    assert!(
        elapsed < Duration::from_secs(5),
        "worker waited the full window: {elapsed:?}"
    );
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
}

#[test]
fn inline_path_is_bit_identical_to_batched_path() {
    let index = build_index(16, 30, 10);
    let catalog = Catalog::builder().base(&index).halving(1).build().unwrap();
    let queries = query_load(30);
    // Forced-inline arm: an unreachable batch threshold keeps every request
    // on the admitting thread. Forced-batch arm: the pre-adaptive path.
    // Cache off on both so every reply is a fresh evaluation.
    let run = |scheduler: SchedulerMode| {
        let config = ServerConfig {
            workers_per_tier: 1,
            scheduler,
            result_cache_bytes: 0,
            ..ServerConfig::default()
        };
        Server::scope(&catalog, config, |handle| {
            queries
                .iter()
                .flat_map(|q| {
                    (0..catalog.len()).map(|t| {
                        handle
                            .query_opts(
                                q,
                                &QueryOptions {
                                    tier: Some(t),
                                    deadline: Duration::from_secs(5),
                                    ..QueryOptions::default()
                                },
                            )
                            .unwrap()
                            .docs
                    })
                })
                .collect::<Vec<_>>()
        })
    };
    let (inline_docs, inline_stats) = run(SchedulerMode::Adaptive {
        batch_above: usize::MAX,
        inline_below: 0,
    });
    let (batched_docs, batched_stats) = run(SchedulerMode::AlwaysBatch);
    assert_eq!(inline_docs, batched_docs, "inline and batched paths differ");
    let total = (queries.len() * catalog.len()) as u64;
    assert_eq!(inline_stats.total_inline(), total, "not all inline");
    assert_eq!(inline_stats.total_batches(), 0);
    assert_eq!(batched_stats.total_inline(), 0, "always-batch went inline");
    assert_eq!(batched_stats.total_completed(), total);
}

#[test]
fn adaptive_scheduler_switches_to_batching_under_load() {
    // One huge-term-set document: queries over all its terms evaluate for
    // many milliseconds, so the inline lock stays held while fast queries
    // pile into the queue and trip the batching threshold.
    let slow_terms: Vec<u64> = (0..200_000u64).collect();
    let mut index = Rambo::new(RamboParams::flat(8, 3, 1 << 16, 2, 11)).unwrap();
    index
        .insert_document("big", slow_terms.iter().copied())
        .unwrap();
    let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
    let config = ServerConfig {
        workers_per_tier: 1,
        max_batch: 8,
        scheduler: SchedulerMode::Adaptive {
            batch_above: 2,
            inline_below: 0,
        },
        result_cache_bytes: 0,
        ..ServerConfig::default()
    };
    let (_, stats) = Server::scope(&catalog, config, |handle| {
        std::thread::scope(|s| {
            // Thread A grabs the inline evaluator for a long evaluation.
            let slow = &slow_terms;
            let handle_a = &handle;
            s.spawn(move || {
                handle_a.query(slow, 0.0, Duration::from_secs(30)).unwrap();
            });
            std::thread::sleep(Duration::from_millis(5));
            // Contended admissions fall through to the queue. The first is
            // another slow query so the worker stays busy while the fast
            // ones stack up past the threshold.
            let mut pending = vec![handle
                .submit(
                    slow,
                    &QueryOptions {
                        deadline: Duration::from_secs(30),
                        ..QueryOptions::default()
                    },
                )
                .unwrap()];
            // Generous deadlines: these sit behind a multi-hundred-ms (in
            // debug builds) slow evaluation and must not expire.
            for i in 0..4u64 {
                pending.push(
                    handle
                        .submit(
                            &[i],
                            &QueryOptions {
                                deadline: Duration::from_secs(30),
                                ..QueryOptions::default()
                            },
                        )
                        .unwrap(),
                );
            }
            for p in pending {
                p.wait().unwrap();
            }
            // Load gone: wait out the flip-back cooldown (the contended
            // phase stamped the lane as live), then a sequential
            // closed-loop trickle is nothing but quiet singleton batches,
            // so the worker's quiet streak builds up and flips the lane
            // back to inline; the tail of the trickle is then served
            // inline again.
            std::thread::sleep(Duration::from_millis(400));
            for i in 0..40u64 {
                handle
                    .query(&[100 + i], 0.0, Duration::from_secs(5))
                    .unwrap();
            }
        });
    });
    let t = &stats.tiers[0];
    assert!(
        t.inline_completed >= 2,
        "quiet traffic should run inline: {t:?}"
    );
    assert!(t.batched >= 1, "contended requests should queue");
    assert!(
        t.switched_to_batch >= 1,
        "queue depth {} never tripped batching: {t:?}",
        t.max_queue_depth
    );
    assert!(
        t.switched_to_inline >= 1,
        "a sustained quiet streak never flipped back: {t:?}"
    );
    assert!(t.max_queue_depth >= 2);
    assert_eq!(t.completed, 46);
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

#[test]
fn shutdown_drains_admitted_requests() {
    let index = build_index(16, 30, 9);
    let catalog = Catalog::builder().base(&index).halving(1).build().unwrap();
    let config = ServerConfig {
        max_delay: Duration::from_millis(20),
        workers_per_tier: 1,
        ..ServerConfig::default()
    };
    // Submit and *abandon* pending replies, then leave the scope: every
    // admitted request must still be drained (evaluated or expired), and
    // the scope must not hang.
    let (submitted, stats) = Server::scope(&catalog, config, |handle| {
        let mut submitted = 0u64;
        for d in 0..30u64 {
            let opts = QueryOptions {
                fpr_budget: if d % 2 == 0 { 0.0 } else { 1.0 },
                ..QueryOptions::default()
            };
            if handle.submit(&[(d << 24) | 2], &opts).is_ok() {
                submitted += 1;
            }
        }
        submitted
    });
    let drained: u64 = stats.tiers.iter().map(|t| t.completed + t.expired).sum();
    assert_eq!(drained, submitted, "shutdown dropped admitted requests");
}
