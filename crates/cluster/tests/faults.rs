//! Real-socket smoke tests for what `Coordinator::query` translates between
//! sockets and the scatter: silence until a hedge timer or the deadline,
//! a partial frame and then EOF, a hang-up, garbage — plus topology
//! discovery against a peer that swallows `HELLO`. A scripted replica
//! (`support::Scripted`) plays the faulty peer; the rules themselves
//! (hedging, charging, demotion, deadline propagation) are proven exactly
//! by the scripted schedules in `src/scatter/tests.rs`.

mod support;

use rambo_cluster::{ClusterError, Coordinator};
use rambo_core::QueryMode;
use rambo_server::wire;
use std::time::{Duration, Instant};
use support::{answer, node, plan, Reply, Scripted};

/// The coordinator's bound on each of its two `HELLO` attempts per replica.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Replica 0 scripted with `replies`, replica 1 real: the first query's
/// primary is replica 0. Checks the first query's answer.
fn query_past(replies: Vec<Reply>, terms: &[u64]) -> Coordinator {
    let plan = plan();
    let real = node(&plan);
    let scripted = Scripted::spawn(Some(real.manifest()), replies);
    let coordinator = Coordinator::connect(&[vec![scripted.addr(), real.addr()]]).expect("connect");
    let reply = coordinator
        .query(terms, 0.0, Duration::from_secs(5))
        .expect("the real replica answers");
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(terms, QueryMode::Full)
    );
    coordinator
}

#[test]
fn hedging_fires_on_a_slow_replica_and_wins() {
    let t0 = Instant::now();
    let coordinator = query_past(vec![Reply::Silent], &[5 << 16 | 1, 5 << 16 | 2]);
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(800),
        "the hedge timer must wake the loop, took {elapsed:?}"
    );
    let stats = coordinator.stats();
    assert_eq!(stats.shards[0].hedges, 1, "{stats}");
    assert_eq!(stats.shards[0].hedge_wins, 1, "{stats}");
}

#[test]
fn corrupt_replies_are_rejected_and_failed_over() {
    // Well framed, but unsorted and naming a document the shard lacks.
    let junk = wire::encode_response(wire::STATUS_OK, 0, &[3, 1, 1000]);
    let coordinator = query_past(vec![Reply::Bytes(junk)], &[7 << 16 | 3, 7 << 16 | 4]);
    let stats = coordinator.stats();
    assert_eq!(stats.shards[0].failovers, 1, "{stats}");
    assert_eq!(stats.shards[0].replicas[0].errors, 1, "{stats}");
}

#[test]
fn truncated_replies_are_rejected_and_failed_over() {
    let terms = [1 << 16 | 5];
    let mut half = answer(&plan(), &terms);
    half.truncate(half.len() / 2);
    let coordinator = query_past(vec![Reply::Hangup(half)], &terms);
    assert_eq!(coordinator.stats().shards[0].failovers, 1);
}

#[test]
fn a_replica_that_hangs_up_is_failed_over() {
    let coordinator = query_past(vec![Reply::Hangup(vec![])], &[2 << 16 | 1]);
    let stats = coordinator.stats();
    assert_eq!(stats.shards[0].failovers, 1, "{stats}");
    assert_eq!(stats.shards[0].replicas[0].errors, 1, "{stats}");
}

#[test]
fn connect_fails_fast_when_a_peer_blackholes_hello() {
    let plan = plan();
    let real = node(&plan);
    let mute = Scripted::spawn(None, vec![]);
    let t0 = Instant::now();
    let result = Coordinator::connect(&[vec![mute.addr(), real.addr()]]);
    let elapsed = t0.elapsed();
    assert!(result.is_err(), "a swallowed HELLO cannot yield a cluster");
    let bound = 2 * CONNECT_TIMEOUT + Duration::from_secs(1);
    assert!(
        elapsed < bound,
        "discovery must be bounded by two CONNECT_TIMEOUT attempts, took {elapsed:?}"
    );
}

#[test]
fn blackholed_cluster_respects_the_client_deadline() {
    let manifest = node(&plan()).manifest();
    let silent = [(); 2].map(|()| Scripted::spawn(Some(manifest), vec![]));
    let coordinator =
        Coordinator::connect(&[silent.iter().map(Scripted::addr).collect()]).expect("connect");
    let t0 = Instant::now();
    let result = coordinator.query(&[1, 2], 0.0, Duration::from_millis(60));
    let elapsed = t0.elapsed();
    assert!(
        matches!(result, Err(ClusterError::Shard { shard: 0, .. })),
        "a fully blackholed shard cannot answer: {result:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(60) && elapsed < Duration::from_secs(3),
        "the deadline must bound the wait, took {elapsed:?}"
    );
}
