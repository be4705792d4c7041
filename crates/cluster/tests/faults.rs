//! Fault-injection tests: a [`FaultProxy`] between the coordinator and a
//! replica exercises hedging, deadline propagation, and malformed-frame
//! rejection — failure modes a healthy loopback cluster never shows.

use rambo_cluster::{plan_cluster, ClusterPlan, Coordinator, Fault, FaultProxy, ShardNode};
use rambo_core::{QueryMode, RamboParams};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The coordinator's hedge delay for a replica with fewer than 32 recorded
/// attempts — every replica in these tests, which each run a few queries.
const HEDGE_COLD: Duration = Duration::from_millis(20);
/// The coordinator's bound on each of its two `HELLO` attempts per replica.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

fn plan() -> ClusterPlan {
    let docs: Vec<(String, Vec<u64>)> = (0..16u64)
        .map(|d| (format!("doc{d}"), (0..20).map(|t| d << 16 | t).collect()))
        .collect();
    plan_cluster(RamboParams::two_level(1, 16, 3, 1 << 12, 2, 9), &docs).unwrap()
}

/// One shard, two replicas, each behind its own proxy.
fn proxied_pair(plan: &ClusterPlan) -> (Vec<ShardNode>, FaultProxy, FaultProxy) {
    let (lo, hi) = plan.ranges[0];
    let nodes: Vec<ShardNode> = (0..2)
        .map(|r| ShardNode::spawn(plan.shards[0].clone(), 0, r, lo, hi).expect("spawn"))
        .collect();
    let p0 = FaultProxy::spawn(nodes[0].addr()).expect("proxy 0");
    let p1 = FaultProxy::spawn(nodes[1].addr()).expect("proxy 1");
    (nodes, p0, p1)
}

fn topo(p0: &FaultProxy, p1: &FaultProxy) -> Vec<Vec<SocketAddr>> {
    vec![vec![p0.addr(), p1.addr()]]
}

#[test]
fn hedging_fires_on_a_slow_replica_and_wins() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    // Primary (replica 0, first in round-robin) sits on replies for 900ms;
    // the hedge should fire after HEDGE_COLD and win via replica 1.
    p0.set_fault(Fault::DelayReplyMs(900));
    let terms: Vec<u64> = vec![5 << 16 | 1, 5 << 16 | 2];
    let t0 = Instant::now();
    let reply = coordinator
        .query(&terms, 0.0, Duration::from_secs(5))
        .expect("hedged query");
    let elapsed = t0.elapsed();
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
    assert!(
        elapsed < Duration::from_millis(800),
        "the hedge must beat the delayed primary, took {elapsed:?}"
    );
    let stats = coordinator.stats();
    assert_eq!(stats.shards[0].hedges, 1, "{stats}");
    assert_eq!(stats.shards[0].hedge_wins, 1, "{stats}");
}

#[test]
fn deadlines_propagate_net_of_elapsed_time() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    // Primary blackholed: its attempt consumes the hedge delay before the
    // sibling is tried, so the sibling must see a *smaller* remaining
    // deadline than the primary did.
    p0.set_fault(Fault::Blackhole);
    let terms: Vec<u64> = vec![2 << 16 | 1];
    let reply = coordinator
        .query(&terms, 0.0, Duration::from_millis(800))
        .expect("query");
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
    let first = p0.last_deadline_ms();
    let second = p1.last_deadline_ms();
    assert!(first > 0 && second > 0, "both proxies must see a query");
    assert!(
        second < first && first <= 800,
        "remaining budget must shrink downstream: primary saw {first}ms, hedge saw {second}ms"
    );
    let bound = (Duration::from_millis(800) - HEDGE_COLD).as_millis() as u32 + 10;
    assert!(
        second <= bound,
        "the hedge fired after ≥{HEDGE_COLD:?}, so ≤{bound}ms may remain (saw {second}ms)"
    );
}

#[test]
fn corrupt_replies_are_rejected_and_failed_over() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    p0.set_fault(Fault::CorruptReply);
    let terms: Vec<u64> = vec![7 << 16 | 3, 7 << 16 | 4];
    let reply = coordinator
        .query(&terms, 0.0, Duration::from_secs(5))
        .expect("query must fail over past the corruptor");
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
    let stats = coordinator.stats();
    assert!(stats.shards[0].failovers >= 1, "{stats}");
    assert!(
        stats.shards[0].replicas[0].errors >= 1,
        "the corrupt replica must be charged a transport error: {stats}"
    );
}

#[test]
fn truncated_replies_are_rejected_and_failed_over() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    p0.set_fault(Fault::TruncateReply);
    let terms: Vec<u64> = vec![1 << 16 | 5];
    let reply = coordinator
        .query(&terms, 0.0, Duration::from_secs(5))
        .expect("query must fail over past the truncator");
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
    assert!(coordinator.stats().shards[0].failovers >= 1);
}

#[test]
fn connect_fails_fast_when_a_peer_blackholes_hello() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    p0.set_fault(Fault::Blackhole);
    let t0 = Instant::now();
    let result = Coordinator::connect(&topo(&p0, &p1));
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
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    p0.set_fault(Fault::Blackhole);
    p1.set_fault(Fault::Blackhole);
    let t0 = Instant::now();
    let result = coordinator.query(&[1, 2], 0.0, Duration::from_millis(400));
    let elapsed = t0.elapsed();
    assert!(result.is_err(), "a fully blackholed shard cannot answer");
    assert!(
        elapsed < Duration::from_secs(3),
        "the deadline must bound the wait, took {elapsed:?}"
    );
}
