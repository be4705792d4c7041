//! End-to-end cluster tests over real loopback sockets: scatter-gather
//! parity with the monolith, replica failover with zero failed queries,
//! degraded answers when a whole replica set is gone, and the
//! coordinator front speaking the standard protocol.

use rambo_cluster::{
    plan_cluster, serve_cluster, ClusterClient, ClusterError, ClusterPlan, Coordinator, ShardNode,
};
use rambo_core::{QueryMode, RamboParams};
use rambo_server::TcpClient;
use rambo_workloads::TestClient;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(5);

fn corpus(docs: u64) -> Vec<(String, Vec<u64>)> {
    (0..docs)
        .map(|d| {
            let terms = (0..3u64)
                .map(|t| 0xABC0 | t) // shared prefix: multi-doc hits
                .chain((3..24).map(|t| d << 16 | t))
                .collect();
            (format!("doc{d}"), terms)
        })
        .collect()
}

fn plan(nodes: u64, docs: u64) -> ClusterPlan {
    plan_cluster(
        RamboParams::two_level(nodes, 16, 3, 1 << 12, 2, 42),
        &corpus(docs),
    )
    .unwrap()
}

/// Spawn `replicas` replicas of every shard in the plan.
fn spawn_nodes(plan: &ClusterPlan, replicas: u32) -> Vec<Vec<ShardNode>> {
    plan.shards
        .iter()
        .zip(&plan.ranges)
        .enumerate()
        .map(|(s, (shard, &(lo, hi)))| {
            (0..replicas)
                .map(|r| {
                    ShardNode::spawn(shard.clone(), s as u32, r, lo, hi).expect("spawn shard node")
                })
                .collect()
        })
        .collect()
}

fn topology(nodes: &[Vec<ShardNode>]) -> Vec<Vec<SocketAddr>> {
    nodes
        .iter()
        .map(|reps| reps.iter().map(ShardNode::addr).collect())
        .collect()
}

/// Query mixes: per-doc planted intersections, the shared term set, and
/// absent terms (all-false-positive territory).
fn query_mix(docs: u64) -> Vec<Vec<u64>> {
    let mut queries: Vec<Vec<u64>> = (0..docs)
        .map(|d| (3..7u64).map(|t| d << 16 | t).collect())
        .collect();
    queries.push(vec![0xABC0, 0xABC1]);
    queries.push(vec![0x7777_0001, 0x7777_0002]);
    queries
}

#[test]
fn scatter_gather_is_bit_identical_to_monolith() {
    let plan = plan(3, 30);
    let nodes = spawn_nodes(&plan, 1);
    let coordinator = Coordinator::connect(&topology(&nodes)).expect("connect");
    assert_eq!(coordinator.n_shards(), 3);
    for terms in query_mix(30) {
        let reply = coordinator.query(&terms, 0.0, DEADLINE).expect("query");
        assert!(reply.degraded.is_empty());
        let mono = plan.monolith.query_terms_u64(&terms, QueryMode::Full);
        assert_eq!(reply.docs, mono, "terms {terms:?}");
    }
    let stats = coordinator.stats();
    assert_eq!(stats.queries, 32);
    assert_eq!(stats.degraded_replies, 0);
    assert!(stats.shards.iter().all(|s| s.failovers == 0), "{stats}");
}

#[test]
fn a_query_with_no_deadline_answers_like_any_other() {
    let plan = plan(2, 16);
    let nodes = spawn_nodes(&plan, 1);
    let coordinator = Coordinator::connect(&topology(&nodes)).expect("connect");
    let terms: Vec<u64> = vec![3 << 16 | 3, 3 << 16 | 4];
    let reply = coordinator
        .query(&terms, 0.0, Duration::MAX)
        .expect("query");
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
}

#[test]
fn killing_one_replica_loses_zero_queries() {
    let plan = plan(2, 20);
    let mut nodes = spawn_nodes(&plan, 2);
    let coordinator = Coordinator::connect(&topology(&nodes)).expect("connect");
    let queries = query_mix(20);

    // Warm traffic, then kill replica 0 of shard 0 mid-load.
    for terms in &queries[..5] {
        coordinator.query(terms, 0.0, DEADLINE).expect("warm query");
    }
    nodes[0][0].kill();
    let mut failed = 0u64;
    for _ in 0..3 {
        for terms in &queries {
            match coordinator.query(terms, 0.0, DEADLINE) {
                Ok(reply) => {
                    assert!(reply.degraded.is_empty(), "sibling replica must cover");
                    let mono = plan.monolith.query_terms_u64(terms, QueryMode::Full);
                    assert_eq!(reply.docs, mono);
                }
                Err(_) => failed += 1,
            }
        }
    }
    assert_eq!(failed, 0, "failover must lose zero queries");
    let stats = coordinator.stats();
    assert!(
        stats.shards[0].failovers > 0,
        "the dead replica must have triggered failovers: {stats}"
    );
}

#[test]
fn killing_a_full_replica_set_degrades_instead_of_failing() {
    let plan = plan(2, 20);
    let mut nodes = spawn_nodes(&plan, 2);
    let coordinator = Coordinator::connect(&topology(&nodes)).expect("connect");
    let queries = query_mix(20);
    for terms in &queries[..3] {
        coordinator.query(terms, 0.0, DEADLINE).expect("warm query");
    }
    // Kill the entire replica set of shard 1.
    nodes[1][0].kill();
    nodes[1][1].kill();
    // Every query tries both dead replicas, so the coordinator's fail
    // threshold (3 consecutive transport errors) demotes each within the
    // first three of the 22 queries below.
    let (lo, hi) = plan.ranges[1];
    let mut degraded_seen = 0u64;
    for terms in &queries {
        let reply = coordinator
            .query(terms, 0.0, DEADLINE)
            .expect("a dead shard must degrade the reply, not fail it");
        if reply.degraded.is_empty() {
            continue; // pooled connections can serve a few more answers
        }
        assert_eq!(reply.degraded, vec![1]);
        degraded_seen += 1;
        // The partial answer is exactly the monolith minus shard 1's range.
        let expect: Vec<u32> = plan
            .monolith
            .query_terms_u64(terms, QueryMode::Full)
            .into_iter()
            .filter(|&d| d < lo || d >= hi)
            .collect();
        assert_eq!(reply.docs, expect, "terms {terms:?}");
    }
    assert!(
        degraded_seen > 0,
        "some replies must have been marked degraded"
    );
    let stats = coordinator.stats();
    assert_eq!(stats.degraded_replies, degraded_seen);
    assert!(
        stats.shards[1].replicas.iter().all(|r| !r.up),
        "both replicas of shard 1 must be demoted: {stats}"
    );
}

#[test]
fn front_speaks_the_standard_protocol_and_the_degraded_extension() {
    let plan = plan(2, 16);
    let mut nodes = spawn_nodes(&plan, 1);
    let coordinator = Coordinator::connect(&topology(&nodes)).expect("connect");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind front");
    let front_addr = listener.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let coordinator = &coordinator;
        let stop_ref = &stop;
        scope.spawn(move || {
            serve_cluster(coordinator, listener, stop_ref).expect("front");
        });

        // A plain TcpClient works against the coordinator unchanged.
        let mut plain = TcpClient::connect(front_addr).expect("dial front");
        for terms in query_mix(16) {
            let reply = plain.query(&terms, 0.0, DEADLINE).expect("plain query");
            let mono = plan.monolith.query_terms_u64(&terms, QueryMode::Full);
            assert_eq!(reply.docs, mono);
        }
        // STATS round-trips as text.
        let text = plain.stats().expect("stats");
        assert!(text.contains("cluster:"), "stats dump: {text}");

        // The cluster client sees the same answers...
        let mut cluster = ClusterClient::connect(front_addr).expect("dial front");
        let probe: Vec<u64> = vec![3 << 16 | 3, 3 << 16 | 4];
        let reply = cluster.query(&probe, 0.0, DEADLINE).expect("cluster query");
        assert_eq!(
            reply.docs,
            plan.monolith.query_terms_u64(&probe, QueryMode::Full)
        );
        assert!(reply.degraded.is_empty());

        // ...and surfaces the degraded extension once a shard dies.
        nodes[1][0].kill();
        let (lo, _) = plan.ranges[1];
        let mut saw_degraded = false;
        for _ in 0..4 {
            let reply = cluster
                .query(&probe, 0.0, DEADLINE)
                .expect("degraded query");
            if reply.degraded == vec![1] {
                saw_degraded = true;
                assert!(reply.docs.iter().all(|&d| d < lo));
            }
        }
        assert!(saw_degraded, "the dead shard must surface in degraded");

        // A malformed frame gets a bad-request answer, then the stream ends.
        let mut raw = TestClient::connect(front_addr).expect("raw dial");
        raw.send_framed(&[0xFF, 1, 2, 3, 4]).expect("garbage");
        let payload = raw.read_frame(16 << 20).expect("frame");
        assert_eq!(payload[0], rambo_server::wire::STATUS_BAD_REQUEST);

        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn front_answers_a_frame_split_across_idle_ticks() {
    let plan = plan(2, 16);
    let nodes = spawn_nodes(&plan, 1);
    let coordinator = Coordinator::connect(&topology(&nodes)).expect("connect");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind front");
    let front_addr = listener.local_addr().expect("addr");
    let stop = AtomicBool::new(false);
    let terms: Vec<u64> = vec![3 << 16 | 3, 3 << 16 | 4];
    let payload = std::thread::scope(|scope| {
        scope.spawn(|| serve_cluster(&coordinator, listener, &stop).expect("front"));
        // 3-byte pieces 80 ms apart: every piece lands after an idle tick of
        // the front's 50 ms read timeout.
        let mut raw = TestClient::connect(front_addr).expect("raw dial");
        raw.set_split(3, Duration::from_millis(80));
        let frame = rambo_server::wire::encode_query_request(&terms, 0.0, DEADLINE);
        let payload = raw.send(&frame).and_then(|()| raw.read_frame(16 << 20));
        stop.store(true, Ordering::Relaxed);
        payload
    });
    let payload = payload.expect("the split frame is answered");
    assert_eq!(
        rambo_server::wire::parse_response(&payload)
            .expect("a reply")
            .docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
}

#[test]
fn connect_rejects_contradictory_topologies() {
    let plan = plan(2, 16);
    let nodes = spawn_nodes(&plan, 1);
    let mut topo = topology(&nodes);
    // Swap the shards: every node now announces the "wrong" shard id.
    topo.swap(0, 1);
    match Coordinator::connect(&topo) {
        Err(ClusterError::Config(msg)) => {
            assert!(msg.contains("announces shard"), "got: {msg}")
        }
        other => panic!("swapped topology must be rejected, got {other:?}"),
    }
    // An empty topology is rejected too.
    assert!(matches!(
        Coordinator::connect(&[]),
        Err(ClusterError::Config(_))
    ));
}

#[test]
fn connect_rejects_mismatched_replica_catalogs() {
    // Two "replicas" of shard 0 serving different corpora: the manifests'
    // fingerprints disagree and connect must refuse to treat them as one
    // replica set (hedging between them would give nondeterministic
    // answers).
    let plan_a = plan(2, 16);
    let plan_b = plan(2, 18);
    let (lo, hi) = plan_a.ranges[0];
    let node_a = ShardNode::spawn(plan_a.shards[0].clone(), 0, 0, lo, hi).expect("node a");
    let node_b = ShardNode::spawn(plan_b.shards[0].clone(), 0, 1, lo, hi).expect("node b");
    match Coordinator::connect(&[vec![node_a.addr(), node_b.addr()]]) {
        Err(ClusterError::Config(msg)) => {
            assert!(msg.contains("disagree"), "got: {msg}")
        }
        other => panic!("mismatched replicas must be rejected, got {other:?}"),
    }
}
