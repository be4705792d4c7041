//! A live RAMBO cluster on one machine: shard a corpus over node-local
//! servers, front them with a scatter-gather coordinator, then exercise
//! failover and degraded mode by killing replicas.
//!
//! This is the serving half of the §5.3 story: `distributed_index.rs`
//! shows the *build* side (shard, ingest in parallel, stack losslessly);
//! here each node keeps its local shard and answers queries in place,
//! while a coordinator unions the per-shard answers — bit-identical to
//! the stacked monolith, because the two-level hash gives every node a
//! disjoint slice of the global bucket space.
//!
//! ```text
//! cargo run --release --example cluster
//! ```

use rambo::cluster::{plan_cluster, Coordinator, ShardNode};
use rambo::core::{QueryMode, RamboParams};
use std::time::Duration;

const NODES: u64 = 3;
const REPLICAS: u32 = 2;
const DEADLINE: Duration = Duration::from_secs(5);

fn main() {
    // A small corpus: every document gets a private run of terms plus a
    // shared triple so multi-document hits exist.
    let docs: Vec<(String, Vec<u64>)> = (0..30u64)
        .map(|d| {
            let terms = (0..3u64)
                .map(|t| 0xABC0 | t)
                .chain((3..24).map(|t| d << 16 | t))
                .collect();
            (format!("accession-{d}"), terms)
        })
        .collect();

    // Plan: ingest once, keep both the node-local shards and the stacked
    // monolith (the parity reference).
    let params = RamboParams::two_level(NODES, 16, 3, 1 << 12, 2, 0xC1C2);
    let plan = plan_cluster(params, &docs).expect("plan cluster");
    println!(
        "planned {} shards over {} documents (ranges {:?})",
        plan.shards.len(),
        docs.len(),
        plan.ranges
    );

    // Spawn REPLICAS replicas of every shard, each a real TCP server over
    // its node-local index, announcing itself via a HELLO manifest.
    let mut nodes: Vec<Vec<ShardNode>> = plan
        .shards
        .iter()
        .zip(&plan.ranges)
        .enumerate()
        .map(|(s, (shard, &(lo, hi)))| {
            (0..REPLICAS)
                .map(|r| {
                    ShardNode::spawn(shard.clone(), s as u32, r, lo, hi).expect("spawn shard node")
                })
                .collect()
        })
        .collect();
    let topology: Vec<Vec<_>> = nodes
        .iter()
        .map(|reps| reps.iter().map(ShardNode::addr).collect())
        .collect();
    for (s, reps) in topology.iter().enumerate() {
        println!("shard {s}: replicas at {reps:?}");
    }

    // The coordinator validates every manifest (shard ids, disjoint
    // ranges, replica fingerprints) before serving.
    let coordinator = Coordinator::connect(&topology).expect("connect coordinator");

    // Scatter-gather answers are bit-identical to the monolith.
    let probe: Vec<u64> = vec![7 << 16 | 3, 7 << 16 | 4, 7 << 16 | 5];
    let reply = coordinator.query(&probe, 0.0, DEADLINE).expect("query");
    let mono = plan.monolith.query_terms_u64(&probe, QueryMode::Full);
    assert_eq!(reply.docs, mono);
    println!("scatter-gather == monolith: docs {:?}", reply.docs);

    // Kill one replica of shard 0: its sibling covers, no query fails.
    nodes[0][0].kill();
    for _ in 0..5 {
        let reply = coordinator.query(&probe, 0.0, DEADLINE).expect("failover");
        assert_eq!(reply.docs, mono);
        assert!(reply.degraded.is_empty());
    }
    println!("killed 1 replica of shard 0: failover covered, zero lost queries");

    // Kill the whole replica set: answers degrade instead of failing —
    // the reply lists the dead shard and covers everything else.
    for node in &mut nodes[0] {
        node.kill();
    }
    let (lo, hi) = plan.ranges[0];
    let mut degraded_reply = None;
    for _ in 0..6 {
        let reply = coordinator.query(&probe, 0.0, DEADLINE).expect("degraded");
        if !reply.degraded.is_empty() {
            degraded_reply = Some(reply);
            break;
        }
    }
    let reply = degraded_reply.expect("shard 0 must be reported down");
    assert_eq!(reply.degraded, vec![0]);
    assert!(reply.docs.iter().all(|&d| d < lo || d >= hi));
    println!(
        "killed shard 0 entirely: degraded reply (down shards {:?}), partial docs {:?}",
        reply.degraded, reply.docs
    );

    println!("\n{}", coordinator.stats());
}
