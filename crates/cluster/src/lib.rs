//! # rambo-cluster — distributed RAMBO: coordinator/router with
//! scatter-gather, replica failover, and query hedging
//!
//! The paper's deployment story (§5.3) is explicitly distributed: 170TB of
//! raw sequence data is indexed "on a distributed cluster of 100 nodes",
//! with the archive partitioned across machines and each machine indexing
//! its slice independently. `rambo-core`'s [`rambo_core::ShardedRambo`]
//! already models the *construction* half — a two-level hash gives every
//! node a disjoint slice of the global bucket space, so per-node shards
//! stack into the monolithic index bit-for-bit. This crate is the
//! *serving* half: those same node-local shards, deployed behind real
//! sockets, answering as one index.
//!
//! Three pieces, std-only like `rambo-server`:
//!
//! * **Shard nodes** — [`ShardNode`] wraps the existing
//!   [`rambo_server::Server`] + [`rambo_server::serve_tcp_with`] stack
//!   around one node-local shard, and registers a [`NodeManifest`] (shard
//!   id, replica id, global doc-id range, catalog fingerprint) served to
//!   `HELLO` requests, so a coordinator can *verify* its topology instead
//!   of trusting its config file.
//! * **Coordinator** — [`Coordinator`] speaks the same client protocol
//!   ([`rambo_server::wire`], plus the degraded status in [`wire`]) on the
//!   front ([`serve_cluster`]) and scatter-gathers every query to all
//!   shards over per-replica connection pools. Because the two-level
//!   partition makes bucket slices disjoint, a node-local answer *is* the
//!   monolith's answer restricted to that node's documents — false
//!   positives included — so the union of per-shard answers is
//!   **bit-identical** to querying the stacked monolith (property-tested,
//!   and asserted per query over loopback shard servers). Every decision
//!   of a scatter is made by a state machine that is fed bytes, closes and
//!   ticks with the caller's clock and never touches a socket or reads the
//!   time itself, so its rules are tested as scripted schedules; the driver
//!   is one `poll(2)` loop on the calling thread ([`rambo_server::poll`]),
//!   with no thread per query or per attempt. Deadlines propagate to
//!   shards net of elapsed time, and **hedged reads** re-issue a
//!   straggling request to a sibling replica after a delay derived from
//!   the replica's own latency histogram quantile — the first answer wins.
//!   A shard's reply is checked before it is merged: strictly ascending
//!   local ids inside the shard's range, from a tier it serves.
//! * **Replica failover** — a replica is demoted after consecutive
//!   transport errors (a hedge it lost counts as one) and re-probed after a
//!   cool-down; queries fail over to siblings transparently. When *every*
//!   replica of a shard is unreachable the coordinator answers
//!   **degraded** — the union over reachable shards plus the list of
//!   missing shard ids ([`ClusterReply::degraded`], wire status 4) —
//!   instead of failing the query. [`ClusterStats`] exposes per-shard
//!   latency histograms, hedge and failover counters, and degraded-reply
//!   counts via the coordinator's `STATS` frame.
//!
//! ```
//! use rambo_cluster::{plan_cluster, Coordinator, ShardNode};
//! use rambo_core::{QueryMode, RamboParams};
//! use std::time::Duration;
//!
//! // Partition a corpus across 2 nodes with the two-level hash.
//! let docs: Vec<(String, Vec<u64>)> = (0..24u64)
//!     .map(|d| (format!("doc{d}"), (0..40).map(|t| d << 16 | t).collect()))
//!     .collect();
//! let params = RamboParams::two_level(2, 16, 3, 1 << 12, 2, 7);
//! let plan = plan_cluster(params, &docs).unwrap();
//!
//! // One replica per shard, serving over loopback.
//! let nodes: Vec<ShardNode> = plan
//!     .shards
//!     .iter()
//!     .zip(&plan.ranges)
//!     .enumerate()
//!     .map(|(s, (shard, &(lo, hi)))| ShardNode::spawn(shard.clone(), s as u32, 0, lo, hi).unwrap())
//!     .collect();
//! let topology: Vec<Vec<std::net::SocketAddr>> =
//!     nodes.iter().map(|n| vec![n.addr()]).collect();
//!
//! // The coordinator's union answer is bit-identical to the monolith.
//! let coordinator = Coordinator::connect(&topology).unwrap();
//! let terms = vec![5u64 << 16 | 1, 5 << 16 | 2];
//! let reply = coordinator
//!     .query(&terms, 0.0, Duration::from_secs(2))
//!     .unwrap();
//! let expected = plan.monolith.query_terms_u64(&terms, QueryMode::Full);
//! assert_eq!(reply.docs, expected);
//! assert!(reply.degraded.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod coordinator;
mod front;
mod health;
mod manifest;
mod partition;
mod pool;
mod scatter;
mod shard;
pub mod wire;

pub use client::ClusterClient;
pub use coordinator::{
    ClusterError, ClusterReply, ClusterStats, Coordinator, ReplicaStats, ShardStats,
};
pub use front::serve_cluster;
pub use manifest::{fingerprint_bytes, ManifestError, NodeManifest};
pub use partition::{plan_cluster, ClusterPlan};
pub use shard::ShardNode;
