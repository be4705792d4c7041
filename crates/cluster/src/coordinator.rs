//! The coordinator/router: topology discovery, and the driver of the
//! scatter-gather with hedged reads and replica failover.
//!
//! Every decision of a query — which replica is the primary, when a hedge
//! fires, where an attempt fails over, who is charged, what the answer is —
//! is made by [`Scatter`](crate::scatter), a step function with no socket
//! and no clock. `Coordinator::query` only drives it, on the calling
//! thread: it writes the frames the scatter asks for, blocks in `poll(2)`
//! until a reply is readable or the scatter's next wake-up is due, and
//! feeds what it read, what closed and the time back in.

use crate::health::ReplicaHealth;
use crate::manifest::{ManifestError, NodeManifest};
use crate::pool::ClientPool;
use crate::scatter::{Action, Event, Scatter};
use rambo_server::poll::{self, PollFd, POLLIN};
use rambo_server::{ServerError, TcpClient};
use rambo_workloads::stats::LatencyHistogram;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-address TCP connect timeout (topology discovery and pool refills).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Idle connections kept per replica.
const POOL_CAPACITY: usize = 4;

/// A coordinator answer: the global union, plus which shards (if any)
/// could not be reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReply {
    /// Matching global (node-major) document ids, ascending.
    pub docs: Vec<u32>,
    /// Highest (most folded) tier any shard answered from.
    pub tier: usize,
    /// Shard ids whose entire replica set was unreachable; their documents
    /// are missing from `docs`. Empty for a complete answer.
    pub degraded: Vec<u32>,
}

/// Coordinator-level failure.
#[derive(Debug)]
pub enum ClusterError {
    /// Transport failure during topology discovery, or a failed `poll(2)`.
    Io(io::Error),
    /// A node's `HELLO` answer was not a valid manifest.
    Manifest {
        /// Which node answered.
        addr: String,
        /// What was malformed.
        error: ManifestError,
    },
    /// The configured topology contradicts what the nodes announced.
    Config(String),
    /// A (reachable) shard rejected the query — its deadline passed; the
    /// cluster answer would be incomplete for a non-availability reason,
    /// so the rejection is surfaced rather than masked as degraded.
    Shard {
        /// Which shard rejected.
        shard: u32,
        /// Its rejection.
        error: ServerError,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "cluster transport error: {e}"),
            Self::Manifest { addr, error } => {
                write!(f, "cluster topology error: {addr}: {error}")
            }
            Self::Config(msg) => write!(f, "cluster topology error: {msg}"),
            Self::Shard { shard, error } => {
                write!(f, "shard {shard} rejected the query: {error}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Manifest { error, .. } => Some(error),
            Self::Config(_) => None,
            Self::Shard { error, .. } => Some(error),
        }
    }
}

impl From<io::Error> for ClusterError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// One replica's connections, health and latency history.
#[derive(Debug)]
pub(crate) struct Replica {
    pub(crate) pool: ClientPool,
    pub(crate) health: ReplicaHealth,
    /// Per-attempt latency history; feeds the hedge delay.
    pub(crate) latency: LatencyHistogram,
    pub(crate) demotions: AtomicU64,
    pub(crate) manifest: NodeManifest,
}

impl Replica {
    /// A healthy replica at `addr` with an empty pool and history.
    pub(crate) fn new(addr: SocketAddr, manifest: NodeManifest) -> Self {
        Self {
            pool: ClientPool::new(addr, POOL_CAPACITY),
            health: ReplicaHealth::default(),
            latency: LatencyHistogram::new(),
            demotions: AtomicU64::new(0),
            manifest,
        }
    }
}

/// One shard's routing state (coordinator-internal).
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) id: u32,
    pub(crate) doc_lo: u32,
    pub(crate) replicas: Vec<Replica>,
    /// Round-robin cursor for primary selection.
    pub(crate) rr: AtomicUsize,
    /// Whole-query latency as seen by the gather loop.
    pub(crate) latency: LatencyHistogram,
    pub(crate) hedges: AtomicU64,
    pub(crate) hedge_wins: AtomicU64,
    pub(crate) failovers: AtomicU64,
}

/// The scatter-gather router. See the crate docs for the full picture.
#[derive(Debug)]
pub struct Coordinator {
    pub(crate) shards: Vec<Shard>,
    /// Monotonic epoch for the probe scheduler's nanosecond clock.
    pub(crate) epoch: Instant,
    queries: AtomicU64,
    pub(crate) degraded_replies: AtomicU64,
}

impl Coordinator {
    /// A coordinator over already-verified shards.
    pub(crate) fn with_shards(shards: Vec<Shard>, epoch: Instant) -> Self {
        Self {
            shards,
            epoch,
            queries: AtomicU64::new(0),
            degraded_replies: AtomicU64::new(0),
        }
    }

    /// Dial a replica and complete the `HELLO` exchange. The whole exchange
    /// is bounded by [`CONNECT_TIMEOUT`] — discovery must never hang on a
    /// half-dead peer — and retried once, because a freshly spawned node
    /// on a loaded host can miss a single read window without being
    /// dead. Each retry starts from a brand-new connection so a late
    /// reply to the first attempt can never desynchronize the stream.
    fn dial_hello(addr: SocketAddr) -> Result<(TcpClient, Vec<u8>), ClusterError> {
        let mut last = None;
        for _ in 0..2 {
            let attempt = (|| {
                let mut client = TcpClient::connect_with_timeout(addr, CONNECT_TIMEOUT)?;
                client.set_io_timeout(Some(CONNECT_TIMEOUT))?;
                let raw = client.hello().map_err(|e| {
                    ClusterError::Config(format!("{addr} did not answer HELLO: {e}"))
                })?;
                Ok((client, raw))
            })();
            match attempt {
                Ok(ok) => return Ok(ok),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one dial attempt"))
    }

    /// Connect to a cluster: `topology[s]` lists the replica addresses of
    /// shard `s`. Every replica is dialed, `HELLO`-verified, and its
    /// manifest cross-checked — replicas of one shard must announce the
    /// same shard id, doc range and catalog fingerprint, shard ids must
    /// match their position, and doc ranges must be ascending and
    /// disjoint (so concatenating per-shard answers is already sorted).
    ///
    /// # Errors
    /// [`ClusterError::Io`] when a replica cannot be reached,
    /// [`ClusterError::Config`] when the manifests contradict the
    /// configured topology.
    pub fn connect(topology: &[Vec<SocketAddr>]) -> Result<Self, ClusterError> {
        if topology.is_empty() {
            return Err(ClusterError::Config("topology has no shards".into()));
        }
        let mut shards = Vec::with_capacity(topology.len());
        let mut prev_hi: Option<u32> = None;
        for (s, addrs) in topology.iter().enumerate() {
            if addrs.is_empty() {
                return Err(ClusterError::Config(format!("shard {s} has no replicas")));
            }
            let mut replicas = Vec::with_capacity(addrs.len());
            let mut first: Option<NodeManifest> = None;
            for &addr in addrs {
                let (client, raw) = Self::dial_hello(addr)?;
                let manifest =
                    NodeManifest::decode(&raw).map_err(|error| ClusterError::Manifest {
                        addr: addr.to_string(),
                        error,
                    })?;
                if manifest.shard as usize != s {
                    return Err(ClusterError::Config(format!(
                        "{addr} announces shard {} but is configured as shard {s}",
                        manifest.shard
                    )));
                }
                match &first {
                    None => first = Some(manifest),
                    Some(head) => {
                        let consistent = head.doc_lo == manifest.doc_lo
                            && head.doc_hi == manifest.doc_hi
                            && head.fingerprint == manifest.fingerprint
                            && head.tiers == manifest.tiers
                            && head.buckets == manifest.buckets;
                        if !consistent {
                            return Err(ClusterError::Config(format!(
                                "shard {s} replicas disagree: {addr} serves a different \
                                 catalog or doc range than {}",
                                addrs[0]
                            )));
                        }
                    }
                }
                let replica = Replica::new(addr, manifest);
                replica.pool.put(client.into_inner()); // seed with the discovery connection
                replicas.push(replica);
            }
            let head = first.expect("at least one replica");
            if let Some(hi) = prev_hi {
                if head.doc_lo < hi {
                    return Err(ClusterError::Config(format!(
                        "shard {s} doc range [{}, {}) overlaps or precedes shard {}",
                        head.doc_lo,
                        head.doc_hi,
                        s - 1
                    )));
                }
            }
            prev_hi = Some(head.doc_hi);
            shards.push(Shard {
                id: s as u32,
                doc_lo: head.doc_lo,
                replicas,
                ..Shard::default()
            });
        }
        Ok(Self::with_shards(shards, Instant::now()))
    }

    /// Number of shards in the topology.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Scatter-gather a query: the union of per-shard answers, mapped to
    /// global doc ids. Unreachable shards degrade the reply
    /// ([`ClusterReply::degraded`]); reachable-but-rejecting shards fail it
    /// ([`ClusterError::Shard`]). A deadline longer than a request frame
    /// carries (`u32::MAX` ms) is cut to it.
    ///
    /// # Errors
    /// See [`ClusterError`].
    pub fn query(
        &self,
        terms: &[u64],
        fpr_budget: f64,
        deadline: Duration,
    ) -> Result<ClusterReply, ClusterError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let (mut scatter, actions) =
            Scatter::new(self, terms, fpr_budget, Instant::now(), deadline);
        // One entry per attempt, in launch order; `None` once released.
        let mut links: Vec<Option<(TcpStream, &ClientPool)>> = Vec::new();
        self.perform(&mut scatter, &mut links, actions);
        let (mut fds, mut open) = (Vec::new(), Vec::new());
        let mut chunk = [0u8; 16 << 10];
        while let Some(wake) = scatter.wake_at() {
            fds.clear();
            open.clear();
            for (a, link) in links.iter().enumerate() {
                if let Some((stream, _)) = link {
                    fds.push(PollFd::new(stream, POLLIN));
                    open.push(a);
                }
            }
            poll::wait(&mut fds, wake.saturating_duration_since(Instant::now()))?;
            let now = Instant::now();
            for (&a, fd) in open.iter().zip(&fds) {
                // An attempt released by an earlier event of this turn is
                // not read again.
                let Some((stream, _)) = links[a].as_mut().filter(|_| fd.revents() != 0) else {
                    continue;
                };
                let event = match stream.read(&mut chunk) {
                    Ok(0) => Event::Closed(a),
                    Ok(n) => Event::Bytes(a, &chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => Event::Closed(a),
                };
                let actions = scatter.feed(now, event);
                self.perform(&mut scatter, &mut links, actions);
            }
            let actions = scatter.feed(now, Event::Tick);
            self.perform(&mut scatter, &mut links, actions);
        }
        scatter.finish()
    }

    /// Do what the scatter asked. A send dials when the replica's pool is
    /// empty; dial and write block, bounded by the smaller of
    /// [`CONNECT_TIMEOUT`] and the attempt's budget, and a request that
    /// cannot be sent is fed back as a closed attempt.
    fn perform<'c>(
        &'c self,
        scatter: &mut Scatter<'_>,
        links: &mut Vec<Option<(TcpStream, &'c ClientPool)>>,
        actions: Vec<Action>,
    ) {
        let mut queue = VecDeque::from(actions);
        while let Some(action) = queue.pop_front() {
            match action {
                Action::Send {
                    attempt,
                    shard,
                    replica,
                    frame,
                    budget,
                } => {
                    debug_assert_eq!(attempt, links.len(), "attempts launch in order");
                    let pool = &self.shards[shard].replicas[replica].pool;
                    let sent = pool
                        .get(budget.min(CONNECT_TIMEOUT))
                        .and_then(|mut stream| {
                            stream.set_write_timeout(Some(budget))?;
                            stream.write_all(&frame).map(|()| stream)
                        });
                    links.push(sent.ok().map(|stream| (stream, pool)));
                    if links[attempt].is_none() {
                        queue.extend(scatter.feed(Instant::now(), Event::Closed(attempt)));
                    }
                }
                Action::Release { attempt, pool } => {
                    if let (Some((stream, home)), true) = (links[attempt].take(), pool) {
                        home.put(stream);
                    }
                }
                Action::ClearPool { shard, replica } => {
                    self.shards[shard].replicas[replica].pool.clear();
                }
            }
        }
    }

    /// A point-in-time stats snapshot (also serialized by the front's
    /// `STATS` opcode).
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            queries: self.queries.load(Ordering::Relaxed),
            degraded_replies: self.degraded_replies.load(Ordering::Relaxed),
            shards: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    shard: s.id,
                    queries: s.latency.count(),
                    p50: s.latency.quantile(0.5),
                    p99: s.latency.quantile(0.99),
                    hedges: s.hedges.load(Ordering::Relaxed),
                    hedge_wins: s.hedge_wins.load(Ordering::Relaxed),
                    failovers: s.failovers.load(Ordering::Relaxed),
                    replicas: s
                        .replicas
                        .iter()
                        .map(|r| ReplicaStats {
                            addr: r.pool.addr(),
                            replica: r.manifest.replica,
                            up: r.health.is_up(),
                            errors: r.health.total_errors(),
                            demotions: r.demotions.load(Ordering::Relaxed),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Health and error counters of one replica.
#[derive(Debug, Clone)]
pub struct ReplicaStats {
    /// Replica address.
    pub addr: SocketAddr,
    /// Replica id from its manifest.
    pub replica: u32,
    /// Currently in the routing rotation.
    pub up: bool,
    /// Lifetime transport errors.
    pub errors: u64,
    /// Times this replica was demoted.
    pub demotions: u64,
}

/// Latency and resilience counters of one shard.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard id.
    pub shard: u32,
    /// Successful scatter legs recorded.
    pub queries: u64,
    /// Median shard-leg latency.
    pub p50: Duration,
    /// Tail shard-leg latency.
    pub p99: Duration,
    /// Hedges fired.
    pub hedges: u64,
    /// Queries won by the hedge attempt.
    pub hedge_wins: u64,
    /// Failover re-launches after an attempt error.
    pub failovers: u64,
    /// Per-replica health.
    pub replicas: Vec<ReplicaStats>,
}

/// Cluster-wide counters, serialized as plain text by the `STATS` opcode.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Queries routed.
    pub queries: u64,
    /// Replies that degraded (≥1 shard unreachable).
    pub degraded_replies: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
}

impl fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cluster: {} queries, {} degraded replies",
            self.queries, self.degraded_replies
        )?;
        for s in &self.shards {
            writeln!(
                f,
                "  shard {}: {} legs, p50 {:?}, p99 {:?}, {} hedges ({} won), {} failovers",
                s.shard, s.queries, s.p50, s.p99, s.hedges, s.hedge_wins, s.failovers
            )?;
            for r in &s.replicas {
                writeln!(
                    f,
                    "    replica {} @ {}: {}, {} errors, {} demotions",
                    r.replica,
                    r.addr,
                    if r.up { "up" } else { "down" },
                    r.errors,
                    r.demotions
                )?;
            }
        }
        Ok(())
    }
}
