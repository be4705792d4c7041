//! The coordinator/router: scatter-gather with hedged reads and replica
//! failover.
//!
//! One query fans out to every shard in a scoped thread each; within a
//! shard, attempts run on short-lived detached threads so the orchestrator
//! can race a hedge against a straggling primary and take whichever
//! answers first. An attempt owns everything it touches (`Arc`s to the
//! replica's pool/health/histogram), so a late loser cleans up after
//! itself — recording its outcome and recycling its connection — even
//! after the query has long returned.

use crate::health::ReplicaHealth;
use crate::manifest::{ManifestError, NodeManifest};
use crate::pool::ClientPool;
use rambo_server::{QueryReply, ServerError, TcpClient, TcpClientError};
use rambo_workloads::stats::LatencyHistogram;
use std::fmt;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Per-address TCP connect timeout (topology discovery and pool refills).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Idle connections kept per replica.
const POOL_CAPACITY: usize = 4;
/// Consecutive transport errors that demote a replica.
const FAIL_THRESHOLD: u32 = 3;
/// Cool-down before a demoted replica is re-probed with a live query.
const PROBE_INTERVAL: Duration = Duration::from_millis(500);
/// Latency quantile of the primary replica's own history that arms the
/// hedge timer.
const HEDGE_QUANTILE: f64 = 0.99;
/// Lower clamp on the hedge delay (don't hedge on micro-jitter).
const HEDGE_FLOOR: Duration = Duration::from_millis(1);
/// Upper clamp on the hedge delay (a slow history must not disable hedging
/// entirely).
const HEDGE_CAP: Duration = Duration::from_millis(100);
/// Hedge delay until the replica has [`HEDGE_MIN_SAMPLES`] recorded
/// attempts.
const HEDGE_COLD: Duration = Duration::from_millis(20);
/// Attempts a replica's histogram needs before its quantile is trusted.
const HEDGE_MIN_SAMPLES: u64 = 32;

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
    /// Transport failure during topology discovery.
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

/// Everything an attempt thread needs about one replica — `Arc`-shared so
/// detached attempts outliving their query stay sound.
#[derive(Debug)]
struct Replica {
    pool: ClientPool,
    health: ReplicaHealth,
    /// Per-attempt latency history; feeds the hedge delay.
    latency: LatencyHistogram,
    demotions: AtomicU64,
    manifest: NodeManifest,
}

/// One shard's routing state (coordinator-internal).
#[derive(Debug)]
struct Shard {
    id: u32,
    doc_lo: u32,
    replicas: Vec<Arc<Replica>>,
    /// Round-robin cursor for primary selection.
    rr: AtomicUsize,
    /// Whole-query latency as seen by the gather loop.
    latency: LatencyHistogram,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    failovers: AtomicU64,
}

/// How one shard's scatter leg ended, before gathering.
enum ShardFailure {
    /// Every replica transport-failed (or none was eligible) — the shard
    /// is unreachable and the reply degrades.
    Unreachable,
    /// A live shard said no (its deadline passed).
    Rejected(ServerError),
}

/// The scatter-gather router. See the crate docs for the full picture.
#[derive(Debug)]
pub struct Coordinator {
    shards: Vec<Shard>,
    /// Monotonic epoch for the probe scheduler's nanosecond clock.
    epoch: Instant,
    queries: AtomicU64,
    degraded_replies: AtomicU64,
}

impl Coordinator {
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
                let pool = ClientPool::new(addr, CONNECT_TIMEOUT, POOL_CAPACITY);
                pool.put(client); // seed with the discovery connection
                replicas.push(Arc::new(Replica {
                    pool,
                    health: ReplicaHealth::new(),
                    latency: LatencyHistogram::new(),
                    demotions: AtomicU64::new(0),
                    manifest,
                }));
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
                rr: AtomicUsize::new(0),
                latency: LatencyHistogram::new(),
                hedges: AtomicU64::new(0),
                hedge_wins: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
            });
        }
        Ok(Self {
            shards,
            epoch: Instant::now(),
            queries: AtomicU64::new(0),
            degraded_replies: AtomicU64::new(0),
        })
    }

    /// Number of shards in the topology.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Scatter-gather a query: the union of per-shard answers, mapped to
    /// global doc ids. Unreachable shards degrade the reply
    /// ([`ClusterReply::degraded`]); reachable-but-rejecting shards fail it
    /// ([`ClusterError::Shard`]).
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
        let start = Instant::now();
        let terms: Arc<Vec<u64>> = Arc::new(terms.to_vec());
        let outcomes: Vec<Result<QueryReply, ShardFailure>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| {
                    let terms = Arc::clone(&terms);
                    scope.spawn(move || self.query_shard(shard, terms, fpr_budget, start, deadline))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard orchestrator panicked"))
                .collect()
        });

        let mut docs = Vec::new();
        let mut tier = 0usize;
        let mut degraded = Vec::new();
        for (shard, outcome) in self.shards.iter().zip(outcomes) {
            match outcome {
                Ok(reply) => {
                    tier = tier.max(reply.tier);
                    docs.extend(reply.docs.iter().map(|&local| shard.doc_lo + local));
                }
                Err(ShardFailure::Unreachable) => degraded.push(shard.id),
                Err(ShardFailure::Rejected(error)) => {
                    return Err(ClusterError::Shard {
                        shard: shard.id,
                        error,
                    })
                }
            }
        }
        if !degraded.is_empty() {
            self.degraded_replies.fetch_add(1, Ordering::Relaxed);
        }
        Ok(ClusterReply {
            docs,
            tier,
            degraded,
        })
    }

    /// One shard's scatter leg: primary attempt, hedge on the quantile
    /// timer, failover on error, first success wins.
    fn query_shard(
        &self,
        shard: &Shard,
        terms: Arc<Vec<u64>>,
        fpr_budget: f64,
        start: Instant,
        deadline: Duration,
    ) -> Result<QueryReply, ShardFailure> {
        let overall = start + deadline;
        let (tx, rx) = mpsc::channel::<(bool, Result<QueryReply, TcpClientError>)>();
        let mut used = vec![false; shard.replicas.len()];
        let now_ns = || self.epoch.elapsed().as_nanos() as u64;
        let probe_ns = PROBE_INTERVAL.as_nanos() as u64;

        let Some(primary) = self.pick_primary(shard, &used, now_ns(), probe_ns) else {
            return Err(ShardFailure::Unreachable);
        };
        used[primary] = true;
        let hedge_at = Instant::now() + Self::hedge_delay(&shard.replicas[primary]);
        self.launch(shard, primary, &tx, &terms, fpr_budget, overall, false);
        let mut inflight = 1usize;
        let mut hedged = false;
        let mut last_rejection: Option<ServerError> = None;

        loop {
            let now = Instant::now();
            if now >= overall {
                return Err(ShardFailure::Rejected(ServerError::DeadlineExceeded {
                    tier: 0,
                }));
            }
            let wake = if hedged || inflight == 0 {
                overall
            } else {
                overall.min(hedge_at)
            };
            match rx.recv_timeout(wake.saturating_duration_since(now)) {
                Ok((was_hedge, Ok(reply))) => {
                    shard.latency.record(start.elapsed());
                    if was_hedge {
                        shard.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(reply);
                }
                Ok((_, Err(e))) => {
                    inflight -= 1;
                    if let TcpClientError::Server(err) = e {
                        last_rejection = Some(err);
                    }
                    // Failover: try the next untried replica immediately.
                    if let Some(next) = self.pick_fallback(shard, &used, now_ns(), probe_ns) {
                        used[next] = true;
                        shard.failovers.fetch_add(1, Ordering::Relaxed);
                        self.launch(shard, next, &tx, &terms, fpr_budget, overall, hedged);
                        inflight += 1;
                    } else if inflight == 0 {
                        return Err(match last_rejection {
                            Some(err) => ShardFailure::Rejected(err),
                            None => ShardFailure::Unreachable,
                        });
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if !hedged && Instant::now() >= hedge_at {
                        hedged = true;
                        if let Some(next) = self.pick_fallback(shard, &used, now_ns(), probe_ns) {
                            used[next] = true;
                            shard.hedges.fetch_add(1, Ordering::Relaxed);
                            self.launch(shard, next, &tx, &terms, fpr_budget, overall, true);
                            inflight += 1;
                        }
                    }
                    // Otherwise the overall deadline fired; the top of the
                    // loop converts it.
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ShardFailure::Unreachable);
                }
            }
        }
    }

    /// Round-robin over healthy replicas; with none healthy, the one
    /// caller who wins the half-open probe CAS gets to test a demoted one.
    fn pick_primary(
        &self,
        shard: &Shard,
        used: &[bool],
        now_ns: u64,
        probe_ns: u64,
    ) -> Option<usize> {
        let n = shard.replicas.len();
        let cursor = shard.rr.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let i = (cursor + k) % n;
            if !used[i] && shard.replicas[i].health.is_up() {
                return Some(i);
            }
        }
        (0..n).find(|&i| !used[i] && shard.replicas[i].health.claim_probe(now_ns, probe_ns))
    }

    /// An untried replica for hedging/failover: healthy ones first, then a
    /// probe-eligible demoted one.
    fn pick_fallback(
        &self,
        shard: &Shard,
        used: &[bool],
        now_ns: u64,
        probe_ns: u64,
    ) -> Option<usize> {
        let up = (0..shard.replicas.len()).find(|&i| !used[i] && shard.replicas[i].health.is_up());
        up.or_else(|| {
            (0..shard.replicas.len())
                .find(|&i| !used[i] && shard.replicas[i].health.claim_probe(now_ns, probe_ns))
        })
    }

    /// The hedge timer for a primary: its own latency quantile, clamped;
    /// a fixed cold default until the histogram has enough samples.
    fn hedge_delay(replica: &Replica) -> Duration {
        if replica.latency.count() < HEDGE_MIN_SAMPLES {
            HEDGE_COLD
        } else {
            replica
                .latency
                .quantile(HEDGE_QUANTILE)
                .clamp(HEDGE_FLOOR, HEDGE_CAP)
        }
    }

    /// Fire one attempt on a detached thread. The thread owns `Arc`s to
    /// everything it touches and its socket reads are bounded by the
    /// remaining deadline, so it dies promptly even when nobody is left
    /// listening; health, histogram and pool updates happen in the
    /// attempt so late losers still count.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &self,
        shard: &Shard,
        replica_idx: usize,
        tx: &mpsc::Sender<(bool, Result<QueryReply, TcpClientError>)>,
        terms: &Arc<Vec<u64>>,
        fpr_budget: f64,
        overall: Instant,
        is_hedge: bool,
    ) {
        let replica = Arc::clone(&shard.replicas[replica_idx]);
        let terms = Arc::clone(terms);
        let tx = tx.clone();
        let probe_ns = PROBE_INTERVAL.as_nanos() as u64;
        let epoch = self.epoch;
        std::thread::spawn(move || {
            let remaining = overall.saturating_duration_since(Instant::now());
            let t0 = Instant::now();
            let result = attempt(&replica.pool, &terms, fpr_budget, remaining);
            match &result {
                Ok(_) => {
                    replica.latency.record(t0.elapsed());
                    replica.health.record_success();
                }
                Err(TcpClientError::Server(_) | TcpClientError::Rejected(_)) => {
                    // The node is alive and the stream stayed in sync;
                    // rejections are not transport failures.
                }
                Err(TcpClientError::Io(_) | TcpClientError::Protocol(_)) => {
                    let now_ns = epoch.elapsed().as_nanos() as u64;
                    if replica
                        .health
                        .record_failure(FAIL_THRESHOLD, now_ns, probe_ns)
                    {
                        replica.demotions.fetch_add(1, Ordering::Relaxed);
                        // Sockets that died with the replica must not be
                        // handed out after it recovers.
                        replica.pool.clear();
                    }
                }
            }
            let _ = tx.send((is_hedge, result));
        });
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

/// One pooled request/reply exchange against a replica; reads and writes
/// are bounded by `remaining`, and only a cleanly-synced connection goes
/// back to the pool.
fn attempt(
    pool: &ClientPool,
    terms: &[u64],
    fpr_budget: f64,
    remaining: Duration,
) -> Result<QueryReply, TcpClientError> {
    let mut client = pool.get(remaining)?;
    match client.query(terms, fpr_budget, remaining.max(Duration::from_millis(1))) {
        Ok(reply) => {
            pool.put(client);
            Ok(reply)
        }
        Err(e @ TcpClientError::Server(_)) => {
            // Error frames arrive complete; the stream is still in sync.
            pool.put(client);
            Err(e)
        }
        Err(e) => Err(e), // timed out / short read: the connection is dropped
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

impl ClusterStats {
    /// Total failover re-launches across shards.
    #[must_use]
    pub fn total_failovers(&self) -> u64 {
        self.shards.iter().map(|s| s.failovers).sum()
    }
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
