//! The coordinator/router: scatter-gather with hedged reads and replica
//! failover.
//!
//! One query is one loop on the calling thread. It writes the request to one
//! replica of every shard (a *leg* each), then blocks in `poll(2)` until a
//! reply is readable, a hedge timer is due or the deadline passes. A hedge
//! writes the same request to a sibling replica, and an attempt that fails
//! is re-launched on an untried one at once. The first complete answer
//! decides a leg; its other attempts are closed there and then, and the
//! loop charges their replicas (see `Scatter::step`).

use crate::health::ReplicaHealth;
use crate::manifest::{ManifestError, NodeManifest};
use crate::pool::ClientPool;
use rambo_server::poll::{self, PollFd, POLLIN};
use rambo_server::wire::{self, encode_query_request};
use rambo_server::{QueryReply, ServerError, TcpClient, TcpClientError};
use rambo_workloads::stats::LatencyHistogram;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-address TCP connect timeout (topology discovery and pool refills).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Idle connections kept per replica.
const POOL_CAPACITY: usize = 4;
/// Consecutive transport errors that demote a replica.
const FAIL_THRESHOLD: u32 = 3;
/// Cool-down before a demoted replica is re-probed with a live query, in
/// nanoseconds of the coordinator's clock (500 ms).
const PROBE_NS: u64 = 500_000_000;
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
    replicas: Vec<Replica>,
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
                let pool = ClientPool::new(addr, POOL_CAPACITY);
                pool.put(client.into_inner()); // seed with the discovery connection
                replicas.push(Replica {
                    pool,
                    health: ReplicaHealth::default(),
                    latency: LatencyHistogram::new(),
                    demotions: AtomicU64::new(0),
                    manifest,
                });
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
        let scatter = Scatter {
            coordinator: self,
            terms,
            fpr_budget,
            start,
            overall: start + deadline,
        };
        let mut legs: Vec<Leg<'_>> = self.shards.iter().map(|s| scatter.open(s)).collect();
        let mut fds = Vec::new();
        while legs.iter().any(|l| l.outcome.is_none()) {
            let mut wake = scatter.overall;
            fds.clear();
            for leg in legs.iter().filter(|l| l.outcome.is_none()) {
                wake = leg.hedge_at.map_or(wake, |at| wake.min(at));
                fds.extend(leg.open.iter().map(|a| PollFd::new(&a.stream, POLLIN)));
            }
            poll::wait(&mut fds, wake.saturating_duration_since(Instant::now()))?;
            let mut ready = fds.iter().map(|fd| fd.revents() != 0);
            for leg in legs.iter_mut().filter(|l| l.outcome.is_none()) {
                scatter.step(leg, &mut ready);
            }
        }

        let mut docs = Vec::new();
        let mut tier = 0usize;
        let mut degraded = Vec::new();
        for leg in legs {
            match leg.outcome.expect("every leg is decided") {
                Ok(reply) => {
                    tier = tier.max(reply.tier);
                    docs.extend(reply.docs.iter().map(|&local| leg.shard.doc_lo + local));
                }
                Err(ShardFailure::Unreachable) => degraded.push(leg.shard.id),
                Err(ShardFailure::Rejected(error)) => {
                    return Err(ClusterError::Shard {
                        shard: leg.shard.id,
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

    /// Charge `replica` one transport failure; the one that completes the
    /// streak demotes it and drops its pooled connections, which must not
    /// be handed out after it recovers.
    fn charge(&self, replica: &Replica) {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        if replica
            .health
            .record_failure(FAIL_THRESHOLD, now_ns, PROBE_NS)
        {
            replica.demotions.fetch_add(1, Ordering::Relaxed);
            replica.pool.clear();
        }
    }

    /// An untried replica: the first healthy one counting round-robin from
    /// `from`; with none healthy, a demoted one whose half-open probe CAS
    /// this caller wins.
    fn pick(&self, shard: &Shard, used: &[bool], from: usize) -> Option<usize> {
        let n = shard.replicas.len();
        let untried = |i: &usize| !used[*i];
        let mut round = (0..n).map(|k| (from + k) % n).filter(untried);
        round
            .find(|&i| shard.replicas[i].health.is_up())
            .or_else(|| {
                (0..n).filter(untried).find(|&i| {
                    shard.replicas[i]
                        .health
                        .claim_probe(self.epoch.elapsed().as_nanos() as u64, PROBE_NS)
                })
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

/// One query's scatter: what every attempt sends, and its clock.
struct Scatter<'a> {
    coordinator: &'a Coordinator,
    terms: &'a [u64],
    fpr_budget: f64,
    start: Instant,
    /// The client's deadline.
    overall: Instant,
}

/// One shard's scatter leg.
struct Leg<'a> {
    shard: &'a Shard,
    /// Replicas this leg has tried.
    used: Vec<bool>,
    /// Attempts awaiting a reply, in launch order.
    open: Vec<Attempt>,
    /// When the hedge fires; `None` once it has.
    hedge_at: Option<Instant>,
    /// Reported if every attempt ends without an answer.
    last_rejection: Option<ServerError>,
    outcome: Option<Result<QueryReply, ShardFailure>>,
}

/// A request written to one replica, its reply read as it arrives.
struct Attempt {
    replica: usize,
    stream: TcpStream,
    reply: Vec<u8>,
    launched: Instant,
    hedge: bool,
}

impl Attempt {
    /// Take what the socket has (`poll` found it ready, so the read does not
    /// block); `Some` once the reply is complete or the attempt has failed.
    fn read(&mut self) -> Option<Result<QueryReply, TcpClientError>> {
        let mut chunk = [0u8; 16 << 10];
        match self.stream.read(&mut chunk) {
            Ok(0) => return Some(Err(io::Error::from(io::ErrorKind::UnexpectedEof).into())),
            Ok(n) => self.reply.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => return None,
            Err(e) => return Some(Err(e.into())),
        }
        match wire::split_frame(&self.reply) {
            Ok(frame) => frame.map(wire::query_reply),
            Err(e) => Some(Err(e.into())),
        }
    }
}

impl<'a> Scatter<'a> {
    /// Start a leg on its primary; a shard with no eligible replica is
    /// unreachable at once.
    fn open(&self, shard: &'a Shard) -> Leg<'a> {
        let mut leg = Leg {
            shard,
            used: vec![false; shard.replicas.len()],
            open: Vec::new(),
            hedge_at: None,
            last_rejection: None,
            outcome: Some(Err(ShardFailure::Unreachable)),
        };
        let cursor = shard.rr.fetch_add(1, Ordering::Relaxed);
        if let Some(primary) = self.coordinator.pick(shard, &leg.used, cursor) {
            let delay = Coordinator::hedge_delay(&shard.replicas[primary]);
            (leg.hedge_at, leg.outcome) = (Some(Instant::now() + delay), None);
            self.launch(&mut leg, primary, false);
        }
        leg
    }

    /// Write the request, carrying the remaining budget, to replica `r`,
    /// dialing it if its pool is empty. Dial and write block, bounded by the
    /// smaller of [`CONNECT_TIMEOUT`] and the remaining budget; a replica
    /// that cannot take the request fails over at once.
    fn launch(&self, leg: &mut Leg<'a>, r: usize, hedge: bool) {
        leg.used[r] = true;
        let replica = &leg.shard.replicas[r];
        let launched = Instant::now();
        let remaining = self.overall.saturating_duration_since(launched);
        let remaining = remaining.max(Duration::from_millis(1));
        let request = encode_query_request(self.terms, self.fpr_budget, remaining);
        let sent = replica.pool.get(remaining.min(CONNECT_TIMEOUT));
        match sent.and_then(|mut stream| {
            stream.set_write_timeout(Some(remaining))?;
            stream.write_all(&request).map(|()| stream)
        }) {
            Ok(stream) => leg.open.push(Attempt {
                replica: r,
                stream,
                reply: Vec::new(),
                launched,
                hedge,
            }),
            Err(_) => {
                self.coordinator.charge(replica);
                self.fail_over(leg);
            }
        }
    }

    /// An attempt ended without an answer: re-launch on an untried replica
    /// (racing as a hedge once the hedge has fired), or settle the leg once
    /// nothing is left in flight.
    fn fail_over(&self, leg: &mut Leg<'a>) {
        if let Some(next) = self.coordinator.pick(leg.shard, &leg.used, 0) {
            leg.shard.failovers.fetch_add(1, Ordering::Relaxed);
            self.launch(leg, next, leg.hedge_at.is_none());
        } else if leg.open.is_empty() {
            leg.outcome = Some(Err(match leg.last_rejection.clone() {
                Some(err) => ShardFailure::Rejected(err),
                None => ShardFailure::Unreachable,
            }));
        }
    }

    /// Read the leg's attempts that `ready` (one flag per open attempt, as
    /// polled) marks readable, in launch order, then fire the hedge or
    /// expire the leg if either is due.
    ///
    /// The first answer decides the leg and closes the rest, unpooled. The
    /// charging rule: an attempt launched before the winner is charged one
    /// transport failure, as a read timeout would charge it, so a
    /// blackholed primary is demoted after three lost hedges; one launched
    /// after the winner is charged nothing; one still open at the deadline
    /// is charged one. A failed attempt fails over; a rejection keeps its
    /// replica up and its stream pooled.
    fn step(&self, leg: &mut Leg<'a>, ready: &mut impl Iterator<Item = bool>) {
        let mut failures = 0;
        for mut attempt in std::mem::take(&mut leg.open) {
            let readable = ready.next() == Some(true) && leg.outcome.is_none();
            let replica = &leg.shard.replicas[attempt.replica];
            match readable.then(|| attempt.read()).flatten() {
                None if leg.outcome.is_some() => {} // launched after the winner
                None => leg.open.push(attempt),
                Some(Ok(reply)) => {
                    for loser in leg.open.drain(..) {
                        self.coordinator.charge(&leg.shard.replicas[loser.replica]);
                    }
                    replica.latency.record(attempt.launched.elapsed());
                    replica.health.record_success();
                    replica.pool.put(attempt.stream);
                    leg.shard.latency.record(self.start.elapsed());
                    if attempt.hedge {
                        leg.shard.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    leg.outcome = Some(Ok(reply));
                }
                Some(Err(TcpClientError::Server(err))) => {
                    // Error frames arrive complete; the stream is in sync.
                    replica.pool.put(attempt.stream);
                    leg.last_rejection = Some(err);
                    failures += 1;
                }
                Some(Err(_)) => {
                    self.coordinator.charge(replica);
                    failures += 1;
                }
            }
        }
        for _ in 0..failures {
            if leg.outcome.is_none() {
                self.fail_over(leg);
            }
        }
        let now = Instant::now();
        if leg.outcome.is_none() && now >= self.overall {
            for attempt in leg.open.drain(..) {
                self.coordinator
                    .charge(&leg.shard.replicas[attempt.replica]);
            }
            let expired = ServerError::DeadlineExceeded { tier: 0 };
            leg.outcome = Some(Err(ShardFailure::Rejected(expired)));
        } else if leg.outcome.is_none() && leg.hedge_at.is_some_and(|at| now >= at) {
            leg.hedge_at = None;
            if let Some(next) = self.coordinator.pick(leg.shard, &leg.used, 0) {
                leg.shard.hedges.fetch_add(1, Ordering::Relaxed);
                self.launch(leg, next, true);
            }
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
