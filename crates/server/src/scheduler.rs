//! The micro-batching evaluator worker and the adaptive-scheduler gate.
//!
//! One tier lane = one bounded [`std::sync::mpsc`] intake shared by the
//! tier's workers, plus a [`LaneGate`]: the lane's live queue depth and its
//! current scheduling mode. Under low load the admission path bypasses the
//! queue entirely (see `ServerHandle::submit` — the request is evaluated
//! inline on the admitting thread); the gate flips to batching when the
//! inline evaluator is found locked (contention is proof of concurrent
//! admissions, and inline serializes on that lock anyway), when two
//! *different* threads admit inline requests within
//! [`INLINE_OVERLAP_WINDOW`] (on a single-core host serialized execution
//! means the lock alone rarely contends), or when the
//! queued depth crosses the `batch_above` hysteresis threshold, and a worker
//! flips it back once it observes a sustained streak of quiet batches — the
//! queue drained to `inline_below` *and* the batch no bigger than a
//! singleton, several times in a row — *and* the lane has gone a full
//! [`QUIET_COOLDOWN`] without any proof of concurrency (a multi-request
//! batch or an inline-lock contention refreshes that stamp; one quiet batch
//! is routine noise under load).
//!
//! A batching worker takes the intake lock, blocks for the first request,
//! then *collects*: it greedily drains whatever else is queued and — while
//! the batch is still short of `max_batch` — waits up to `max_delay` for
//! stragglers (never past the earliest pending deadline). An adaptive lane
//! additionally caps collection at a *singleton* while the queue is
//! shallower than `batch_above`: wide batches amplify the latency tail (one
//! preemption inside a joint evaluation delays every request in the batch)
//! and only win once queue wait dominates. It then releases
//! the lock (handing the intake to a sibling worker) and evaluates the whole
//! batch through its tier-local [`QueryBatch`], so the query scratch stays
//! hot across every request in the batch.
//!
//! `max_delay = 0` degenerates to greedy adaptive batching (evaluate
//! whatever accumulated while the previous batch ran — no added latency);
//! `max_batch = 1` degenerates to one-query-at-a-time serving, which is the
//! baseline the `serve_load` bench compares against.

use crate::cache::ResultCache;
use crate::reactor::Waker;
use crate::stats::{SlowQuery, SlowQueryLog, TierCounters};
use rambo_core::{DocId, QueryBatch, QueryMode, Rambo};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One in-flight query.
pub(crate) struct Request {
    /// Query terms (Algorithm 2 all-terms semantics).
    pub terms: Vec<u64>,
    /// Evaluation mode.
    pub mode: QueryMode,
    /// Instant after which the request must not be evaluated.
    pub deadline: Instant,
    /// Submission instant (latency accounting).
    pub submitted: Instant,
    /// Canonical term-set key for the result cache (0 when disabled).
    pub key: u128,
    /// Cache version stamp read at admission — inserting with the
    /// *admission* stamp means a bump racing the evaluation invalidates the
    /// entry instead of being masked by it.
    pub version: u64,
    /// Oneshot reply channel (capacity 1; the send never blocks).
    pub reply: SyncSender<Reply>,
    /// Set when the TCP reactor admitted the request: it is blocked in
    /// `poll` and must be told the reply is there. In-process submitters
    /// block on the channel itself and carry none.
    pub waker: Option<Waker>,
}

impl Request {
    /// Hand `reply` to whoever is waiting. A client that gave up (dropped
    /// its reply receiver) is not an error; the result is simply discarded.
    fn answer(self, reply: Reply) {
        let _ = self.reply.try_send(reply);
        if let Some(waker) = self.waker {
            waker.wake();
        }
    }
}

/// Worker → client reply.
pub(crate) enum Reply {
    /// Matching document ids, ascending.
    Docs(Vec<DocId>),
    /// The request's deadline passed before a worker reached it.
    Expired,
}

/// Live scheduling state of one tier lane, shared between the admission
/// path and the lane's workers.
#[derive(Debug, Default)]
pub(crate) struct LaneGate {
    /// Requests currently sitting in the intake queue (incremented *before*
    /// the send and decremented on send failure, so it can only over-count
    /// transiently — an under-count could wrap).
    pub queued: AtomicU64,
    /// True while the lane is in batching mode; false while admission may
    /// bypass the queue and evaluate inline.
    pub batching: AtomicBool,
    /// Last time (nanoseconds since the server's epoch) the lane saw proof
    /// of concurrency: an inline-lock contention at admission, two distinct
    /// admitting threads inside [`INLINE_OVERLAP_WINDOW`], or a worker
    /// batch that was not quiet. Flip-back to inline requires this to be
    /// stale (see [`QUIET_COOLDOWN`]) — on a busy machine a momentarily
    /// empty queue is a scheduling artifact, not evidence the load is gone.
    pub last_live: AtomicU64,
    /// Identity of the thread that last admitted a request (the address of
    /// a thread-local, so nonzero and distinct per live thread), paired
    /// with [`LaneGate::last_admit_ns`]. Two *different* tokens within
    /// [`INLINE_OVERLAP_WINDOW`] are proof of concurrent clients even when
    /// the inline lock never contends — on a single-core host execution is
    /// serialized, so `try_lock` succeeds for every client in turn and
    /// contention alone would leave the lane inline under full multi-client
    /// load. Checked on every adaptive admission: with the gate open it
    /// flips the lane to batching, and while batching it refreshes
    /// [`LaneGate::last_live`] so a multi-client lane never drifts back to
    /// inline on quiet singleton batches alone.
    pub last_admit_token: AtomicU64,
    /// When (nanoseconds since the server's epoch) that admission happened.
    pub last_admit_ns: AtomicU64,
}

impl LaneGate {
    pub(crate) fn new(batching: bool) -> Self {
        Self {
            queued: AtomicU64::new(0),
            batching: AtomicBool::new(batching),
            last_live: AtomicU64::new(0),
            last_admit_token: AtomicU64::new(0),
            last_admit_ns: AtomicU64::new(0),
        }
    }
}

/// How long a lane must go without any proof of concurrency before a quiet
/// streak may flip it back to inline. Sized in hundreds of milliseconds:
/// flip-back is a latency optimization for genuinely idle lanes, and
/// flipping eagerly under live load costs an inline-mutex convoy plus a
/// re-flip every time.
pub(crate) const QUIET_COOLDOWN: Duration = Duration::from_millis(250);

/// Window within which two inline admissions from *different* threads count
/// as proof of concurrent clients. Sized to a few preemption timeslices: on
/// an oversubscribed single-core host, concurrently-running clients are
/// interleaved at timeslice granularity (roughly 1–10 ms), so their inline
/// admissions land well inside 10 ms of each other, while requests that
/// merely *happen* to come from different threads of a lone sequential
/// client (a connection pool, consecutive bench chunks) are separated by
/// that client's think time and almost never land this close.
pub(crate) const INLINE_OVERLAP_WINDOW: Duration = Duration::from_millis(10);

/// Batching knobs, copied per worker.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchKnobs {
    pub max_batch: usize,
    pub max_delay: Duration,
    /// `Some(depth)`: adaptive mode — after a batch, flip the gate back to
    /// inline when the queue has drained to `depth` or fewer. `None`:
    /// always-batch mode, never flip.
    pub inline_below: Option<usize>,
    /// The admission-path depth threshold that flips the gate to batching,
    /// reused by adaptive workers as the depth below which collection is
    /// capped at a singleton (see [`collect_batch`]). Unused in always-batch
    /// mode.
    pub batch_above: usize,
}

/// Run one evaluator worker until the intake disconnects (all request
/// senders dropped — the scope-exit shutdown path). Pending requests are
/// drained, not dropped: disconnection only stops the *collection* of new
/// batches.
#[allow(clippy::too_many_arguments)] // one call site, in Server::scope
pub(crate) fn run_worker(
    tier: usize,
    index: &Rambo,
    intake: &Mutex<Receiver<Request>>,
    knobs: BatchKnobs,
    counters: &TierCounters,
    gate: &LaneGate,
    cache: Option<&ResultCache>,
    slow: &SlowQueryLog,
    epoch: Instant,
) {
    /// Consecutive quiet batches (singleton, queue drained) a worker must
    /// observe before flipping the lane back to inline. One quiet batch is
    /// routine noise under sustained two-client load — roughly half of all
    /// batches there are singletons with a momentarily empty queue, and
    /// flipping back on each one thrashes inline↔batch through the slow
    /// contended-mutex regime. A genuinely lone client produces nothing
    /// *but* quiet batches, so it converges in `QUIET_STREAK` requests
    /// (well under a millisecond of extra batched mode).
    const QUIET_STREAK: u32 = 16;
    let mut evaluator = QueryBatch::new(index);
    let mut batch: Vec<Request> = Vec::with_capacity(knobs.max_batch.max(1));
    let mut quiet_batches = 0u32;
    let mut last_batch_end = Instant::now();
    loop {
        let disconnected = {
            // Collection happens under the intake lock; evaluation (below)
            // does not, so sibling workers pipeline: one collects while
            // another evaluates.
            let rx = intake.lock().expect("a sibling worker panicked");
            collect_batch(&rx, &knobs, gate, &mut batch)
        };
        let batch_len = batch.len();
        if batch_len > 0 {
            counters.batches.fetch_add(1, Ordering::Relaxed);
            counters
                .batched
                .fetch_add(batch_len as u64, Ordering::Relaxed);
            // A quiet streak must be *contiguous in time*: after an idle gap
            // the streak restarts, so 16 stray singletons spread across
            // bursts of a bursty workload never read as sustained quiet.
            // (An idle lane also ages `last_live`, so without this a lane
            // would flip to inline on the first few requests of every burst
            // — the worst moment to do so.)
            if last_batch_end.elapsed() > QUIET_COOLDOWN {
                quiet_batches = 0;
            }
        }
        // Quiet unless a sibling request arrived while this batch was being
        // served. The queue is sampled *before* each reply goes out: the
        // reply wakes this request's own closed-loop client, whose
        // immediate resubmission would otherwise read as concurrent load.
        let mut quiet = batch_len <= 1;
        let threshold = knobs.inline_below.unwrap_or(0) as u64;
        for req in batch.drain(..) {
            let dequeued = Instant::now();
            if dequeued >= req.deadline {
                counters.expired.fetch_add(1, Ordering::Relaxed);
                quiet &= gate.queued.load(Ordering::Acquire) <= threshold;
                req.answer(Reply::Expired);
                continue;
            }
            let docs = evaluator.query_terms(&req.terms, req.mode);
            let eval = dequeued.elapsed();
            counters
                .hits
                .fetch_add(docs.len() as u64, Ordering::Relaxed);
            counters.completed.fetch_add(1, Ordering::Relaxed);
            let total = req.submitted.elapsed();
            counters.latency.record(total);
            slow.record(SlowQuery {
                tier,
                terms: req.terms.len(),
                queue_wait: dequeued.saturating_duration_since(req.submitted),
                eval,
                total,
                batched: true,
            });
            if let Some(cache) = cache {
                cache.insert(tier as u32, req.key, req.version, &docs);
            }
            quiet &= gate.queued.load(Ordering::Acquire) <= threshold;
            req.answer(Reply::Docs(docs));
        }
        // Hysteresis flip-back: only after a *streak* of demonstrably quiet
        // batches, and only once the lane's last proof of concurrency has
        // aged past the cooldown. A single quiet batch is routine noise
        // under sustained load (closed-loop clients empty the queue every
        // time they block on a reply), and a multi-request batch or a
        // mid-evaluation arrival is proof of live concurrency, so either
        // resets the streak and refreshes the liveness stamp.
        if knobs.inline_below.is_some() && batch_len > 0 {
            if quiet {
                quiet_batches += 1;
                let since_live = epoch
                    .elapsed()
                    .as_nanos()
                    .saturating_sub(u128::from(gate.last_live.load(Ordering::Acquire)));
                if quiet_batches >= QUIET_STREAK && since_live >= QUIET_COOLDOWN.as_nanos() {
                    quiet_batches = 0;
                    if gate.batching.swap(false, Ordering::AcqRel) {
                        counters.switched_to_inline.fetch_add(1, Ordering::Relaxed);
                    }
                }
            } else {
                quiet_batches = 0;
                gate.last_live
                    .store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
            }
        }
        if batch_len > 0 {
            last_batch_end = Instant::now();
        }
        if disconnected {
            return;
        }
    }
}

/// Fill `batch` from the intake: block for the first request, drain eagerly,
/// then wait up to `max_delay` (capped by the earliest pending deadline) for
/// more. Adaptive lanes cap the batch at a singleton while the queue is
/// shallower than `batch_above` (see the tail-amplification note inline).
/// Decrements the gate's queue-depth gauge per dequeued request. Returns
/// true when the channel disconnected.
fn collect_batch(
    rx: &Receiver<Request>,
    knobs: &BatchKnobs,
    gate: &LaneGate,
    batch: &mut Vec<Request>,
) -> bool {
    let take = |req: Request, batch: &mut Vec<Request>| {
        gate.queued.fetch_sub(1, Ordering::AcqRel);
        batch.push(req);
    };
    match rx.recv() {
        Err(_) => return true,
        Ok(first) => take(first, batch),
    }
    // Tail-amplification guard: one preemption landing inside a joint batch
    // evaluation delays every request sharing the batch, so wide batches
    // only pay for themselves once queue wait dominates. While the queue is
    // shallow an adaptive lane feeds singletons, and drains greedily only
    // at depths where waiting in the queue costs more than sharing a
    // preemption.
    let max_take = match knobs.inline_below {
        Some(_) if (gate.queued.load(Ordering::Acquire) as usize) < knobs.batch_above => 1,
        _ => knobs.max_batch,
    };
    let collect_until = Instant::now() + knobs.max_delay;
    while batch.len() < max_take {
        match rx.try_recv() {
            Ok(req) => {
                take(req, batch);
                continue;
            }
            Err(TryRecvError::Disconnected) => return true,
            Err(TryRecvError::Empty) => {}
        }
        // Queue empty: wait for stragglers, but never past the collection
        // window, and never deep into a pending deadline — waking *at* the
        // deadline would expire the very request the wait was serving, so
        // the cap leaves half the tightest request's remaining budget for
        // evaluation.
        let earliest_deadline = batch
            .iter()
            .map(|r| r.deadline)
            .min()
            .expect("batch holds at least the first request");
        let now = Instant::now();
        let deadline_cap = now + earliest_deadline.saturating_duration_since(now) / 2;
        let wait_until = collect_until.min(deadline_cap);
        if now >= wait_until {
            return false;
        }
        match rx.recv_timeout(wait_until - now) {
            Ok(req) => take(req, batch),
            Err(RecvTimeoutError::Timeout) => return false,
            Err(RecvTimeoutError::Disconnected) => return true,
        }
    }
    false
}
