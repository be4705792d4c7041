//! The evaluator worker: one consumer of a tier's bounded admission queue.
//!
//! A request reaches a tier's queue only when `ServerHandle::submit` found
//! the tier's shared evaluator busy (see the admission rule in
//! [`crate::server`]). Each worker owns a [`QueryBatch`] over its tier and
//! takes one request at a time: it checks the deadline, evaluates, records,
//! and answers through the reply channel and the request's [`Waker`].

use crate::cache::ResultCache;
use crate::reactor::Waker;
use crate::stats::{SlowQuery, SlowQueryLog, TierCounters};
use rambo_core::{DocId, QueryBatch, QueryMode, Rambo};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Mutex;
use std::time::Instant;

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

/// Run one evaluator worker until the intake disconnects (all request
/// senders dropped — the scope-exit shutdown path). Requests already queued
/// are drained first: the channel reports disconnection only once empty.
pub(crate) fn run_worker(
    tier: usize,
    index: &Rambo,
    intake: &Mutex<Receiver<Request>>,
    counters: &TierCounters,
    cache: Option<&ResultCache>,
    slow: &SlowQueryLog,
) {
    let mut evaluator = QueryBatch::new(index);
    loop {
        // The intake lock is held only to dequeue, so sibling workers
        // evaluate in parallel.
        let received = intake.lock().expect("a sibling worker panicked").recv();
        let Ok(req) = received else { return };
        counters.depth.fetch_sub(1, Ordering::AcqRel);
        let dequeued = Instant::now();
        if dequeued >= req.deadline {
            counters.expired.fetch_add(1, Ordering::Relaxed);
            req.answer(Reply::Expired);
            continue;
        }
        let docs = evaluator.query_terms(&req.terms, req.mode);
        let eval = dequeued.elapsed();
        let total = req.submitted.elapsed();
        counters.record_completion(docs.len(), total);
        counters.queued.fetch_add(1, Ordering::Relaxed);
        slow.record(SlowQuery {
            tier,
            terms: req.terms.len(),
            queue_wait: dequeued.saturating_duration_since(req.submitted),
            eval,
            total,
            queued: true,
        });
        if let Some(cache) = cache {
            cache.insert(tier as u32, req.key, req.version, &docs);
        }
        req.answer(Reply::Docs(docs));
    }
}
