//! One query's scatter as a step function: the coordinator's hedging,
//! failover and charging decisions, with no socket and no clock.
//!
//! A [`Scatter`] is fed what happened (bytes arrived on an attempt, an
//! attempt closed or could not be sent, time passed), each with the
//! caller's `now`, and answers with [`Action`]s for its driver. It frames
//! and validates replies itself, so a partial frame is input like any
//! other. It updates the coordinator's routing state (replica health,
//! latency histograms, counters, the round-robin cursor) and never dials,
//! reads, writes, polls or reads the clock: `Coordinator::query` drives it
//! over sockets, and its tests drive it with scripted schedules.

use crate::coordinator::{ClusterError, ClusterReply, Coordinator, Replica};
use rambo_server::wire::{self, encode_query_request};
use rambo_server::{QueryReply, ServerError, TcpClientError};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

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
/// The longest deadline a request frame carries (`deadline_ms` is a `u32`);
/// a longer one is cut to it, so the overall instant cannot overflow.
const MAX_DEADLINE: Duration = Duration::from_millis(u32::MAX as u64);

/// What happened, as the driver tells it. Attempts are numbered from 0 in
/// launch order.
#[derive(Debug)]
pub(crate) enum Event<'b> {
    /// Bytes arrived on an attempt.
    Bytes(usize, &'b [u8]),
    /// An attempt's connection ended, or its request could not be sent.
    Closed(usize),
    /// Time passed: fire due hedges, expire the deadline.
    Tick,
}

/// What the scatter asks of its driver.
#[derive(Debug)]
pub(crate) enum Action {
    /// Send `frame` to replica `replica` of shard `shard` as attempt
    /// `attempt`; dial and write are bounded by `budget`.
    Send {
        attempt: usize,
        shard: usize,
        replica: usize,
        frame: Vec<u8>,
        budget: Duration,
    },
    /// The attempt is over: pool its connection, or close it.
    Release { attempt: usize, pool: bool },
    /// The replica was just demoted: drop its idle connections, which must
    /// not be handed out after it recovers.
    ClearPool { shard: usize, replica: usize },
}

/// One shard's leg.
struct Leg {
    /// Replicas this leg has tried.
    used: Vec<bool>,
    /// When the hedge fires; `None` once it has.
    hedge_at: Option<Instant>,
    /// Reported if every attempt ends without an answer.
    last_rejection: Option<ServerError>,
    /// The answer; `Err(None)` when the shard is unreachable (every replica
    /// failed, or none was eligible), `Err(Some(_))` when it said no.
    outcome: Option<Result<QueryReply, Option<ServerError>>>,
}

/// A request sent to one replica, its reply buffered as it arrives.
struct Attempt {
    leg: usize,
    replica: usize,
    launched: Instant,
    hedge: bool,
    reply: Vec<u8>,
    open: bool,
}

/// One query's scatter over every shard of a coordinator.
pub(crate) struct Scatter<'a> {
    coordinator: &'a Coordinator,
    terms: &'a [u64],
    fpr_budget: f64,
    start: Instant,
    /// The client's deadline.
    overall: Instant,
    legs: Vec<Leg>,
    attempts: Vec<Attempt>,
    actions: Vec<Action>,
}

impl<'a> Scatter<'a> {
    /// Start a query at `now`: every leg launches on its primary, and a
    /// shard with no eligible replica is unreachable at once.
    pub(crate) fn new(
        coordinator: &'a Coordinator,
        terms: &'a [u64],
        fpr_budget: f64,
        now: Instant,
        deadline: Duration,
    ) -> (Self, Vec<Action>) {
        let legs = coordinator.shards.iter().map(|shard| Leg {
            used: vec![false; shard.replicas.len()],
            hedge_at: None,
            last_rejection: None,
            outcome: Some(Err(None)),
        });
        let mut scatter = Self {
            coordinator,
            terms,
            fpr_budget,
            start: now,
            overall: now + deadline.min(MAX_DEADLINE),
            legs: legs.collect(),
            attempts: Vec::new(),
            actions: Vec::new(),
        };
        for (s, shard) in coordinator.shards.iter().enumerate() {
            if let Some(primary) = scatter.pick(s, shard.rr.fetch_add(1, Relaxed), now) {
                let delay = hedge_delay(&shard.replicas[primary]);
                (scatter.legs[s].hedge_at, scatter.legs[s].outcome) = (Some(now + delay), None);
                scatter.launch(s, primary, false, now);
            }
        }
        let actions = std::mem::take(&mut scatter.actions);
        (scatter, actions)
    }

    /// Take one event; the actions it calls for, in order.
    pub(crate) fn feed(&mut self, now: Instant, event: Event<'_>) -> Vec<Action> {
        match event {
            Event::Bytes(a, bytes) if self.attempts[a].open => self.bytes(a, bytes, now),
            Event::Closed(a) if self.attempts[a].open => self.fail(a, now),
            Event::Bytes(..) | Event::Closed(_) => {} // released already
            Event::Tick => self.tick(now),
        }
        std::mem::take(&mut self.actions)
    }

    /// When the next [`Event::Tick`] is due; `None` once every leg is
    /// decided.
    pub(crate) fn wake_at(&self) -> Option<Instant> {
        let pending = self.legs.iter().filter(|l| l.outcome.is_none());
        pending
            .map(|l| l.hedge_at.map_or(self.overall, |at| at.min(self.overall)))
            .min()
    }

    /// The gathered answer, once [`Self::wake_at`] is `None`: the union of
    /// the shards' answers in global ids, degraded by the unreachable ones;
    /// a rejecting shard fails it.
    pub(crate) fn finish(self) -> Result<ClusterReply, ClusterError> {
        let (mut docs, mut tier, mut degraded) = (Vec::new(), 0, Vec::new());
        for (shard, leg) in self.coordinator.shards.iter().zip(self.legs) {
            match leg.outcome.expect("every leg is decided") {
                Ok(reply) => {
                    tier = tier.max(reply.tier);
                    docs.extend(reply.docs.iter().map(|&local| shard.doc_lo + local));
                }
                Err(None) => degraded.push(shard.id),
                Err(Some(error)) => {
                    return Err(ClusterError::Shard {
                        shard: shard.id,
                        error,
                    })
                }
            }
        }
        if !degraded.is_empty() {
            self.coordinator.degraded_replies.fetch_add(1, Relaxed);
        }
        Ok(ClusterReply {
            docs,
            tier,
            degraded,
        })
    }

    /// `now` on the coordinator's probe clock.
    fn clock(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.coordinator.epoch)
            .as_nanos() as u64
    }

    /// An untried replica of shard `s`: the first healthy one counting
    /// round-robin from `from`; with none healthy, a demoted one whose
    /// half-open probe this caller wins.
    fn pick(&self, s: usize, from: usize, now: Instant) -> Option<usize> {
        let (replicas, used) = (&self.coordinator.shards[s].replicas, &self.legs[s].used);
        let n = replicas.len();
        let mut round = (0..n).map(|k| (from + k) % n).filter(|&i| !used[i]);
        round.find(|&i| replicas[i].health.is_up()).or_else(|| {
            (0..n)
                .filter(|&i| !used[i])
                .find(|&i| replicas[i].health.claim_probe(self.clock(now), PROBE_NS))
        })
    }

    /// Send the request, carrying the remaining budget, to replica `r`.
    fn launch(&mut self, s: usize, r: usize, hedge: bool, now: Instant) {
        self.legs[s].used[r] = true;
        let budget = self.overall.saturating_duration_since(now);
        let budget = budget.max(Duration::from_millis(1));
        let attempt = self.attempts.len();
        self.attempts.push(Attempt {
            leg: s,
            replica: r,
            launched: now,
            hedge,
            reply: Vec::new(),
            open: true,
        });
        let frame = encode_query_request(self.terms, self.fpr_budget, budget);
        self.actions.push(Action::Send {
            attempt,
            shard: s,
            replica: r,
            frame,
            budget,
        });
    }

    fn release(&mut self, attempt: usize, pool: bool) {
        self.attempts[attempt].open = false;
        self.actions.push(Action::Release { attempt, pool });
    }

    /// Release attempt `a` and charge its replica one transport failure;
    /// the one that completes the streak demotes it.
    fn charge(&mut self, a: usize, now: Instant) {
        self.release(a, false);
        let (shard, replica) = (self.attempts[a].leg, self.attempts[a].replica);
        let target = &self.coordinator.shards[shard].replicas[replica];
        if target
            .health
            .record_failure(FAIL_THRESHOLD, self.clock(now), PROBE_NS)
        {
            target.demotions.fetch_add(1, Relaxed);
            self.actions.push(Action::ClearPool { shard, replica });
        }
    }

    /// Open attempts of leg `s`, in launch order.
    fn open_attempts(&self, s: usize) -> Vec<usize> {
        let open = |a: &usize| self.attempts[*a].open && self.attempts[*a].leg == s;
        (0..self.attempts.len()).filter(open).collect()
    }

    /// Buffer bytes of attempt `a`. A complete reply frame decides it: an
    /// answer a shard could give wins the leg, a rejection fails over
    /// without a charge, and anything else is a transport failure.
    fn bytes(&mut self, a: usize, bytes: &[u8], now: Instant) {
        let attempt = &mut self.attempts[a];
        let shard = &self.coordinator.shards[attempt.leg];
        attempt.reply.extend_from_slice(bytes);
        let verdict = match wire::split_frame(&attempt.reply) {
            Ok(None) => return,
            // One frame per reply: bytes past it put the stream out of step.
            Ok(Some(frame)) if 4 + frame.len() == attempt.reply.len() => wire::query_reply(frame),
            Ok(Some(_)) | Err(_) => Err(TcpClientError::Protocol(String::new())),
        };
        match verdict {
            Ok(reply) if valid(&shard.replicas[attempt.replica], &reply) => self.win(a, reply, now),
            Err(TcpClientError::Server(rejection)) => {
                let s = attempt.leg;
                self.legs[s].last_rejection = Some(rejection);
                self.release(a, true); // an error frame leaves the stream in step
                self.fail_over(s, now);
            }
            _ => self.fail(a, now),
        }
    }

    /// Attempt `a` ended without an answer: charge it and fail over.
    fn fail(&mut self, a: usize, now: Instant) {
        self.charge(a, now);
        self.fail_over(self.attempts[a].leg, now);
    }

    /// Re-launch leg `s` on an untried replica (racing as a hedge once the
    /// hedge has fired), or settle it once nothing is left in flight.
    fn fail_over(&mut self, s: usize, now: Instant) {
        if let Some(next) = self.pick(s, 0, now) {
            self.coordinator.shards[s].failovers.fetch_add(1, Relaxed);
            self.launch(s, next, self.legs[s].hedge_at.is_none(), now);
        } else if self.open_attempts(s).is_empty() {
            let leg = &mut self.legs[s];
            leg.outcome = Some(Err(leg.last_rejection.take()));
        }
    }

    /// Attempt `a` answered: it decides its leg, and the leg's other open
    /// attempts are released. The charging rule: one launched before the
    /// winner is charged one transport failure, as a read timeout would
    /// charge it, so a blackholed primary is demoted after three lost
    /// hedges; one launched after the winner is charged nothing; one still
    /// open at the deadline is charged one (see [`Self::tick`]).
    fn win(&mut self, a: usize, reply: QueryReply, now: Instant) {
        let s = self.attempts[a].leg;
        for b in self.open_attempts(s) {
            match b.cmp(&a) {
                std::cmp::Ordering::Less => self.charge(b, now),
                std::cmp::Ordering::Equal => self.release(b, true),
                std::cmp::Ordering::Greater => self.release(b, false),
            }
        }
        let (attempt, shard) = (&self.attempts[a], &self.coordinator.shards[s]);
        let replica = &shard.replicas[attempt.replica];
        replica
            .latency
            .record(now.saturating_duration_since(attempt.launched));
        replica.health.record_success();
        shard
            .latency
            .record(now.saturating_duration_since(self.start));
        if attempt.hedge {
            shard.hedge_wins.fetch_add(1, Relaxed);
        }
        self.legs[s].outcome = Some(Ok(reply));
    }

    /// Expire every undecided leg once the deadline has passed, charging
    /// its open attempts; otherwise fire the hedges that are due.
    fn tick(&mut self, now: Instant) {
        for s in 0..self.legs.len() {
            let leg = &mut self.legs[s];
            if leg.outcome.is_some() {
                continue;
            } else if now >= self.overall {
                leg.outcome = Some(Err(Some(ServerError::DeadlineExceeded { tier: 0 })));
                for b in self.open_attempts(s) {
                    self.charge(b, now);
                }
            } else if leg.hedge_at.is_some_and(|at| now >= at) {
                leg.hedge_at = None;
                if let Some(next) = self.pick(s, 0, now) {
                    self.coordinator.shards[s].hedges.fetch_add(1, Relaxed);
                    self.launch(s, next, true, now);
                }
            }
        }
    }
}

/// The hedge timer for a primary: its own latency quantile, clamped; a
/// fixed cold default until the histogram has enough samples.
fn hedge_delay(replica: &Replica) -> Duration {
    if replica.latency.count() < HEDGE_MIN_SAMPLES {
        HEDGE_COLD
    } else {
        let p = replica.latency.quantile(HEDGE_QUANTILE);
        p.clamp(HEDGE_FLOOR, HEDGE_CAP)
    }
}

/// Whether `replica`'s shard could have said this: strictly ascending
/// local ids inside its document range, from a tier it serves. Merged
/// unchecked, anything else would break the union's order or name a
/// document the cluster does not have.
fn valid(replica: &Replica, reply: &QueryReply) -> bool {
    let m = &replica.manifest;
    reply.tier < m.tiers as usize
        && reply.docs.windows(2).all(|w| w[0] < w[1])
        && reply
            .docs
            .last()
            .is_none_or(|&last| last < m.doc_hi - m.doc_lo)
}

#[cfg(test)]
mod tests;
