//! The scatter under scripted schedules: every replica's behaviour is a
//! [`Fate`] timed from when its request was sent, and a simulated network
//! delivers those events in time order, ticking the scatter when it asks.
//! No socket, no sleep: time is a number the test advances, so every
//! charging-rule case is exact, not a race.

use super::*;
use crate::coordinator::Shard;
use crate::manifest::NodeManifest;
use crate::partition::{plan_cluster, ClusterPlan};
use proptest::collection::vec;
use proptest::prelude::*;
use rambo_core::{QueryMode, RamboParams};
use rambo_server::wire::{encode_response, STATUS_DEADLINE, STATUS_OK};
use std::sync::OnceLock;

const MS: Duration = Duration::from_millis(1);
/// Doc 5's planted terms.
const TERMS: [u64; 2] = [5 << 16 | 1, 5 << 16 | 2];

fn response(status: u8, tier: u32, docs: &[u32]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_response(&mut frame, status, tier, docs);
    frame
}

/// What a replica does with one request, so many ms after it was sent.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// The shard's true answer, in two pieces.
    Answer(u32),
    /// Nothing, ever.
    Silent,
    /// Hang up (EOF or reset).
    Hangup(u32),
    /// Half of the true answer, then hang up.
    Truncate(u32),
    /// Reply `k` of [`World::junk`], then hang up.
    Garbage(u32, u8),
    /// A deadline rejection.
    Reject(u32),
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum End {
    Won,
    Rejected,
    Failed,
    /// A sibling won; charged iff launched before it.
    Lost(bool),
    Expired,
}

/// One query on the network. Each replica takes at most one attempt, so
/// attempts are kept by `[shard][replica]`: when sent, the `deadline_ms`
/// its request carried, and how it ended.
#[derive(Default)]
struct Run {
    start: Duration,
    overall: Duration,
    /// `(shard, replica)` of each attempt, in launch order.
    order: Vec<(usize, usize)>,
    sent: Vec<Vec<Option<(Duration, u32)>>>,
    ends: Vec<Vec<Option<End>>>,
    cleared: Vec<(usize, usize)>,
    /// Deliveries still due: when, to which attempt, bytes or a hang-up.
    due: Vec<(Duration, usize, Option<Vec<u8>>)>,
}

/// A coordinator over never-dialed replicas, its plan, the simulated clock,
/// and the error streak every replica should have.
struct World {
    plan: &'static ClusterPlan,
    coordinator: Coordinator,
    t0: Instant,
    now: Duration,
    /// Each shard's local answer to [`TERMS`].
    answers: Vec<Vec<u32>>,
    streaks: Vec<Vec<u32>>,
}

impl World {
    /// 1–4 shards over 24 documents, `replicas` replicas each.
    fn new(shards: usize, replicas: usize) -> Self {
        static PLANS: OnceLock<Vec<ClusterPlan>> = OnceLock::new();
        let plan = &PLANS.get_or_init(|| {
            let docs: Vec<(String, Vec<u64>)> = (0..24u64)
                .map(|d| (format!("doc{d}"), (0..20).map(|t| d << 16 | t).collect()))
                .collect();
            let params = |n| RamboParams::two_level(n, 8, 2, 1 << 10, 2, 7);
            (1..5)
                .map(|n| plan_cluster(params(n), &docs).unwrap())
                .collect()
        })[shards - 1];
        let shard = |(s, &(doc_lo, doc_hi)): (usize, &(u32, u32))| {
            let replicas = (0..replicas as u32).map(|replica| {
                let m = NodeManifest {
                    shard: s as u32,
                    replica,
                    doc_lo,
                    doc_hi,
                    tiers: 1,
                    buckets: 8,
                    fingerprint: 0,
                };
                Replica::new(([127, 0, 0, 1], 9).into(), m)
            });
            Shard {
                id: s as u32,
                doc_lo,
                replicas: replicas.collect(),
                ..Shard::default()
            }
        };
        let t0 = Instant::now();
        let routing = plan.ranges.iter().enumerate().map(shard).collect();
        let answers = plan
            .shards
            .iter()
            .map(|s| s.query_terms_u64(&TERMS, QueryMode::Full));
        Self {
            plan,
            coordinator: Coordinator::with_shards(routing, t0),
            t0,
            now: Duration::ZERO,
            answers: answers.collect(),
            streaks: vec![vec![0; replicas]; shards],
        }
    }

    fn monolith(&self) -> Vec<u32> {
        self.plan.monolith.query_terms_u64(&TERMS, QueryMode::Full)
    }

    /// Replies no shard `s` may give.
    fn junk(&self, s: usize, k: u8) -> Vec<u8> {
        let (lo, hi) = self.plan.ranges[s];
        let answer = &self.answers[s];
        match k {
            0 => response(0xEE, 0, answer), // unknown status
            1 => response(STATUS_OK, 0, &[u32::MAX]),
            2 => response(STATUS_OK, 0, &[3, 1, 1000]), // unsorted
            3 => response(STATUS_OK, 0, &[hi - lo]),    // past the range
            4 => response(STATUS_OK, 1, answer),        // an unserved tier
            5 => [response(STATUS_OK, 0, answer), vec![0]].concat(),
            _ => u32::MAX.to_le_bytes().to_vec(), // a length above the cap
        }
    }

    /// When a replica of shard `s` acts on `fate`, and what it sends.
    fn script(&self, s: usize, fate: Fate) -> (u32, Vec<Option<Vec<u8>>>) {
        let answer = response(STATUS_OK, 0, &self.answers[s]);
        let (head, tail) = answer.split_at(answer.len() / 2);
        match fate {
            Fate::Answer(ms) => (ms, vec![Some(head.to_vec()), Some(tail.to_vec())]),
            Fate::Silent => (0, vec![]),
            Fate::Hangup(ms) => (ms, vec![None]),
            Fate::Truncate(ms) => (ms, vec![Some(head.to_vec()), None]),
            Fate::Garbage(ms, k) => (ms, vec![Some(self.junk(s, k)), None]),
            Fate::Reject(ms) => (ms, vec![Some(response(STATUS_DEADLINE, 0, &[]))]),
        }
    }

    /// Errors, up, demotions of every replica.
    fn health(&self) -> Vec<Vec<(u64, bool, u64)>> {
        let shards = self.coordinator.stats().shards;
        let each = |r: &crate::ReplicaStats| (r.errors, r.up, r.demotions);
        shards
            .iter()
            .map(|s| s.replicas.iter().map(each).collect())
            .collect()
    }

    /// Run one query to its end with replica `r` of shard `s` meeting
    /// `fates[s][r]`, and check every rule against what happened.
    fn step(
        &mut self,
        fates: &[Vec<Fate>],
        deadline: Duration,
    ) -> (Result<ClusterReply, ClusterError>, Run) {
        let before = self.health();
        let mut run = Run {
            start: self.now,
            overall: self.now + deadline.min(MAX_DEADLINE),
            sent: before.iter().map(|r| vec![None; r.len()]).collect(),
            ends: before.iter().map(|r| vec![None; r.len()]).collect(),
            ..Run::default()
        };
        let (mut scatter, actions) =
            Scatter::new(&self.coordinator, &TERMS, 0.0, self.t0 + self.now, deadline);
        self.apply(&mut run, fates, actions, None);
        for turn in 0.. {
            let Some(wake) = scatter.wake_at() else { break };
            assert!(turn < 100, "the scatter asks to be woken forever");
            let due = run.due.iter().map(|d| d.0);
            let now = self.now.max(due.fold(wake - self.t0, Duration::min));
            self.now = now;
            // Deliveries due by now, earliest (then first scheduled) first.
            while let Some(i) = (0..run.due.len())
                .filter(|&i| run.due[i].0 <= now)
                .min_by_key(|&i| run.due[i].0)
            {
                let (_, a, bytes) = run.due.remove(i);
                let event = bytes
                    .as_deref()
                    .map_or(Event::Closed(a), |b| Event::Bytes(a, b));
                let actions = scatter.feed(self.t0 + now, event);
                self.apply(&mut run, fates, actions, Some(a));
            }
            let actions = scatter.feed(self.t0 + now, Event::Tick);
            self.apply(&mut run, fates, actions, None);
        }
        assert!(self.now <= run.overall, "decided after the deadline");
        let result = scatter.finish();
        self.check(fates, &before, &result, &run);
        (result, run)
    }

    /// Perform the scatter's actions on the network; `cause` is the attempt
    /// whose event called for them (`None`: the start or a tick).
    fn apply(
        &self,
        run: &mut Run,
        fates: &[Vec<Fate>],
        actions: Vec<Action>,
        cause: Option<usize>,
    ) {
        let now = self.now;
        for action in actions {
            match action {
                Action::Send {
                    attempt,
                    shard: s,
                    replica: r,
                    frame,
                    budget,
                } => {
                    assert_eq!(attempt, run.order.len(), "attempts number in order");
                    let deadline_ms = u32::from_le_bytes(frame[16..20].try_into().unwrap());
                    let left = (run.overall - now).as_millis().max(1);
                    assert_eq!((deadline_ms.into(), budget.as_millis()), (left, left));
                    let first = run.sent[s][r].replace((now, deadline_ms)).is_none();
                    assert!(first, "one attempt per replica per query");
                    run.order.push((s, r));
                    let (ms, runs) = self.script(s, fates[s][r]);
                    run.due.extend(
                        runs.into_iter()
                            .map(|bytes| (now + ms * MS, attempt, bytes)),
                    );
                }
                Action::Release { attempt, pool } => {
                    let (s, r) = run.order[attempt];
                    let end = match (cause, fates[s][r]) {
                        (Some(b), Fate::Answer(_)) if b == attempt => End::Won,
                        (Some(b), Fate::Reject(_)) if b == attempt => End::Rejected,
                        (Some(b), _) if b == attempt => End::Failed,
                        (Some(b), _) => End::Lost(attempt < b),
                        (None, _) => End::Expired,
                    };
                    assert_eq!(pool, matches!(end, End::Won | End::Rejected), "{end:?}");
                    assert!(end != End::Expired || now == run.overall, "expired early");
                    assert!(run.ends[s][r].replace(end).is_none(), "released twice");
                }
                Action::ClearPool { shard, replica } => run.cleared.push((shard, replica)),
            }
        }
    }

    /// Every rule, against one query's run.
    fn check(
        &mut self,
        fates: &[Vec<Fate>],
        before: &[Vec<(u64, bool, u64)>],
        result: &Result<ClusterReply, ClusterError>,
        run: &Run,
    ) {
        // Charges, streaks and demotions, replica by replica; every attempt
        // is released by the end.
        let (after, mut demoted) = (self.health(), Vec::new());
        for (s, streaks) in self.streaks.iter_mut().enumerate() {
            for (r, streak) in streaks.iter_mut().enumerate() {
                let end = run.ends[s][r];
                assert_eq!(
                    end.is_some(),
                    run.sent[s][r].is_some(),
                    "released by the end"
                );
                let charged = matches!(end, Some(End::Failed | End::Expired | End::Lost(true)));
                assert_eq!(
                    after[s][r].0 - before[s][r].0,
                    u64::from(charged),
                    "{end:?}"
                );
                if charged {
                    *streak += 1;
                } else if end == Some(End::Won) {
                    *streak = 0;
                }
                let demotes = charged && *streak == FAIL_THRESHOLD;
                demoted.extend(demotes.then_some((s, r)));
                assert_eq!(
                    after[s][r].1,
                    *streak < FAIL_THRESHOLD,
                    "replica {s}/{r} health"
                );
                assert_eq!(after[s][r].2 - before[s][r].2, u64::from(demotes));
            }
        }
        let mut cleared = run.cleared.clone();
        cleared.sort_unstable();
        assert_eq!(cleared, demoted, "a demotion clears the pool");
        // Each shard answered, or every replica failed (and the shard
        // degrades), or it rejects the query.
        let won = |s: usize| run.ends[s].contains(&Some(End::Won));
        let all_failed = |s: usize| {
            let failed =
                |(r, end): (usize, &Option<End>)| end.map_or(!before[s][r].1, |e| e == End::Failed);
            run.ends[s].iter().enumerate().all(failed)
        };
        match result {
            Ok(reply) => {
                let shards = 0..self.plan.shards.len();
                assert!(shards.clone().all(|s| won(s) || all_failed(s)));
                let degraded: Vec<u32> = shards
                    .filter(|&s| all_failed(s))
                    .map(|s| s as u32)
                    .collect();
                let mut docs = self.monolith();
                for &s in &degraded {
                    let (lo, hi) = self.plan.ranges[s as usize];
                    docs.retain(|d| !(lo..hi).contains(d));
                }
                assert_eq!((&reply.docs, &reply.degraded), (&docs, &degraded));
            }
            Err(ClusterError::Shard { shard, error }) => {
                assert!(!won(*shard as usize) && !all_failed(*shard as usize));
                assert_eq!(*error, ServerError::DeadlineExceeded { tier: 0 });
            }
            Err(e) => panic!("unexpected {e}"),
        }
        // An answer due by the deadline is never lost.
        for &(s, r) in &run.order {
            if let (Fate::Answer(ms), Some((at, _))) = (fates[s][r], run.sent[s][r]) {
                assert!(
                    at + ms * MS > run.overall || won(s),
                    "an answer in time was lost"
                );
            }
        }
    }
}

/// Three fates in eight answer; the rest fail one way each.
fn fate() -> impl Strategy<Value = Fate> {
    (0u8..8, 0u32..60, 0u8..7).prop_map(|(kind, ms, junk)| match kind {
        0..=2 => Fate::Answer(ms),
        3 => Fate::Silent,
        4 => Fate::Hangup(ms),
        5 => Fate::Truncate(ms),
        6 => Fate::Garbage(ms, junk),
        _ => Fate::Reject(ms),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Up to four queries in a row on one coordinator over 1–4 shards ×
    /// 1–3 replicas, each with its own schedule and a deadline of 20–400 ms
    /// (or none); between them 1 ms passes, or enough for a half-open probe.
    #[test]
    fn scripted_schedules_keep_the_scatter_rules(
        (shards, replicas) in (1usize..5, 1usize..4),
        rounds in vec((vec(vec(fate(), 3), 4), 0u32..400, 0u32..2), 1..5),
    ) {
        let mut world = World::new(shards, replicas);
        for (fates, deadline_ms, idle) in rounds {
            let fates: Vec<Vec<Fate>> = fates[..shards].iter().map(|f| f[..replicas].to_vec()).collect();
            let deadline = if deadline_ms < 20 { Duration::MAX } else { deadline_ms * MS };
            world.now += MS + idle * 600 * MS;
            let _ = world.step(&fates, deadline);
        }
    }
}

/// One shard, two replicas, one query.
fn pair(
    primary: Fate,
    sibling: Fate,
    deadline_ms: u32,
) -> (World, Result<ClusterReply, ClusterError>, Run) {
    let mut world = World::new(1, 2);
    let (result, run) = world.step(&[vec![primary, sibling]], deadline_ms * MS);
    (world, result, run)
}

#[test]
fn hedge_wins() {
    let (world, result, run) = pair(Fate::Answer(900), Fate::Answer(1), 5000);
    assert_eq!(result.unwrap().docs, world.monolith());
    assert_eq!(world.now - run.start, HEDGE_COLD + MS);
    let stats = &world.coordinator.stats().shards[0];
    assert_eq!((stats.hedges, stats.hedge_wins), (1, 1));
    assert_eq!(stats.replicas[0].errors, 1, "launched before the winner");
}

#[test]
fn a_replica_that_loses_three_hedges_is_demoted() {
    // Replica 0 is the primary of queries 1, 3 and 5; each time the hedge
    // to replica 1 wins.
    let mut world = World::new(1, 2);
    for _ in 0..6 {
        world.now += MS;
        let (result, _) = world.step(&[vec![Fate::Answer(900), Fate::Answer(1)]], 5000 * MS);
        assert_eq!(result.unwrap().docs, world.monolith());
    }
    let stats = &world.coordinator.stats().shards[0];
    let (slow, sibling) = (&stats.replicas[0], &stats.replicas[1]);
    assert_eq!((slow.errors, slow.demotions, slow.up), (3, 1, false));
    assert_eq!((sibling.errors, sibling.up, stats.hedge_wins), (0, true, 3));
}

#[test]
fn deadlines_propagate_net_of_elapsed_time() {
    let (_, _, run) = pair(Fate::Silent, Fate::Answer(1), 800);
    let seen = run.sent[0].iter().map(|sent| sent.unwrap().1);
    assert_eq!(
        seen.collect::<Vec<_>>(),
        [800, 780],
        "the hedge left after HEDGE_COLD"
    );
}

#[test]
fn corrupt_replies_are_failed_over() {
    let (world, result, _) = pair(Fate::Garbage(1, 0), Fate::Answer(1), 5000);
    assert_eq!(result.unwrap().docs, world.monolith());
    let stats = &world.coordinator.stats().shards[0];
    assert_eq!((stats.failovers, stats.replicas[0].errors), (1, 1));
}

#[test]
fn truncated_replies_are_failed_over() {
    let (world, result, _) = pair(Fate::Truncate(1), Fate::Answer(1), 5000);
    assert_eq!(result.unwrap().docs, world.monolith());
    assert_eq!(world.coordinator.stats().shards[0].failovers, 1);
}

#[test]
fn a_blackholed_shard_respects_the_deadline() {
    let (world, result, run) = pair(Fate::Silent, Fate::Silent, 400);
    assert!(matches!(result, Err(ClusterError::Shard { shard: 0, .. })));
    assert_eq!(world.now - run.start, 400 * MS);
    let stats = &world.coordinator.stats().shards[0];
    assert!(
        stats.replicas.iter().all(|r| r.errors == 1),
        "open at the deadline"
    );
}

/// Shard 1 of a two-shard, 24-document cluster answers junk `k` from its
/// primary: the sibling answers instead.
fn invalid_reply_fails_over(k: u8) {
    let mut world = World::new(2, 2);
    let fates = [
        vec![Fate::Answer(1); 2],
        vec![Fate::Garbage(1, k), Fate::Answer(1)],
    ];
    let (result, _) = world.step(&fates, 5000 * MS);
    assert_eq!(result.unwrap().docs, world.monolith());
    assert_eq!(world.coordinator.stats().shards[1].replicas[0].errors, 1);
}

#[test]
fn an_overflowing_reply_fails_over() {
    invalid_reply_fails_over(1); // [u32::MAX]
}

#[test]
fn an_unsorted_out_of_range_reply_fails_over() {
    invalid_reply_fails_over(2); // [3, 1, 1000]
}

#[test]
fn a_query_with_no_deadline_answers_like_any_other() {
    let mut world = World::new(2, 1);
    let (result, run) = world.step(
        &[vec![Fate::Answer(1)], vec![Fate::Answer(1)]],
        Duration::MAX,
    );
    assert_eq!(result.unwrap().docs, world.monolith());
    assert!(run
        .order
        .iter()
        .all(|&(s, r)| run.sent[s][r].unwrap().1 == u32::MAX));
}
