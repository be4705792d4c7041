//! `serve_wire` — read-only over the binary TCP front. The reactor, codec,
//! scheduler and result cache do most of the work in the latency phase (most
//! of a round trip is the idle reactor's poll nap); evaluation does most of
//! it in the saturation phase.
//!
//! K = 4 000 documents of about 1 000 terms, B = 256, R = 3, served as a
//! three-tier halving catalog by a default-configured server. One connection
//! sends 200-term windows whose `fpr_budget` rotates over the three tiers;
//! every fourth request repeats one of 64 hot queries, so it is answered by
//! the result cache.

use super::{finish_trace, EndToEnd, Outcome, RunConfig, SETUPS, SETUP_PROBE_OPS};
use crate::corpus::{absent_terms, Corpus, QueryMaker};
use crate::metrics::LayerMetrics;
use crate::oracle::{Inverted, Tally};
use crate::rng::think_schedule;
use crate::stats::{median, median_ops_per_s, quantile_us, slice_rates, Slice};
use crate::sut::{self, EngineCounts, Handle, Index, QueryContext, Tiers};
use crate::trace::Tracer;
use crate::wire::{Connection, Protocol, Reply, Requests};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

const DOCS: usize = 4_000;
const MEAN_TERMS: usize = 1_000;
const BUCKETS: u64 = 256;
const REPETITIONS: usize = 3;
const HALVINGS: u32 = 2;
const WINDOW: usize = 200;
const PERTURB_EVERY: usize = 4;
const HOT_SET: usize = 64;
/// Every `HOT_EVERY`-th request repeats a hot query.
const HOT_EVERY: usize = 4;
const DEPTH: usize = 64;
const LATENCY_WARMUP_OPS: usize = 200;
const LATENCY_OPS: usize = 2_000;
const SLICE_OPS: usize = 4_000;
const SLICES_AT_REFERENCE: usize = 10;
/// Warm-up ops on each fresh server before its timed slices.
const WARMUP_OPS: usize = 2_000;
const ABSENT_QUERIES: usize = 4_000;

fn params(docs: usize) -> sut::Params {
    sut::params(docs, MEAN_TERMS, BUCKETS, REPETITIONS)
}

/// What a request asked, kept to check its reply.
struct Asked {
    terms: Vec<u64>,
    tier: usize,
}

/// The request stream of one server instance. Fresh windows take the tiers
/// in turn; hot query `h` always asks tier `h mod 3`, so its repeats meet
/// the cache entry its first sending made.
struct Stream {
    fresh: QueryMaker,
    hot: Vec<Vec<u64>>,
    sent: usize,
    fresh_sent: usize,
    hot_sent: usize,
    /// (tier, term set) of every request so far: a request seen before is
    /// one the result cache answers, whether a hot repeat or two fresh
    /// windows that happen to coincide.
    seen: HashSet<(usize, u64)>,
    expected_cache_hits: u64,
}

impl Stream {
    fn new(seed: u64, corpus: &Corpus) -> Self {
        let mut hot_maker = QueryMaker::new(seed ^ 0x407, WINDOW, usize::MAX, 0);
        Self {
            fresh: QueryMaker::new(seed, WINDOW, PERTURB_EVERY, 1),
            hot: (0..HOT_SET)
                .map(|_| hot_maker.next(corpus, corpus.docs.len()).terms)
                .collect(),
            sent: 0,
            fresh_sent: 0,
            hot_sent: 0,
            seen: HashSet::new(),
            expected_cache_hits: 0,
        }
    }

    fn next(&mut self, corpus: &Corpus, tiers: usize) -> Asked {
        self.sent += 1;
        let asked = if self.sent.is_multiple_of(HOT_EVERY) {
            let h = self.hot_sent % HOT_SET;
            self.hot_sent += 1;
            Asked {
                terms: self.hot[h].clone(),
                tier: h % tiers,
            }
        } else {
            self.fresh_sent += 1;
            Asked {
                terms: self.fresh.next(corpus, corpus.docs.len()).terms,
                tier: self.fresh_sent % tiers,
            }
        };
        self.note(&asked);
        asked
    }

    fn note(&mut self, asked: &Asked) {
        // Order-free fingerprint of the term set, as the cache keys on sets.
        let set = asked.terms.iter().fold(0u64, |acc, t| {
            acc.wrapping_add(t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        });
        if !self.seen.insert((asked.tier, set)) {
            self.expected_cache_hits += 1;
        }
    }
}

struct Bench {
    corpus: Corpus,
    inverted: Inverted,
    /// The reference index folded by the core route, one per tier.
    reference: Vec<Index>,
}

impl Bench {
    fn new(cfg: &RunConfig) -> Self {
        let docs = cfg.docs(DOCS);
        let corpus = Corpus::generate(cfg.seed, docs, MEAN_TERMS);
        let base = sut::build_reference(params(docs), &corpus);
        let reference = (0..=HALVINGS).map(|t| sut::folded(&base, t)).collect();
        let inverted = Inverted::build(&corpus);
        Self {
            corpus,
            inverted,
            reference,
        }
    }

    fn docs(&self) -> usize {
        self.corpus.docs.len()
    }

    fn batch(&self, stream: &mut Stream, tiers: &Tiers, n: usize) -> (Requests, Vec<Asked>) {
        let mut requests = Requests::default();
        let asked: Vec<Asked> = (0..n)
            .map(|_| stream.next(&self.corpus, tiers.len()))
            .collect();
        for a in &asked {
            requests.push_binary_query(&a.terms, tiers.budget_for(a.tier), sut::DEADLINE);
        }
        (requests, asked)
    }

    fn check_one(
        &self,
        tally: &mut Tally,
        ctx: &mut QueryContext,
        asked: &Asked,
        docs: &[u32],
        tier: usize,
    ) {
        if tier != asked.tier {
            tally.errored(format!("asked tier {} answered by tier {tier}", asked.tier));
            return;
        }
        let truth = self.inverted.matching_all(&asked.terms, self.docs() as u32);
        let reference = sut::query_sparse(&self.reference[tier], &asked.terms, ctx);
        tally.answered("wire query", docs, &truth, &reference);
    }

    fn check(&self, tally: &mut Tally, asked: &[Asked], replies: &[Reply]) {
        let mut ctx = QueryContext::new();
        for (a, reply) in asked.iter().zip(replies) {
            match reply {
                Reply::Docs { docs, tier } => {
                    self.check_one(tally, &mut ctx, a, docs, *tier as usize)
                }
                other => tally.errored(format!("wire query: {other:?}")),
            }
        }
    }
}

/// Start-up of one server instance, timed as `setup_s`: build the index,
/// fold and serialize the catalog, start the engine and the front, connect,
/// and answer the first requests.
struct Instance<'a, 'env> {
    handle: &'a Handle<'env>,
    tiers: &'a Tiers,
    conn: Connection,
    stream: Stream,
}

/// Start `instances` servers one after the other and run `f` against each
/// (`f` is told which is the last). Returns the median start-up time and, per
/// instance, what `f` returned and what the engine counted.
fn with_instances<T>(
    instances: usize,
    cfg: &RunConfig,
    b: &Bench,
    tally: &mut Tally,
    mut f: impl FnMut(&mut Instance<'_, '_>, &mut Tally, bool) -> T,
) -> (f64, Vec<(T, EngineCounts)>) {
    let mut times = Vec::new();
    let mut out = Vec::new();
    for round in 0..instances {
        let t0 = Instant::now();
        let index = sut::build_pipelined(params(b.docs()), &b.corpus);
        let tiers = Tiers::build(&index, HALVINGS);
        drop(index);
        out.push(sut::serve_static(&tiers, |handle, addr: SocketAddr| {
            let mut inst = Instance {
                handle,
                tiers: &tiers,
                conn: Connection::open(addr, Protocol::Binary),
                stream: Stream::new(cfg.seed, &b.corpus),
            };
            let (requests, asked) = b.batch(&mut inst.stream, &tiers, cfg.ops(SETUP_PROBE_OPS));
            let (_, replies) = inst.conn.pipelined_all(&requests, DEPTH);
            times.push(t0.elapsed().as_secs_f64());
            b.check(tally, &asked, &replies);
            f(&mut inst, tally, round + 1 == instances)
        }));
    }
    (median(&times), out)
}

/// What one instance measured: its saturation slices, and from the last
/// instance the latency phase and the false-positive count as well.
#[derive(Default)]
struct Measured {
    slices: Vec<Slice>,
    rtt_ns: Vec<u32>,
    fp_docs: u64,
    absent: usize,
    expected_cache_hits: u64,
}

fn measure(
    cfg: &RunConfig,
    b: &Bench,
    inst: &mut Instance<'_, '_>,
    tally: &mut Tally,
    last: bool,
) -> Measured {
    let tiers = inst.tiers;
    let mut m = Measured::default();

    // Saturation phase; slice 0 is the warm-up. The slices of a run are
    // spread over its instances (rule 8).
    for slice in 0..=cfg.slices_per_instance(SLICES_AT_REFERENCE) {
        let ops = cfg.ops(if slice == 0 { WARMUP_OPS } else { SLICE_OPS });
        let (requests, asked) = b.batch(&mut inst.stream, tiers, ops);
        let (timed, replies) = inst.conn.pipelined_all(&requests, DEPTH);
        if slice > 0 {
            m.slices.push(timed);
        }
        b.check(tally, &asked, &replies);
    }

    if last {
        // Latency phase.
        let warm = cfg.ops(LATENCY_WARMUP_OPS);
        let n = warm + cfg.phase_ops(LATENCY_OPS);
        let (requests, asked) = b.batch(&mut inst.stream, tiers, n);
        let mut replies = Vec::with_capacity(n);
        let rtts = inst
            .conn
            .closed_loop(&requests, &think_schedule(cfg.seed, n), |_, r, _, _| {
                replies.push(r)
            });
        b.check(tally, &asked, &replies);
        m.rtt_ns = rtts[warm..].to_vec();

        // False positives: single absent terms through the same connection.
        let absent = absent_terms(cfg.seed, cfg.ops(ABSENT_QUERIES));
        let mut requests = Requests::default();
        let asked: Vec<Asked> = absent
            .iter()
            .enumerate()
            .map(|(i, &t)| Asked {
                terms: vec![t],
                tier: i % tiers.len(),
            })
            .collect();
        for a in &asked {
            inst.stream.note(a);
            requests.push_binary_query(&a.terms, tiers.budget_for(a.tier), sut::DEADLINE);
        }
        let (_, replies) = inst.conn.pipelined_all(&requests, DEPTH);
        let fp_before = tally.false_positive_docs;
        b.check(tally, &asked, &replies);
        m.fp_docs = tally.false_positive_docs - fp_before;
        m.absent = absent.len();
    }
    m.expected_cache_hits = inst.stream.expected_cache_hits;
    m
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let b = Bench::new(cfg);
    let mut tally = Tally::default();
    let mut bytes = 0;
    let (setup_s, measured) = with_instances(SETUPS, cfg, &b, &mut tally, |inst, tally, last| {
        bytes = inst.tiers.bytes();
        measure(cfg, &b, inst, tally, last)
    });
    let mut slices = Vec::new();
    let mut cache_hits = 0;
    for (m, counts) in &measured {
        slices.extend_from_slice(&m.slices);
        cache_hits += counts.cache_hits;
        if counts.cache_hits != m.expected_cache_hits {
            tally.errored(format!(
                "result cache hit {} times, the stream repeats {} requests",
                counts.cache_hits, m.expected_cache_hits
            ));
        }
    }
    let (m, counts) = measured.last().expect("at least one instance");
    let e2e = EndToEnd {
        setup_s,
        op_p50_us: quantile_us(&m.rtt_ns, 0.5),
        ops_per_s: median_ops_per_s(&slices),
        index_bytes_per_doc: bytes as f64 / b.docs() as f64,
        fp_docs_per_op: m.fp_docs as f64 / m.absent as f64,
    };
    Outcome {
        tally,
        metrics: e2e.metrics(),
        sizes: format!(
            "docs={} terms={} B={BUCKETS} R={REPETITIONS} tiers={} window={WINDOW} latency_ops={} \
             slices={SETUPS}x{}x{} depth={DEPTH} absent_queries={} cache_hits={cache_hits} \
             last_instance: inline={} batches={} rejected={} slice_ops_per_s=[{}]",
            b.docs(),
            b.corpus.total_terms(),
            HALVINGS + 1,
            m.rtt_ns.len(),
            m.slices.len(),
            cfg.ops(SLICE_OPS),
            m.absent,
            counts.inline,
            counts.batches,
            counts.rejected,
            slice_rates(&slices),
        ),
    }
}

/// Per-op µs of `d` over `n` ops.
fn us_per_op(d: std::time::Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e6 / n as f64
}

pub fn trace(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let b = Bench::new(cfg);
    let mut m = LayerMetrics::zeroed();
    let mut tally = Tally::default();

    // The set-up layers, once each.
    let index = sut::build_pipelined(params(b.docs()), &b.corpus);
    let t0 = Instant::now();
    let bytes = sut::to_bytes(&index);
    m.set("core.serialize.to_bytes_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    black_box(sut::open_view(&bytes));
    m.set(
        "core.serialize.open_view_us",
        t0.elapsed().as_secs_f64() * 1e6,
    );
    let t0 = Instant::now();
    black_box(Tiers::build(&index, HALVINGS));
    m.set("server.catalog.build_s", t0.elapsed().as_secs_f64());
    drop((index, bytes));

    // A quarter of the untraced run's saturation stream, replayed against
    // each surface from the outside in. Each replay draws its own windows
    // from the same stream (the server remembers answers and term masks, so
    // the very same windows would be cheaper the second time); op i is the
    // same kind of request, hot or fresh and of the same tier, in all of
    // them.
    let n = cfg.ops(SLICE_OPS) * cfg.slices(SLICES_AT_REFERENCE) / 4;
    let (_, mut traced) = with_instances(1, cfg, &b, &mut tally, |inst, tally, _| {
        let tiers = inst.tiers;
        let replay = |inst: &mut Instance<'_, '_>| b.batch(&mut inst.stream, tiers, n);

        // A warm-up replay, then the untraced one the traced is held against.
        let (requests, asked) = replay(inst);
        let (_, replies) = inst.conn.pipelined_all(&requests, DEPTH);
        b.check(tally, &asked, &replies);
        let (requests, asked) = replay(inst);
        let (untraced, mut replies) = inst.conn.pipelined_all(&requests, DEPTH);
        b.check(tally, &asked, &replies);

        // server.tcp: one span per reply, from the reply before it. The
        // spans tile the slice, so they add up to its wall time.
        let (requests, asked) = replay(inst);
        replies.clear();
        let mut tcp_spans = Vec::with_capacity(n);
        let mut last = tracer.now_ns();
        let traced = inst.conn.pipelined(&requests, DEPTH, |i, r| {
            let now = tracer.now_ns();
            tcp_spans.push(tracer.record("server.tcp", i as u32, 0, last, now));
            last = now;
            replies.push(r);
        });
        b.check(tally, &asked, &replies);

        // server.handle: the engine without the socket.
        let (_, asked) = replay(inst);
        let mut handle_spans = Vec::with_capacity(n);
        let mut hit_ns = 0u64;
        let mut hits = 0usize;
        let mut answers = Vec::with_capacity(n);
        for (i, a) in asked.iter().enumerate() {
            let start = tracer.now_ns();
            let answer = sut::handle_query(inst.handle, &a.terms, tiers.budget_for(a.tier));
            let end = tracer.now_ns();
            handle_spans.push(tracer.record("server.handle", i as u32, tcp_spans[i], start, end));
            // Earlier replays sent every hot query, so each hot request of
            // this one is a result-cache hit.
            if (i + 1) % HOT_EVERY == 0 {
                hit_ns += end - start;
                hits += 1;
            }
            answers.push(answer);
        }
        let mut ctx = QueryContext::new();
        for (a, answer) in asked.iter().zip(answers) {
            match answer {
                Ok((docs, tier)) => b.check_one(tally, &mut ctx, a, &docs, tier),
                Err(e) => tally.errored(format!("handle query: {e}")),
            }
        }

        // core.batch and hash: what the engine calls for a request the
        // result cache does not answer.
        let (_, asked) = replay(inst);
        let mut evaluators: Vec<sut::Evaluator<'_>> = (0..tiers.len())
            .map(|t| sut::Evaluator::new(tiers.tier(t)))
            .collect();
        let mut batch_spans = vec![0; n];
        for (i, a) in asked.iter().enumerate() {
            if (i + 1) % HOT_EVERY != 0 {
                let (_, id) = tracer.span("core.batch", i as u32, handle_spans[i], || {
                    black_box(evaluators[a.tier].query(&a.terms))
                });
                batch_spans[i] = id;
            }
        }
        for (i, a) in asked.iter().enumerate() {
            if batch_spans[i] != 0 {
                tracer.span("hash", i as u32, batch_spans[i], || {
                    black_box(sut::hash_pairs(&a.terms, REPETITIONS))
                });
            }
        }

        // Latency phase, a quarter of it, round trips as spans of their own.
        let lat_n = cfg.phase_ops(LATENCY_OPS) / 4;
        let (requests, asked) = b.batch(&mut inst.stream, tiers, lat_n);
        replies.clear();
        let offset = tracer.now_ns();
        let rtts =
            inst.conn
                .closed_loop(&requests, &think_schedule(cfg.seed, lat_n), |i, r, s, e| {
                    tracer.record("server.tcp.rtt", i as u32, 0, offset + s, offset + e);
                    replies.push(r);
                });
        b.check(tally, &asked, &replies);
        (untraced, traced, hit_ns, hits, rtts)
    });
    let ((untraced, traced, hit_ns, hits, rtts), counts) =
        traced.pop().expect("one instance was traced");

    let times = tracer.layer_times();
    let handle_us = times["server.handle"].total_ns as f64 / 1e3 / n as f64;
    let saturated_us = us_per_op(untraced.elapsed, n);
    m.set("server.handle.query_us_per_op", handle_us);
    m.set(
        "server.cache.hit_us_per_op",
        hit_ns as f64 / 1e3 / hits.max(1) as f64,
    );
    m.set("server.cache.hits", counts.cache_hits as f64);
    m.set(
        "server.cache.hit_ratio",
        counts.cache_hits as f64 / counts.cache_lookups.max(1) as f64,
    );
    m.set(
        "server.scheduler.inline_share",
        counts.inline as f64 / counts.completed.max(1) as f64,
    );
    m.set("server.scheduler.batches", counts.batches as f64);
    m.set("server.tcp.rejected", counts.rejected as f64);
    m.set("server.tcp.rtt_p50_us", quantile_us(&rtts, 0.5));
    m.set("server.tcp.rtt_p99_us", quantile_us(&rtts, 0.99));
    m.set(
        "server.tcp.idle_wait_us",
        quantile_us(&rtts, 0.5) - handle_us,
    );
    m.set("server.tcp.saturated_us_per_op", saturated_us);
    m.set(
        "server.tcp.saturated_overhead_us_per_op",
        saturated_us - handle_us,
    );
    m.set(
        "trace.overhead_share",
        traced.elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0,
    );
    if let Some(t) = times.get("core.batch") {
        m.set(
            "core.batch.query_us_per_op",
            t.total_ns as f64 / 1e3 / t.spans.max(1) as f64,
        );
    }
    if let Some(t) = times.get("hash") {
        m.set(
            "hash.pair_ns_per_term",
            t.total_ns as f64 / (t.spans as usize * WINDOW * REPETITIONS).max(1) as f64,
        );
    }
    finish_trace(
        &mut m,
        tracer,
        n,
        us_per_op(traced.elapsed, n),
        &["hash", "core.batch", "server.handle", "server.tcp"],
        true,
    );
    Outcome {
        tally,
        metrics: m.into_vec(),
        sizes: format!(
            "docs={} traced_ops={n} latency_ops={}",
            b.docs(),
            rtts.len()
        ),
    }
}
