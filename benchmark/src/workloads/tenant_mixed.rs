//! `tenant_mixed` — writes beside reads over the RESP front: the same
//! serving layer used differently. `server::resp`, `server::tenant` and
//! `core::generations` do most of the work.
//!
//! One tenant, loaded over the wire with 2 500 documents of about 300 terms
//! (which crosses two memtable seals and a merge), then a repeating block of
//! one `R.INSERTDOC` and eight `R.QUERYSEQ t0 0.8 <50 terms>`; every fourth
//! query has 15 of its terms replaced by absent ones and no longer matches.
//! Reads are the timed kind (rule 4); writes are reported per layer. Each of
//! the five instances of a run inserts some 1 200 more documents while it is
//! timed, which crosses the third seal.

use super::{finish_trace, EndToEnd, Outcome, RunConfig, SETUPS, SETUP_PROBE_OPS};
use crate::corpus::{absent_terms, doc_name, Corpus, QueryMaker};
use crate::metrics::LayerMetrics;
use crate::oracle::{Inverted, Tally};
use crate::rng::think_schedule;
use crate::stats::{median, median_ops_per_s, quantile_us, slice_rates, Slice};
use crate::sut::{self, Index, QueryContext, Registry};
use crate::trace::Tracer;
use crate::wire::{Connection, Protocol, Reply, Requests};
use std::time::{Duration, Instant};

const TENANT: &str = "t0";
const THETA: f64 = 0.8;
const THETA_TOKEN: &str = "0.8";
const PRELOAD_DOCS: usize = 2_500;
const MEAN_TERMS: usize = 300;
/// Documents the tenant's filters are sized for: some more than an instance
/// ever holds (about 3 900), few enough that single absent terms still find
/// false positives by the thousand to count. The registry seals a memtable
/// at 1 024 documents whatever the geometry.
const GEOMETRY_DOCS: usize = 5_120;
const BUCKETS: u64 = 128;
const REPETITIONS: usize = 3;
const WINDOW: usize = 50;
const PERTURB_EVERY: usize = 4;
const PERTURB_TERMS: usize = 15;
/// One insert, then this many queries.
const READS_PER_WRITE: usize = 8;
const BLOCK: usize = READS_PER_WRITE + 1;
const DEPTH: usize = 64;
const LATENCY_WARMUP_OPS: usize = 180;
const LATENCY_OPS: usize = 1_800;
const SLICE_OPS: usize = 3_600;
const SLICES_AT_REFERENCE: usize = 10;
const ABSENT_QUERIES: usize = 32_000;

fn params() -> sut::Params {
    sut::params(GEOMETRY_DOCS, MEAN_TERMS, BUCKETS, REPETITIONS)
}

/// One operation of the stream, kept to check its reply.
enum Op {
    /// Insert document `doc` of the corpus.
    Insert { doc: usize },
    /// Query when `visible` documents are in the index.
    Query {
        terms: Vec<u64>,
        theta: f64,
        visible: usize,
    },
}

/// The op stream of one server instance and the documents it has inserted.
struct Stream {
    queries: QueryMaker,
    inserted: usize,
    sent: usize,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Self {
            queries: QueryMaker::new(seed, WINDOW, PERTURB_EVERY, PERTURB_TERMS),
            inserted: 0,
            sent: 0,
        }
    }

    fn insert(&mut self) -> Op {
        self.inserted += 1;
        Op::Insert {
            doc: self.inserted - 1,
        }
    }

    /// Next op of the repeating block: an insert, then the reads.
    fn next(&mut self, corpus: &Corpus) -> Op {
        self.sent += 1;
        if self.sent % BLOCK == 1 {
            self.insert()
        } else {
            Op::Query {
                terms: self.queries.next(corpus, self.inserted).terms,
                theta: THETA,
                visible: self.inserted,
            }
        }
    }
}

fn encode(corpus: &Corpus, ops: &[Op]) -> Requests {
    let mut requests = Requests::default();
    for op in ops {
        match op {
            Op::Insert { doc } => {
                requests.push_resp(
                    &["R.INSERTDOC", TENANT, &doc_name(*doc)],
                    &corpus.docs[*doc],
                );
            }
            Op::Query { terms, theta, .. } => {
                let token = if *theta == THETA { THETA_TOKEN } else { "1.0" };
                requests.push_resp(&["R.QUERYSEQ", TENANT, token], terms);
            }
        }
    }
    requests
}

/// The oracle of one instance: a reference monolith that follows the
/// stream's inserts (a generational index answers bit for bit like a
/// monolith of the same documents in the same order), beside the exact
/// inverted index of every document the run will ever insert.
struct Oracle<'a> {
    inverted: &'a Inverted,
    reference: Index,
    ctx: QueryContext,
}

impl<'a> Oracle<'a> {
    fn new(b: &'a Bench) -> Self {
        Self {
            inverted: &b.inverted,
            reference: sut::empty_index(params()),
            ctx: QueryContext::new(),
        }
    }

    /// Replay `ops` in order against the reference and hold each answer
    /// against it. `answers[i]` is the documents op `i` returned (an insert
    /// returns the new document's id).
    fn check(
        &mut self,
        tally: &mut Tally,
        corpus: &Corpus,
        ops: &[Op],
        answers: &[Result<Vec<u32>, String>],
    ) {
        for (op, answer) in ops.iter().zip(answers) {
            match (op, answer) {
                (Op::Insert { doc }, Ok(id)) => {
                    sut::insert_reference(&mut self.reference, &doc_name(*doc), &corpus.docs[*doc]);
                    if id[..] == [*doc as u32] {
                        tally.passed(1);
                    } else {
                        tally.errored(format!("insert of d{doc} returned {id:?}"));
                    }
                }
                (Op::Insert { doc }, Err(e)) => {
                    // Keep the reference in step so later answers are judged
                    // against what a correct server would hold.
                    sut::insert_reference(&mut self.reference, &doc_name(*doc), &corpus.docs[*doc]);
                    tally.errored(format!("insert of d{doc}: {e}"));
                }
                (
                    Op::Query {
                        terms,
                        theta,
                        visible,
                    },
                    Ok(docs),
                ) => {
                    let truth = self.inverted.matching_theta(terms, *theta, *visible as u32);
                    let reference =
                        sut::query_theta_sparse(&self.reference, terms, *theta, &mut self.ctx);
                    tally.answered("query", docs, &truth, &reference);
                }
                (Op::Query { .. }, Err(e)) => tally.errored(format!("query: {e}")),
            }
        }
    }
}

fn answer_of(reply: Reply) -> Result<Vec<u32>, String> {
    match reply {
        Reply::Docs { docs, .. } => Ok(docs),
        Reply::Int(id) => Ok(vec![id as u32]),
        other => Err(format!("{other:?}")),
    }
}

struct Bench {
    corpus: Corpus,
    inverted: Inverted,
}

impl Bench {
    fn new(cfg: &RunConfig) -> Self {
        // Every document the longest run can insert: the preload, the
        // probes, and one per block of every phase.
        let ops = cfg.ops(SETUP_PROBE_OPS)
            + cfg.ops(LATENCY_WARMUP_OPS)
            + latency_ops(cfg)
            + (cfg.slices_per_instance(SLICES_AT_REFERENCE) + 1) * cfg.ops(SLICE_OPS);
        let docs = preload_docs(cfg) + ops / BLOCK + 2;
        let corpus = Corpus::generate(cfg.seed, docs, MEAN_TERMS);
        let inverted = Inverted::build(&corpus);
        Self { corpus, inverted }
    }

    fn ops(&self, stream: &mut Stream, n: usize) -> Vec<Op> {
        (0..n).map(|_| stream.next(&self.corpus)).collect()
    }
}

fn preload_docs(cfg: &RunConfig) -> usize {
    cfg.docs(PRELOAD_DOCS)
}

fn latency_ops(cfg: &RunConfig) -> usize {
    cfg.phase_ops(LATENCY_OPS)
}

struct Instance<'a> {
    registry: &'a Registry,
    conn: Connection,
    stream: Stream,
    oracle: Oracle<'a>,
}

impl Instance<'_> {
    /// Send `ops` with `DEPTH` in flight, as one slice, and check them.
    fn pipelined(&mut self, b: &Bench, tally: &mut Tally, ops: &[Op]) -> Slice {
        let (slice, replies) = self.conn.pipelined_all(&encode(&b.corpus, ops), DEPTH);
        let answers: Vec<_> = replies.into_iter().map(answer_of).collect();
        self.oracle.check(tally, &b.corpus, ops, &answers);
        slice
    }
}

/// Start `instances` servers one after the other and run `f` against each
/// (`f` is told which is the last). Start-up is timed as `setup_s`: start the
/// registry and the RESP front, connect, create the tenant, load it over the
/// wire, and answer the first requests. Returns the median start-up time and
/// what `f` returned per instance.
fn with_instances<T>(
    instances: usize,
    cfg: &RunConfig,
    b: &Bench,
    tally: &mut Tally,
    mut f: impl FnMut(&mut Instance<'_>, &mut Tally, bool) -> T,
) -> (f64, Vec<T>) {
    let mut times = Vec::new();
    let mut out = Vec::new();
    for round in 0..instances {
        // The stream, its encoded requests and the oracle are the
        // benchmark's own work, so they are made before the clock starts.
        let mut stream = Stream::new(cfg.seed);
        let preload: Vec<Op> = (0..preload_docs(cfg)).map(|_| stream.insert()).collect();
        let probes = b.ops(&mut stream, cfg.ops(SETUP_PROBE_OPS));
        let (load, probe) = (encode(&b.corpus, &preload), encode(&b.corpus, &probes));
        let mut oracle = Oracle::new(b);
        let t0 = Instant::now();
        out.push(sut::serve_tenants(params(), |registry, addr| {
            let mut conn = Connection::open(addr, Protocol::Resp);
            let created = conn.call_one(|r| r.push_resp(&["R.CREATE", TENANT], &[]));
            let (_, loaded) = conn.pipelined_all(&load, DEPTH);
            let (_, probed) = conn.pipelined_all(&probe, DEPTH);
            times.push(t0.elapsed().as_secs_f64());
            if created != Reply::Ok {
                tally.errored(format!("R.CREATE: {created:?}"));
            }
            for (ops, replies) in [(&preload, loaded), (&probes, probed)] {
                let answers: Vec<_> = replies.into_iter().map(answer_of).collect();
                oracle.check(tally, &b.corpus, ops, &answers);
            }
            let mut inst = Instance {
                registry,
                conn,
                stream,
                oracle,
            };
            f(&mut inst, tally, round + 1 == instances)
        }));
    }
    (median(&times), out)
}

/// What one instance measured: its saturation phase as one slice, and from
/// the last instance the latency phase, the false-positive count and the
/// tenant's final shape as well.
#[derive(Default)]
struct Measured {
    saturation: Option<Slice>,
    read_rtt_ns: Vec<u32>,
    write_rtt_ns: Vec<u32>,
    fp_docs: u64,
    absent: usize,
    shape: Option<sut::TenantShape>,
}

/// Closed-loop latency phase over `ops`; returns (read rtts, write rtts)
/// after the first `warm` ops.
fn latency_phase(
    cfg: &RunConfig,
    b: &Bench,
    inst: &mut Instance<'_>,
    tally: &mut Tally,
    warm: usize,
    n: usize,
    mut on_rtt: impl FnMut(usize, u64, u64),
) -> (Vec<u32>, Vec<u32>) {
    let ops = b.ops(&mut inst.stream, warm + n);
    let requests = encode(&b.corpus, &ops);
    let mut answers = Vec::with_capacity(ops.len());
    let rtts = inst.conn.closed_loop(
        &requests,
        &think_schedule(cfg.seed, ops.len()),
        |i, r, s, e| {
            on_rtt(i, s, e);
            answers.push(answer_of(r));
        },
    );
    inst.oracle.check(tally, &b.corpus, &ops, &answers);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for (op, rtt) in ops.iter().zip(rtts).skip(warm) {
        match op {
            Op::Insert { .. } => writes.push(rtt),
            Op::Query { .. } => reads.push(rtt),
        }
    }
    (reads, writes)
}

fn measure(
    cfg: &RunConfig,
    b: &Bench,
    inst: &mut Instance<'_>,
    tally: &mut Tally,
    last: bool,
) -> Measured {
    let mut m = Measured::default();

    // Saturation phase; slice 0 is the warm-up. A tenant slows as it grows,
    // so slices of one instance are not alike, but the same slices of
    // another instance are: every instance runs the same few slices from
    // the same loaded state, and its phase as a whole is one sample (rule 8).
    let (mut ops_done, mut elapsed) = (0, Duration::ZERO);
    for slice in 0..=cfg.slices_per_instance(SLICES_AT_REFERENCE) {
        let ops = b.ops(&mut inst.stream, cfg.ops(SLICE_OPS));
        let timed = inst.pipelined(b, tally, &ops);
        if slice > 0 {
            ops_done += timed.ops;
            elapsed += timed.elapsed;
        }
    }
    m.saturation = Some(Slice {
        ops: ops_done,
        elapsed,
    });

    if last {
        (m.read_rtt_ns, m.write_rtt_ns) = latency_phase(
            cfg,
            b,
            inst,
            tally,
            cfg.ops(LATENCY_WARMUP_OPS),
            latency_ops(cfg),
            |_, _, _| {},
        );

        // False positives: single absent terms through the same connection.
        let visible = inst.stream.inserted;
        let absent: Vec<Op> = absent_terms(cfg.seed, cfg.ops(ABSENT_QUERIES))
            .into_iter()
            .map(|t| Op::Query {
                terms: vec![t],
                theta: 1.0,
                visible,
            })
            .collect();
        let fp_before = tally.false_positive_docs;
        inst.pipelined(b, tally, &absent);
        m.fp_docs = tally.false_positive_docs - fp_before;
        m.absent = absent.len();
        m.shape = Some(sut::tenant_shape(inst.registry, TENANT));
    }
    m
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let b = Bench::new(cfg);
    let mut tally = Tally::default();
    let (setup_s, measured) = with_instances(SETUPS, cfg, &b, &mut tally, |inst, tally, last| {
        measure(cfg, &b, inst, tally, last)
    });
    let slices: Vec<Slice> = measured.iter().filter_map(|m| m.saturation).collect();
    let m = measured.last().expect("at least one instance");
    let shape = m.shape.expect("the last instance reports its shape");
    let e2e = EndToEnd {
        setup_s,
        op_p50_us: quantile_us(&m.read_rtt_ns, 0.5),
        ops_per_s: median_ops_per_s(&slices),
        index_bytes_per_doc: shape.size_bytes as f64 / shape.documents as f64,
        fp_docs_per_op: m.fp_docs as f64 / m.absent as f64,
    };
    Outcome {
        tally,
        metrics: e2e.metrics(),
        sizes: format!(
            "preload={} terms/doc~{MEAN_TERMS} B={BUCKETS} R={REPETITIONS} block=1w+{READS_PER_WRITE}r window={WINDOW} \
             theta={THETA} latency_reads={} latency_writes={} write_p50_us={:.1} slices={SETUPS}x{}x{} depth={DEPTH} \
             absent_queries={} final_docs={} generations={} cache_hits={} instance_ops_per_s=[{}]",
            preload_docs(cfg),
            m.read_rtt_ns.len(),
            m.write_rtt_ns.len(),
            quantile_us(&m.write_rtt_ns, 0.5),
            cfg.slices_per_instance(SLICES_AT_REFERENCE),
            cfg.ops(SLICE_OPS),
            m.absent,
            shape.documents,
            shape.generations,
            shape.cache_hits,
            slice_rates(&slices),
        ),
    }
}

pub fn trace(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let b = Bench::new(cfg);
    let mut m = LayerMetrics::zeroed();
    let mut tally = Tally::default();
    // One instance's timed saturation stream, a fifth of the untraced
    // run's. Every surface gets a freshly loaded instance, so the very same
    // ops replay against each from the very same state.
    let warm = cfg.ops(SLICE_OPS);
    let n = cfg.ops(SLICE_OPS) * cfg.slices_per_instance(SLICES_AT_REFERENCE);
    let lat_n = latency_ops(cfg) / 4;

    // server.resp: one instance untraced, the next traced with one span per
    // reply (the spans tile the slice), then a quarter of the latency phase.
    let (_, mut wire) = with_instances(2, cfg, &b, &mut tally, |inst, tally, traced| {
        let lead = b.ops(&mut inst.stream, warm);
        inst.pipelined(&b, tally, &lead);
        let ops = b.ops(&mut inst.stream, n);
        if !traced {
            return (
                inst.pipelined(&b, tally, &ops),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            );
        }
        let requests = encode(&b.corpus, &ops);
        let mut answers = Vec::with_capacity(n);
        let mut spans = Vec::with_capacity(n);
        let mut last = tracer.now_ns();
        let slice = inst.conn.pipelined(&requests, DEPTH, |i, r| {
            let now = tracer.now_ns();
            spans.push(tracer.record("server.resp", i as u32, 0, last, now));
            last = now;
            answers.push(answer_of(r));
        });
        inst.oracle.check(tally, &b.corpus, &ops, &answers);

        let offset = tracer.now_ns();
        let (reads, writes) = latency_phase(cfg, &b, inst, tally, 0, lat_n, |i, s, e| {
            tracer.record("server.resp.rtt", i as u32, 0, offset + s, offset + e);
        });
        (slice, spans, reads, writes)
    });
    let (traced, resp_spans, reads, writes) = wire.pop().expect("the traced instance");
    let (untraced, ..) = wire.pop().expect("the untraced instance");

    // The same ops through the inner surfaces, from the same loaded state.
    let mut stream = Stream::new(cfg.seed);
    let preload: Vec<Op> = (0..preload_docs(cfg)).map(|_| stream.insert()).collect();
    let lead = b.ops(&mut stream, cfg.ops(SETUP_PROBE_OPS) + warm);
    let ops = b.ops(&mut stream, n);

    // server.tenant: the registry in-process. A merge the insert made due
    // runs with the insert, as the reactor runs it on its next idle tick.
    let registry = sut::registry(params());
    sut::tenant_create(&registry, TENANT);
    let mut oracle = Oracle::new(&b);
    let mut apply = |op: &Op| match op {
        Op::Insert { doc } => {
            sut::tenant_insert(&registry, TENANT, &doc_name(*doc), &b.corpus.docs[*doc]);
            while sut::tenant_maintain(&registry) {}
            Ok(vec![*doc as u32])
        }
        Op::Query { terms, theta, .. } => {
            Ok(sut::tenant_query_theta(&registry, TENANT, terms, *theta))
        }
    };
    for part in [&preload, &lead] {
        let answers: Vec<_> = part.iter().map(&mut apply).collect();
        oracle.check(&mut tally, &b.corpus, part, &answers);
    }
    let mut tenant_spans = Vec::with_capacity(n);
    let mut tenant = OpTimes::default();
    let mut answers = Vec::with_capacity(n);
    for (i, op) in ops.iter().enumerate() {
        let start = tracer.now_ns();
        answers.push(apply(op));
        let end = tracer.now_ns();
        tenant_spans.push(tracer.record("server.tenant", i as u32, resp_spans[i], start, end));
        tenant.add(op, end - start);
    }
    oracle.check(&mut tally, &b.corpus, &ops, &answers);
    drop(registry);

    // core.generations: the live index beneath the tenant, merges timed
    // apart.
    let mut generations = sut::Generations::new(params());
    let mut ctx = QueryContext::new();
    for op in preload.iter().chain(&lead) {
        apply_generations(&mut generations, &mut ctx, &b.corpus, op);
    }
    let (seals0, merges0, merge0) = (
        generations.seals,
        generations.merges,
        generations.merge_time,
    );
    let mut inner = OpTimes::default();
    for (i, op) in ops.iter().enumerate() {
        let start = tracer.now_ns();
        apply_generations(&mut generations, &mut ctx, &b.corpus, op);
        let end = tracer.now_ns();
        tracer.record("core.generations", i as u32, tenant_spans[i], start, end);
        inner.add(op, end - start);
    }

    let tenant_us = (tenant.read_ns + tenant.write_ns) as f64 / 1e3 / n as f64;
    let saturated_us = untraced.elapsed.as_secs_f64() * 1e6 / n as f64;
    m.set("core.generations.insert_us_per_doc", inner.write_us());
    m.set("core.generations.query_us_per_op", inner.read_us());
    m.set(
        "core.generations.seals",
        (generations.seals - seals0) as f64,
    );
    m.set(
        "core.generations.merges",
        (generations.merges - merges0) as f64,
    );
    m.set(
        "core.generations.merge_s",
        (generations.merge_time - merge0).as_secs_f64(),
    );
    m.set("core.generations.count", generations.count() as f64);
    m.set("server.tenant.query_us_per_op", tenant.read_us());
    m.set("server.tenant.insert_us_per_doc", tenant.write_us());
    m.set("server.resp.read_p50_us", quantile_us(&reads, 0.5));
    m.set("server.resp.read_p99_us", quantile_us(&reads, 0.99));
    m.set("server.resp.write_p50_us", quantile_us(&writes, 0.5));
    m.set(
        "server.resp.idle_wait_us",
        quantile_us(&reads, 0.5) - tenant.read_us(),
    );
    m.set("server.resp.saturated_us_per_op", saturated_us);
    m.set(
        "server.resp.saturated_overhead_us_per_op",
        saturated_us - tenant_us,
    );
    m.set(
        "trace.overhead_share",
        traced.elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0,
    );
    finish_trace(
        &mut m,
        tracer,
        n,
        traced.elapsed.as_secs_f64() * 1e6 / n as f64,
        &["core.generations", "server.tenant", "server.resp"],
        true,
    );
    Outcome {
        tally,
        metrics: m.into_vec(),
        sizes: format!(
            "preload={} traced_ops={n} latency_reads={} latency_writes={}",
            preload_docs(cfg),
            reads.len(),
            writes.len()
        ),
    }
}

fn apply_generations(g: &mut sut::Generations, ctx: &mut QueryContext, corpus: &Corpus, op: &Op) {
    match op {
        Op::Insert { doc } => g.insert(&doc_name(*doc), &corpus.docs[*doc]),
        Op::Query { terms, theta, .. } => {
            std::hint::black_box(g.query_theta(terms, *theta, ctx));
        }
    }
}

/// Time spent in reads and in writes of one replay.
#[derive(Default)]
struct OpTimes {
    read_ns: u64,
    reads: u64,
    write_ns: u64,
    writes: u64,
}

impl OpTimes {
    fn add(&mut self, op: &Op, ns: u64) {
        match op {
            Op::Insert { .. } => {
                self.write_ns += ns;
                self.writes += 1;
            }
            Op::Query { .. } => {
                self.read_ns += ns;
                self.reads += 1;
            }
        }
    }

    fn read_us(&self) -> f64 {
        self.read_ns as f64 / 1e3 / self.reads.max(1) as f64
    }

    fn write_us(&self) -> f64 {
        self.write_ns as f64 / 1e3 / self.writes.max(1) as f64
    }
}
