//! `query_direct` — read-only, in-process: the paper's claim that query time
//! grows sub-linearly in the number of documents. `hash`, `bitvec::kernel`
//! and `core::query` do all the work; nothing from `server` runs.
//!
//! K = 16 000 documents of about 500 terms, B = 569 ≈ 4.5·√K (the paper
//! grid's rule), R = 3. One op is `Rambo::query_terms_with` in Full mode on a
//! 200-term window; three windows in four are cut from an indexed document,
//! one in four has a term replaced by an absent one.

use super::{
    clamp_ns, finish_trace, EndToEnd, Outcome, RunConfig, Samples, SETUPS, SETUP_PROBE_OPS,
};
use crate::corpus::{absent_terms, Corpus, Query, QueryMaker};
use crate::metrics::LayerMetrics;
use crate::oracle::{Inverted, Tally};
use crate::stats::{loglog_slope, median, quantile_us, slice_rates};
use crate::sut::{self, Index, QueryContext};
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;

const DOCS: usize = 16_000;
const MEAN_TERMS: usize = 500;
const REPETITIONS: usize = 3;
const WINDOW: usize = 200;
const PERTURB_EVERY: usize = 4;
const SLICE_OPS: usize = 20_000;
const SLICES_AT_REFERENCE: usize = 10;
/// Warm-up ops on each fresh index before its timed slices.
const WARMUP_OPS: usize = 5_000;
/// Single-term absent queries of the false-positive count: enough that the
/// count runs to thousands of documents and repeats across seeds.
const ABSENT_QUERIES: usize = 8_000;

/// The paper grid's geometry rule, B ≈ 4.5·√K.
fn buckets_for(docs: usize) -> u64 {
    (4.5 * (docs as f64).sqrt()).round() as u64
}

fn params_for(docs: usize) -> sut::Params {
    sut::params(docs, MEAN_TERMS, buckets_for(docs), REPETITIONS)
}

/// Everything but the index under test: inputs and oracle.
struct Bench {
    corpus: Corpus,
    reference: Index,
    inverted: Inverted,
    maker: QueryMaker,
}

fn prepare(cfg: &RunConfig, docs: usize) -> Bench {
    let corpus = Corpus::generate(cfg.seed, docs, MEAN_TERMS);
    let reference = sut::build_reference(params_for(docs), &corpus);
    let inverted = Inverted::build(&corpus);
    Bench {
        corpus,
        reference,
        inverted,
        maker: QueryMaker::new(cfg.seed, WINDOW, PERTURB_EVERY, 1),
    }
}

impl Bench {
    /// One set-up: build the index and answer the first queries. Returns the
    /// index and the seconds it took.
    fn instance(&mut self) -> (Index, f64) {
        let docs = self.corpus.docs.len();
        let probes = self.queries(SETUP_PROBE_OPS);
        let t0 = Instant::now();
        let index = sut::build_pipelined(params_for(docs), &self.corpus);
        let mut ctx = QueryContext::new();
        for q in &probes {
            black_box(sut::query_full(&index, &q.terms, &mut ctx));
        }
        (index, t0.elapsed().as_secs_f64())
    }

    fn queries(&mut self, n: usize) -> Vec<Query> {
        let visible = self.corpus.docs.len();
        (0..n)
            .map(|_| self.maker.next(&self.corpus, visible))
            .collect()
    }

    /// Hold every answer of a slice against the oracle. The reference
    /// answers by the other evaluation strategy (RAMBO+).
    fn check(&self, tally: &mut Tally, queries: &[Query], answers: &[Vec<u32>]) {
        let mut ctx = QueryContext::new();
        let visible = self.corpus.docs.len() as u32;
        for (q, answer) in queries.iter().zip(answers) {
            let truth = self.inverted.matching_all(&q.terms, visible);
            let reference = sut::query_sparse(&self.reference, &q.terms, &mut ctx);
            tally.answered("query_terms_with", answer, &truth, &reference);
        }
    }
}

/// One closed-loop slice against `index`: per-op times and the answers.
fn timed_slice(
    index: &Index,
    queries: &[Query],
    ctx: &mut QueryContext,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let mut op_ns = Vec::with_capacity(queries.len());
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let t0 = Instant::now();
        let docs = sut::query_full(index, black_box(&q.terms), ctx);
        op_ns.push(clamp_ns(t0.elapsed()));
        answers.push(docs);
    }
    (op_ns, answers)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let docs = cfg.docs(DOCS);
    let mut b = prepare(cfg, docs);
    let slice_ops = cfg.ops(SLICE_OPS);
    let per_instance = cfg.slices_per_instance(SLICES_AT_REFERENCE);
    let mut tally = Tally::default();
    let mut ctx = QueryContext::new();
    let mut samples = Samples::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last = None;
    // Every set-up's index is measured, the timed slices spread over them
    // (rule 8): where an index lands in memory colours every query on it.
    for _ in 0..SETUPS {
        drop(last.take());
        let (index, setup_s) = b.instance();
        setups.push(setup_s);
        for slice in 0..=per_instance {
            // Slice 0 is the warm-up: checked like the rest, timed by nobody.
            let queries = b.queries(if slice == 0 {
                cfg.ops(WARMUP_OPS)
            } else {
                slice_ops
            });
            let t0 = Instant::now();
            let (op_ns, answers) = timed_slice(&index, &queries, &mut ctx);
            let elapsed = t0.elapsed();
            if slice > 0 {
                samples.push_slice(&op_ns, elapsed);
            }
            b.check(&mut tally, &queries, &answers);
        }
        last = Some(index);
    }
    let index = last.expect("at least one set-up");

    let timed_failed = tally.failed;
    let absent = absent_terms(cfg.seed, cfg.ops(ABSENT_QUERIES));
    let fp_before = tally.false_positive_docs;
    for &t in &absent {
        let answer = sut::query_full(&index, &[t], &mut ctx);
        let reference = sut::query_sparse(&b.reference, &[t], &mut ctx);
        tally.answered("absent term", &answer, &[], &reference);
    }
    let fp_docs = tally.false_positive_docs - fp_before;

    let e2e = EndToEnd {
        setup_s: median(&setups),
        op_p50_us: samples.p50_us(),
        ops_per_s: samples.ops_per_s(),
        index_bytes_per_doc: index.size_bytes() as f64 / docs as f64,
        fp_docs_per_op: fp_docs as f64 / absent.len() as f64,
    };
    Outcome {
        tally,
        metrics: e2e.metrics(),
        sizes: format!(
            "docs={docs} terms={} B={} R={REPETITIONS} window={WINDOW} slices={SETUPS}x{per_instance}x{slice_ops} \
             samples={} absent_queries={} timed_failed={timed_failed} slice_ops_per_s=[{}]",
            b.corpus.total_terms(),
            buckets_for(docs),
            samples.op_ns.len(),
            absent.len(),
            slice_rates(&samples.slices),
        ),
    }
}

/// Mean Full-mode µs per op of `n` fresh windows against an index of `docs`
/// documents built by the same geometry rule.
fn scaling_point(cfg: &RunConfig, docs: usize, n: usize) -> f64 {
    let corpus = Corpus::generate(cfg.seed ^ docs as u64, docs, MEAN_TERMS);
    let index = sut::build_pipelined(params_for(docs), &corpus);
    let mut maker = QueryMaker::new(cfg.seed, WINDOW, PERTURB_EVERY, 1);
    let queries: Vec<Query> = (0..n).map(|_| maker.next(&corpus, docs)).collect();
    let mut ctx = QueryContext::new();
    timed_slice(&index, &queries[..n / 4], &mut ctx);
    let t0 = Instant::now();
    timed_slice(&index, &queries, &mut ctx);
    t0.elapsed().as_secs_f64() * 1e6 / n as f64
}

pub fn trace(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let docs = cfg.docs(DOCS);
    let mut b = prepare(cfg, docs);
    let (index, _) = b.instance();
    let mut m = LayerMetrics::zeroed();
    let mut tally = Tally::default();
    let mut ctx = QueryContext::new();
    // A quarter of the untraced run's op stream.
    let n = cfg.ops(SLICE_OPS) * cfg.slices(SLICES_AT_REFERENCE) / 4;
    let warm = b.queries(n / 4);
    timed_slice(&index, &warm, &mut ctx);
    let queries = b.queries(n);

    // Outermost surface untraced, then traced: the difference is what
    // recording costs.
    let t0 = Instant::now();
    let (op_ns, answers) = timed_slice(&index, &queries, &mut ctx);
    let untraced = t0.elapsed();
    b.check(&mut tally, &queries, &answers);
    let returned: usize = answers.iter().map(Vec::len).sum();

    let t0 = Instant::now();
    let mut parents = Vec::with_capacity(n);
    for (op, q) in queries.iter().enumerate() {
        let (_, id) = tracer.span("core.query", op as u32, 0, || {
            black_box(sut::query_full(&index, &q.terms, &mut ctx))
        });
        parents.push(id);
    }
    let traced = t0.elapsed();
    let t0 = Instant::now();
    for (op, q) in queries.iter().enumerate() {
        tracer.span("hash", op as u32, parents[op], || {
            black_box(sut::hash_pairs(&q.terms, REPETITIONS))
        });
    }
    let hash = t0.elapsed();

    let per_op = |d: std::time::Duration| d.as_secs_f64() * 1e6 / n as f64;
    m.set(
        "hash.pair_ns_per_term",
        hash.as_secs_f64() * 1e9 / (n * WINDOW * REPETITIONS) as f64,
    );
    m.set("core.query.full_us_per_op", per_op(untraced));
    m.set("core.query.full_p99_us", quantile_us(&op_ns, 0.99));
    m.set(
        "core.query.docs_returned_per_op",
        returned as f64 / n as f64,
    );
    m.set(
        "trace.overhead_share",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );

    let t0 = Instant::now();
    for q in &queries {
        black_box(sut::query_sparse(&index, &q.terms, &mut ctx));
    }
    m.set("core.query.sparse_us_per_op", per_op(t0.elapsed()));

    // θ queries cost one Full probe per term: a sixteenth of the stream.
    let theta_ops = (n / 16).max(1);
    let t0 = Instant::now();
    for q in &queries[..theta_ops] {
        black_box(sut::query_theta(&index, &q.terms, 0.8, &mut ctx));
    }
    m.set(
        "core.query.seq_theta_us_per_op",
        t0.elapsed().as_secs_f64() * 1e6 / theta_ops as f64,
    );

    let mut evaluator = sut::Evaluator::new(&index);
    let t0 = Instant::now();
    let batch_answers: Vec<Vec<u32>> = queries.iter().map(|q| evaluator.query(&q.terms)).collect();
    let batch = t0.elapsed();
    b.check(&mut tally, &queries, &batch_answers);
    m.set("core.batch.query_us_per_op", per_op(batch));
    m.set(
        "core.batch.speedup_vs_percall",
        untraced.as_secs_f64() / batch.as_secs_f64(),
    );

    // The AND kernel on rows as wide as this index's bucket masks.
    let words = (buckets_for(docs) as usize).div_ceil(64);
    let rows: Vec<u64> = (0..words * 1024).map(|i| i as u64 | 1).collect();
    let mut dst = vec![u64::MAX; words];
    let passes = cfg.ops(2_000);
    let t0 = Instant::now();
    for _ in 0..passes {
        for pair in rows.chunks_exact(2 * words) {
            black_box(sut::kernel_and_rows(
                &mut dst,
                &pair[..words],
                &pair[words..],
            ));
        }
    }
    m.set(
        "bitvec.kernel.and_rows_ns_per_word",
        t0.elapsed().as_secs_f64() * 1e9 / (passes * rows.len()) as f64,
    );

    // Query time against K, same geometry rule at each K.
    let points: Vec<(f64, f64)> = [
        (docs / 16, "core.query.us_per_op.k1000"),
        (docs / 4, "core.query.us_per_op.k4000"),
    ]
    .into_iter()
    .map(|(k, name)| {
        let us = scaling_point(cfg, k, n / 2);
        m.set(name, us);
        (k as f64, us)
    })
    .chain(std::iter::once((docs as f64, per_op(untraced))))
    .collect();
    m.set("core.query.us_per_op.k16000", per_op(untraced));
    m.set("core.query.k_exponent", loglog_slope(&points));

    finish_trace(
        &mut m,
        tracer,
        n,
        per_op(traced),
        &["hash", "core.query"],
        true,
    );
    Outcome {
        tally,
        metrics: m.into_vec(),
        sizes: format!("docs={docs} traced_ops={n}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The planted failure, through a real index: the honest answers pass,
    /// and the same answers with one truly matching document dropped count
    /// as exactly one failed op.
    #[test]
    fn a_document_dropped_from_a_real_answer_fails_the_op() {
        let cfg = RunConfig {
            seed: 3,
            seconds: 1,
            quick: true,
        };
        let mut b = prepare(&cfg, 64);
        let (index, _) = b.instance();
        let queries = b.queries(8);
        let (_, mut answers) = timed_slice(&index, &queries, &mut QueryContext::new());
        let mut honest = Tally::default();
        b.check(&mut honest, &queries, &answers);
        assert_eq!((honest.attempted, honest.failed), (8, 0));

        let victim = answers
            .iter()
            .position(|a| !a.is_empty())
            .expect("unperturbed windows match their document");
        answers[victim].remove(0);
        let mut planted = Tally::default();
        b.check(&mut planted, &queries, &answers);
        assert_eq!((planted.attempted, planted.failed), (8, 1));
    }
}
