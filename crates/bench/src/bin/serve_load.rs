//! Serving-engine load benchmark: the engine against in-process direct
//! evaluation, swept across load levels, plus the hot-query result cache
//! and the non-blocking TCP front.
//!
//! The stream models §3.3.1 sequence-search sessions: each document
//! contributes a run of `--windows-per-doc` heavily-overlapping sliding
//! windows, all routed under that session's accuracy budget (documents
//! cycle through the tiers so every tier sees traffic).
//!
//! Two rows at every load level in `--loads` (default `1,2,8` paced
//! clients):
//!
//! 1. `served` — the serving engine: a request runs inline on the
//!    submitting thread when its tier's evaluator is free and otherwise
//!    waits on the tier's queue for a worker. Scored at the serving
//!    boundary — submit → reply-posted, from the engine's aggregated
//!    latency histogram — so queue wait and evaluation count but a client
//!    thread's wake-up (pure OS timeslicing on an oversubscribed host) does
//!    not; throughput is client-side wall clock.
//! 2. `direct` — each client evaluates in-process with a fresh
//!    [`rambo_core::QueryContext`], no serving engine at all: the floor the
//!    engine pays its overhead against.
//!
//! Neither row is gated: both measure this host as much as the code. A
//! separate repeat-heavy phase measures the result-cache hit path
//! (`cache_hit_p50_speedup`, gated by `scripts/bench_regression.sh`).
//!
//! Also demonstrates catalog tier selection (loosening the FPR budget picks
//! a strictly smaller tier), verifies served results equal direct
//! evaluation, and — with `--tcp` — runs the same load through the
//! length-prefixed TCP front, asserting result parity, a `STATS`-frame
//! round trip, and a clean shutdown even with a client stalled mid-frame
//! (the CI `serve-smoke` step).
//!
//! Emits `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p rambo-bench --bin serve_load -- \
//!     --docs 1000 --mean-terms 5000 --queries 4000 --loads 1,2,8 --tcp
//! ```

use rambo_bench::{archive_with_mean_terms, us_per, window_queries, Args, JsonReport};
use rambo_core::{IngestPipeline, QueryMode, RamboParams};
use rambo_server::{serve_tcp, Catalog, Server, ServerConfig, TcpClient};
use rambo_workloads::stats::percentile;
use rambo_workloads::timing::time;
use std::io::Write;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A query with its routing budget.
struct Job {
    terms: Vec<u64>,
    budget: f64,
}

/// Latency series (µs) plus wall time of one serving run.
struct RunResult {
    latencies_us: Vec<f64>,
    elapsed: Duration,
}

impl RunResult {
    fn p50(&self) -> f64 {
        percentile(&self.latencies_us, 50.0)
    }
    fn p99(&self) -> f64 {
        percentile(&self.latencies_us, 99.0)
    }
    fn qps(&self) -> f64 {
        self.latencies_us.len() as f64 / self.elapsed.as_secs_f64()
    }
}

/// Split `jobs` round-robin into `clients` slices (owned indices).
fn client_slices(n_jobs: usize, clients: usize) -> Vec<Vec<usize>> {
    let mut slices = vec![Vec::new(); clients];
    for i in 0..n_jobs {
        slices[i % clients].push(i);
    }
    slices
}

/// The `direct` row: every request evaluated in-process as it
/// arrives, with a fresh [`rambo_core::QueryContext`] per request — no
/// serving engine, so no queue, no wakeups, and no admission accounting.
fn run_direct(catalog: &Catalog, jobs: &[Job], clients: usize, pace: Duration) -> RunResult {
    let slices = client_slices(jobs.len(), clients);
    let (latencies, elapsed) = time(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = slices
                .iter()
                .enumerate()
                .map(|(c, slice)| {
                    s.spawn(move || {
                        let mut lat = Vec::with_capacity(slice.len());
                        let mut pacer = Pacer::new(pace, c, clients);
                        for &i in slice {
                            let job = &jobs[i];
                            let tier = catalog.select(job.budget);
                            pacer.wait_for_slot();
                            let start = Instant::now();
                            let mut ctx = rambo_core::QueryContext::new();
                            let docs = catalog.tier(tier).query_terms_with(
                                &job.terms,
                                QueryMode::Full,
                                &mut ctx,
                            );
                            lat.push(us_per(start.elapsed(), 1));
                            std::hint::black_box(docs);
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect::<Vec<f64>>()
        })
    });
    RunResult {
        latencies_us: latencies,
        elapsed,
    }
}

/// Per-client open-loop pacer: one submission slot every `pace`, clients
/// staggered so slots interleave instead of bursting in lockstep. A client
/// that falls behind its schedule (the engine can't keep up) submits
/// back-to-back until it catches up — offered load is constant-rate, and
/// a shortfall shows up as queueing and schedule slip rather than as a
/// silently lowered arrival rate. `pace = 0` disables pacing (saturation
/// mode: both rows run flat out, but then each measures itself at a
/// *different* achieved load, so their latencies no longer compare — which
/// is why paced mode is the default).
struct Pacer {
    pace: Duration,
    next_at: Instant,
}

impl Pacer {
    fn new(pace: Duration, client: usize, clients: usize) -> Self {
        Self {
            pace,
            next_at: Instant::now() + pace * client as u32 / clients.max(1) as u32,
        }
    }

    /// Sleep until this client's next submission slot, then advance it.
    fn wait_for_slot(&mut self) {
        if self.pace.is_zero() {
            return;
        }
        let now = Instant::now();
        if self.next_at > now {
            std::thread::sleep(self.next_at - now);
        }
        self.next_at += self.pace;
    }
}

/// The `served` row: drive `jobs` through an already-running serving engine.
/// Each client keeps up to `pipeline` requests in flight (a serving front
/// multiplexing many end users over one connection sees exactly this shape);
/// `pipeline = 1` is a closed loop between slots. The server outlives the
/// call, as a real serving process does, so a warmup call can absorb the
/// evaluators' first-touch scratch sizing before the measured one.
fn run_clients(
    handle: &rambo_server::ServerHandle<'_>,
    jobs: &[Job],
    clients: usize,
    pipeline: usize,
    pace: Duration,
) -> RunResult {
    let slices = client_slices(jobs.len(), clients);
    let (latencies, elapsed) = time(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = slices
                .iter()
                .enumerate()
                .map(|(c, slice)| {
                    s.spawn(move || {
                        let mut lat = Vec::with_capacity(slice.len());
                        let mut inflight = std::collections::VecDeque::new();
                        let mut pacer = Pacer::new(pace, c, clients);
                        for &i in slice {
                            let job = &jobs[i];
                            pacer.wait_for_slot();
                            let start = Instant::now();
                            let pending = handle
                                .submit(
                                    &job.terms,
                                    &rambo_server::QueryOptions {
                                        fpr_budget: job.budget,
                                        deadline: Duration::from_secs(30),
                                        ..Default::default()
                                    },
                                )
                                .expect("serving failure under load");
                            inflight.push_back((start, pending));
                            if inflight.len() >= pipeline.max(1) {
                                let (start, oldest) =
                                    inflight.pop_front().expect("non-empty pipeline");
                                let reply = oldest.wait().expect("serving failure under load");
                                lat.push(us_per(start.elapsed(), 1));
                                std::hint::black_box(reply.docs);
                            }
                        }
                        for (start, pending) in inflight {
                            let reply = pending.wait().expect("serving failure under load");
                            lat.push(us_per(start.elapsed(), 1));
                            std::hint::black_box(reply.docs);
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect::<Vec<f64>>()
        })
    });
    RunResult {
        latencies_us: latencies,
        elapsed,
    }
}

/// The result-cache phase: one server with the cache enabled answers the
/// same distinct job list twice at load 1. The first (cold) pass evaluates
/// and fills the cache; the second (hot) pass must be served from it.
/// Returns `(cold, hot)` latency series.
fn run_cache_phase(catalog: &Catalog, jobs: &[Job]) -> (RunResult, RunResult) {
    let config = ServerConfig::default(); // cache on
    let ((cold, hot), stats) = Server::scope(catalog, config, |handle| {
        let pass = || {
            let mut lat = Vec::with_capacity(jobs.len());
            let (_, elapsed) = time(|| {
                for job in jobs {
                    let start = Instant::now();
                    let reply = handle
                        .query(&job.terms, job.budget, Duration::from_secs(30))
                        .expect("cache-phase query");
                    lat.push(us_per(start.elapsed(), 1));
                    std::hint::black_box(reply.docs);
                }
            });
            RunResult {
                latencies_us: lat,
                elapsed,
            }
        };
        let cold = pass();
        let hot = pass();
        (cold, hot)
    });
    // Every hot-pass request must have been a cache hit (the job list may
    // also repeat within the cold pass) — fewer hits than jobs means the
    // cache evicted under a budget this phase was sized to fit, or keys
    // failed to canonicalize identically.
    assert!(
        stats.total_cache_hits() >= jobs.len() as u64,
        "hot pass was not fully served from the result cache: {} hits for {} jobs",
        stats.total_cache_hits(),
        jobs.len()
    );
    (cold, hot)
}

/// The TCP smoke: serve on a loopback port, fire a mixed-tier load from
/// `clients` connections, assert every response matches direct evaluation
/// (and is non-empty for present-term queries), round-trip a `STATS`
/// frame, then shut down cleanly *while one client is stalled mid-frame*.
fn run_tcp_smoke(catalog: &Catalog, jobs: &[Job], clients: usize, config: ServerConfig) -> usize {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let stop = AtomicBool::new(false);
    let slices = client_slices(jobs.len(), clients);
    let (answered, _) = Server::scope(catalog, config, |handle| {
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp(handle, listener, &stop));
            let answered: usize = slices
                .iter()
                .map(|slice| {
                    s.spawn(move || {
                        let mut client = TcpClient::connect(addr).expect("connect");
                        let mut ctx = rambo_core::QueryContext::new();
                        let mut answered = 0usize;
                        for &i in slice {
                            let job = &jobs[i];
                            let reply = client
                                .query(&job.terms, job.budget, Duration::from_secs(30))
                                .expect("tcp query");
                            let direct = catalog.tier(reply.tier).query_terms_with(
                                &job.terms,
                                QueryMode::Full,
                                &mut ctx,
                            );
                            assert_eq!(reply.docs, direct, "TCP reply diverged from direct eval");
                            // Present-term windows must return their owner.
                            if job.terms.len() > 1 {
                                assert!(
                                    !reply.docs.is_empty(),
                                    "present-term query answered empty over TCP"
                                );
                            }
                            answered += 1;
                        }
                        answered
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("tcp client thread"))
                .sum();
            // STATS frame round trip: the plain-text counter dump must
            // reflect the load just served.
            let mut stats_client = TcpClient::connect(addr).expect("stats connect");
            let dump = stats_client.stats().expect("stats frame");
            assert!(
                dump.contains("tier 0:") && dump.contains("cache:"),
                "malformed STATS dump: {dump}"
            );
            // A stalled mid-frame client (promised bytes never sent) must
            // not block shutdown: the reactor abandons it.
            let mut stalled = std::net::TcpStream::connect(addr).expect("stalled connect");
            stalled.write_all(&64u32.to_le_bytes()).expect("stall len");
            stalled.write_all(&[0u8; 9]).expect("stall partial");
            stalled.flush().expect("stall flush");
            let shutdown_start = Instant::now();
            stop.store(true, Ordering::Relaxed);
            server
                .join()
                .expect("tcp server thread")
                .expect("tcp server io");
            assert!(
                shutdown_start.elapsed() < Duration::from_secs(5),
                "stalled client blocked TCP shutdown"
            );
            drop(stalled);
            answered
        })
    });
    answered
}

fn main() {
    let args = Args::parse();
    let docs = args.get_usize("docs", 1000);
    let mean_terms = args.get_usize("mean-terms", 5000);
    let n_queries = args.get_usize("queries", 8000);
    // 768 terms ≈ the k-mer set of an ~800bp amplicon: the §3.3.1
    // sequence-query shape. The size is deliberate: a wide window keeps
    // evaluation cost above the host's ambient p99 noise floor (~150-250µs
    // of timer ticks and kworker preemptions on a single-core box), so the
    // engine's overhead is measured as signal, not coin-flipped against
    // scheduler jitter.
    let window = args.get_usize("window", 768);
    // Windows per document: one §3.3.1 sequence search slides its window
    // across the whole sequence, so a serving session is a long run of
    // heavily-overlapping queries (a 1kbp contig yields ~800 windows).
    // Each run shares all but a sliding fringe of its terms, and popular
    // windows recur — the access pattern the result cache exists for.
    let per_doc = args.get_usize("windows-per-doc", 128).max(1);
    // `--clients N` pins a single load level; `--loads a,b,c` sweeps. A
    // zero anywhere is a usage error (zero closed-loop clients generate no
    // load).
    let loads: Vec<usize> = if args.get("clients").is_some() {
        vec![args.get_usize("clients", 4)]
    } else {
        args.get_usize_list("loads", &[1, 2, 8])
    };
    if loads.is_empty() || loads.contains(&0) {
        eprintln!("serve_load: --clients/--loads must be >= 1 (zero clients produce no load)");
        std::process::exit(2);
    }
    let levels = args.get_usize("levels", 2) as u32;
    let pipeline = args.get_usize("pipeline", 1).max(1);
    // Per-client submission interval: open-loop constant-rate load, so both
    // rows face the same offered arrival schedule (see [`Pacer`]). At the
    // default, load level 8 offers ≈ 26.7k queries/s. `--pace-us 0` =
    // saturation mode.
    let pace = Duration::from_micros(args.get_u64("pace-us", 300));
    let seed = args.get_u64("seed", 7);
    let tcp = args.get_bool("tcp");

    // Bucket count above word granularity (matrix rows are ⌈B/64⌉ words) so
    // every fold level genuinely halves the filter payload: 256 → 128 → 64.
    let buckets = 64u64 << levels;
    let archive = archive_with_mean_terms(docs, mean_terms, seed);
    let per_bucket = ((docs as f64 / buckets as f64) * mean_terms as f64 * 1.2).ceil() as usize;
    let params = RamboParams::flat(
        buckets,
        3,
        rambo_bloom::params::optimal_m(per_bucket.max(64), 0.01),
        2,
        seed,
    );
    // Catalog base index comes in through the bounded-queue ingestion
    // pipeline (hash of document n+1 overlaps writes of document n) —
    // bit-identical to the sequential batch build.
    let (index, _) = IngestPipeline::new()
        .build(params, archive.docs.iter().cloned())
        .expect("pipelined build");
    let catalog = Catalog::builder()
        .base(&index)
        .halving(levels)
        .build()
        .expect("catalog");
    let infos = catalog.infos();

    // Tier-selection demonstration: loosening the budget must pick a
    // strictly smaller tier.
    let tight = catalog.select(infos[0].predicted_fpr);
    let loose = catalog.select(infos[infos.len() - 1].predicted_fpr);
    assert!(
        loose > tight && infos[loose].size_bytes < infos[tight].size_bytes,
        "loosened budget must select a strictly smaller tier"
    );

    // Mixed-tier load: sliding-window query runs, budgets cycling through
    // the tiers' predicted FPRs *per document* so every tier sees traffic —
    // one client session searches one sequence under one accuracy budget,
    // so all of a document's windows route to the same tier.
    let queries = window_queries(&archive, window, per_doc, n_queries);
    let jobs: Vec<Job> = queries
        .into_iter()
        .enumerate()
        .map(|(i, terms)| Job {
            terms,
            budget: infos[(i / per_doc) % infos.len()].predicted_fpr,
        })
        .collect();

    eprintln!(
        "serve_load: K={docs} queries={} window={window} windows/doc={per_doc} loads={loads:?} tiers={} B={}",
        jobs.len(),
        catalog.len(),
        index.buckets(),
    );
    for info in &infos {
        eprintln!(
            "  tier {}: B={:<4} size={:>9} B  bfu_fpr={:.2e}  predicted_fpr={:.2e}",
            info.tier, info.buckets, info.size_bytes, info.bfu_fpr, info.predicted_fpr
        );
    }

    // Served results must equal direct evaluation (spot-check before the
    // timed runs; also warms the page cache for every tier).
    {
        let mut ctx = rambo_core::QueryContext::new();
        let ((), _) = Server::scope(&catalog, ServerConfig::default(), |handle| {
            for job in jobs.iter().step_by(17) {
                let reply = handle
                    .query(&job.terms, job.budget, Duration::from_secs(30))
                    .expect("verification query");
                let direct = catalog.tier(reply.tier).query_terms_with(
                    &job.terms,
                    QueryMode::Full,
                    &mut ctx,
                );
                assert_eq!(reply.docs, direct, "served result diverged");
            }
        });
    }

    // The result cache is off in the load sweep so it measures evaluation
    // and admission, not repeat traffic; the cache gets its own phase below.
    let served_config = ServerConfig {
        result_cache_bytes: 0,
        ..ServerConfig::default()
    };

    let mut report = JsonReport::new("serve_load");
    report
        .int("docs", docs as u64)
        .int("queries", jobs.len() as u64)
        .int("window", window as u64)
        .int("tiers", catalog.len() as u64)
        .int("buckets", index.buckets());
    for info in &infos {
        report
            .int(&format!("tier{}_buckets", info.tier), info.buckets)
            .int(
                &format!("tier{}_size_bytes", info.tier),
                info.size_bytes as u64,
            )
            .num(
                &format!("tier{}_predicted_fpr", info.tier),
                info.predicted_fpr,
            );
    }
    report
        .int("tier_selected_tight_budget", tight as u64)
        .int("tier_selected_loose_budget", loose as u64)
        .int("pipeline", pipeline as u64)
        .int("pace_us", pace.as_micros() as u64);

    for &load in &loads {
        let direct = run_direct(&catalog, &jobs, load, pace);
        let (served, stats) = Server::scope(&catalog, served_config, |handle| {
            // Steady-state warmup: a prefix of the stream absorbs one-time
            // cold costs (first-touch scratch sizing) that a long-lived
            // server amortizes but a short measurement window would charge
            // entirely to the tail. Counters reset after, so the scored
            // window is pure steady state.
            run_clients(handle, &jobs[..jobs.len().min(768)], load, pipeline, pace);
            handle.reset_stats();
            run_clients(handle, &jobs, load, pipeline, pace)
        });
        if std::env::var("SERVE_LOAD_DEBUG").is_ok() {
            eprintln!("served @ {load}:\n{stats}");
        }
        let us = |d: Duration| d.as_nanos() as f64 / 1e3;
        let rows = [
            ("direct", direct.p50(), direct.p99(), direct.qps()),
            (
                "served",
                us(stats.latency.quantile(0.50)),
                us(stats.latency.quantile(0.99)),
                served.qps(),
            ),
        ];
        for (label, p50, p99, qps) in rows {
            eprintln!(
                "clients={load:<3} {label:<8} p50 {p50:>8.1} us   p99 {p99:>9.1} us   {qps:>9.0} qps"
            );
            report
                .num(&format!("c{load}_{label}_p50_us"), p50)
                .num(&format!("c{load}_{label}_p99_us"), p99)
                .num(&format!("c{load}_{label}_qps"), qps);
        }
    }

    // Result-cache phase: a distinct-job prefix served twice at load 1.
    // Sized to fit the default cache budget comfortably so the hot pass is
    // all hits (asserted inside).
    let cache_jobs = &jobs[..jobs.len().min(256)];
    let (cold, hot) = run_cache_phase(&catalog, cache_jobs);
    let cache_speedup = cold.p50() / hot.p50();
    eprintln!(
        "result-cache: cold p50 {:.1} us  hot p50 {:.1} us  speedup {:.1}x",
        cold.p50(),
        hot.p50(),
        cache_speedup
    );
    report
        .num("cache_cold_p50_us", cold.p50())
        .num("cache_hot_p50_us", hot.p50())
        .num("cache_hit_p50_speedup", cache_speedup);

    if tcp {
        // Small slice of the load through the TCP front (the CI smoke),
        // at the sweep's highest client count.
        let tcp_jobs = &jobs[..jobs.len().min(400)];
        let tcp_clients = loads.iter().copied().max().unwrap_or(1).min(4);
        let (answered, tcp_elapsed) =
            time(|| run_tcp_smoke(&catalog, tcp_jobs, tcp_clients, ServerConfig::default()));
        assert_eq!(answered, tcp_jobs.len(), "TCP smoke dropped queries");
        eprintln!(
            "tcp-smoke: {answered} queries answered over loopback in {:.0} ms, clean shutdown",
            tcp_elapsed.as_secs_f64() * 1e3
        );
        report
            .int("tcp_smoke_queries", answered as u64)
            .num("tcp_smoke_s", tcp_elapsed.as_secs_f64());
    }

    report.finish("BENCH_serve.json");
}
