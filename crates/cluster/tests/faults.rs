//! Fault-injection tests: a `FaultProxy` between the coordinator and a
//! replica exercises hedging, deadline propagation, and malformed-frame
//! rejection — failure modes a healthy loopback cluster never shows.

mod support;

use rambo_cluster::Coordinator;
use rambo_core::QueryMode;
use std::time::{Duration, Instant};
use support::{plan, proxied_pair, topo, Fault};

/// The coordinator's hedge delay for a replica with fewer than 32 recorded
/// attempts — every replica in these tests, which each run a few queries.
const HEDGE_COLD: Duration = Duration::from_millis(20);
/// The coordinator's bound on each of its two `HELLO` attempts per replica.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

#[test]
fn hedging_fires_on_a_slow_replica_and_wins() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    // Primary (replica 0, first in round-robin) sits on replies for 900ms;
    // the hedge should fire after HEDGE_COLD and win via replica 1.
    p0.set_fault(Fault::DelayReplyMs(900));
    let terms: Vec<u64> = vec![5 << 16 | 1, 5 << 16 | 2];
    let t0 = Instant::now();
    let reply = coordinator
        .query(&terms, 0.0, Duration::from_secs(5))
        .expect("hedged query");
    let elapsed = t0.elapsed();
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
    assert!(
        elapsed < Duration::from_millis(800),
        "the hedge must beat the delayed primary, took {elapsed:?}"
    );
    let stats = coordinator.stats();
    assert_eq!(stats.shards[0].hedges, 1, "{stats}");
    assert_eq!(stats.shards[0].hedge_wins, 1, "{stats}");
}

#[test]
fn a_replica_that_loses_three_hedges_is_demoted() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    // Round-robin makes replica 0 the primary of queries 1, 3 and 5. Each
    // time the hedge to replica 1 wins, and the loser launched before the
    // winner is charged a transport failure: the third one demotes it.
    p0.set_fault(Fault::DelayReplyMs(900));
    let terms: Vec<u64> = vec![9 << 16 | 1];
    for _ in 0..6 {
        let reply = coordinator
            .query(&terms, 0.0, Duration::from_secs(5))
            .expect("query");
        assert_eq!(
            reply.docs,
            plan.monolith.query_terms_u64(&terms, QueryMode::Full)
        );
    }
    let stats = coordinator.stats();
    let (slow, sibling) = (&stats.shards[0].replicas[0], &stats.shards[0].replicas[1]);
    assert_eq!(
        (slow.errors, slow.demotions, slow.up),
        (3, 1, false),
        "{stats}"
    );
    assert_eq!((sibling.errors, sibling.up), (0, true), "{stats}");
    assert_eq!(stats.shards[0].hedge_wins, 3, "{stats}");
}

#[test]
fn deadlines_propagate_net_of_elapsed_time() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    // Primary blackholed: its attempt consumes the hedge delay before the
    // sibling is tried, so the sibling must see a *smaller* remaining
    // deadline than the primary did.
    p0.set_fault(Fault::Blackhole);
    let terms: Vec<u64> = vec![2 << 16 | 1];
    let reply = coordinator
        .query(&terms, 0.0, Duration::from_millis(800))
        .expect("query");
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
    let first = p0.last_deadline_ms();
    let second = p1.last_deadline_ms();
    assert!(first > 0 && second > 0, "both proxies must see a query");
    assert!(
        second < first && first <= 800,
        "remaining budget must shrink downstream: primary saw {first}ms, hedge saw {second}ms"
    );
    let bound = (Duration::from_millis(800) - HEDGE_COLD).as_millis() as u32 + 10;
    assert!(
        second <= bound,
        "the hedge fired after ≥{HEDGE_COLD:?}, so ≤{bound}ms may remain (saw {second}ms)"
    );
}

#[test]
fn corrupt_replies_are_rejected_and_failed_over() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    p0.set_fault(Fault::CorruptReply);
    let terms: Vec<u64> = vec![7 << 16 | 3, 7 << 16 | 4];
    let reply = coordinator
        .query(&terms, 0.0, Duration::from_secs(5))
        .expect("query must fail over past the corruptor");
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
    let stats = coordinator.stats();
    assert!(stats.shards[0].failovers >= 1, "{stats}");
    assert!(
        stats.shards[0].replicas[0].errors >= 1,
        "the corrupt replica must be charged a transport error: {stats}"
    );
}

#[test]
fn truncated_replies_are_rejected_and_failed_over() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    p0.set_fault(Fault::TruncateReply);
    let terms: Vec<u64> = vec![1 << 16 | 5];
    let reply = coordinator
        .query(&terms, 0.0, Duration::from_secs(5))
        .expect("query must fail over past the truncator");
    assert_eq!(
        reply.docs,
        plan.monolith.query_terms_u64(&terms, QueryMode::Full)
    );
    assert!(coordinator.stats().shards[0].failovers >= 1);
}

#[test]
fn connect_fails_fast_when_a_peer_blackholes_hello() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    p0.set_fault(Fault::Blackhole);
    let t0 = Instant::now();
    let result = Coordinator::connect(&topo(&p0, &p1));
    let elapsed = t0.elapsed();
    assert!(result.is_err(), "a swallowed HELLO cannot yield a cluster");
    let bound = 2 * CONNECT_TIMEOUT + Duration::from_secs(1);
    assert!(
        elapsed < bound,
        "discovery must be bounded by two CONNECT_TIMEOUT attempts, took {elapsed:?}"
    );
}

#[test]
fn blackholed_cluster_respects_the_client_deadline() {
    let plan = plan();
    let (_nodes, p0, p1) = proxied_pair(&plan);
    let coordinator = Coordinator::connect(&topo(&p0, &p1)).expect("connect");
    p0.set_fault(Fault::Blackhole);
    p1.set_fault(Fault::Blackhole);
    let t0 = Instant::now();
    let result = coordinator.query(&[1, 2], 0.0, Duration::from_millis(400));
    let elapsed = t0.elapsed();
    assert!(result.is_err(), "a fully blackholed shard cannot answer");
    assert!(
        elapsed < Duration::from_secs(3),
        "the deadline must bound the wait, took {elapsed:?}"
    );
}

/// The proxy's own faults, against a stub upstream.
mod proxy {
    use super::support::{Fault, FaultProxy};
    use rambo_server::wire;
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// A trivial upstream echoing a fixed OK reply per request frame.
    fn upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                while let Ok(Some(_req)) = wire::read_frame(&mut s) {
                    let reply = wire::encode_response(wire::STATUS_OK, 0, &[1, 2, 3]);
                    if s.write_all(&reply).is_err() {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn query_frame(deadline_ms: u64) -> Vec<u8> {
        wire::encode_query_request(&[42], 0.0, Duration::from_millis(deadline_ms))
    }

    #[test]
    fn relays_and_captures_deadline() {
        let (up, server) = upstream();
        let proxy = FaultProxy::spawn(up).expect("proxy");
        let mut c = TcpStream::connect(proxy.addr()).expect("dial");
        c.write_all(&query_frame(777)).expect("send");
        let reply = wire::read_frame(&mut c).expect("read").expect("frame");
        let parsed = wire::parse_response(&reply).expect("parse");
        assert_eq!(parsed.docs, vec![1, 2, 3]);
        assert_eq!(proxy.last_deadline_ms(), 777);
        drop(c);
        drop(proxy);
        let _ = server.join();
    }

    #[test]
    fn corrupt_reply_breaks_the_payload_not_the_framing() {
        let (up, server) = upstream();
        let proxy = FaultProxy::spawn(up).expect("proxy");
        proxy.set_fault(Fault::CorruptReply);
        let mut c = TcpStream::connect(proxy.addr()).expect("dial");
        c.write_all(&query_frame(100)).expect("send");
        let reply = wire::read_frame(&mut c).expect("read").expect("frame");
        assert_ne!(
            reply,
            wire::encode_response(wire::STATUS_OK, 0, &[1, 2, 3])[4..].to_vec()
        );
        drop(c);
        drop(proxy);
        let _ = server.join();
    }

    #[test]
    fn truncate_reply_sends_half_then_closes() {
        let (up, server) = upstream();
        let proxy = FaultProxy::spawn(up).expect("proxy");
        proxy.set_fault(Fault::TruncateReply);
        let mut c = TcpStream::connect(proxy.addr()).expect("dial");
        c.write_all(&query_frame(100)).expect("send");
        let mut got = Vec::new();
        c.read_to_end(&mut got).expect("drain");
        let full = wire::encode_response(wire::STATUS_OK, 0, &[1, 2, 3]);
        assert!(!got.is_empty() && got.len() < full.len());
        drop(c);
        drop(proxy);
        let _ = server.join();
    }

    #[test]
    fn blackhole_answers_nothing() {
        let (up, server) = upstream();
        let proxy = FaultProxy::spawn(up).expect("proxy");
        proxy.set_fault(Fault::Blackhole);
        let mut c = TcpStream::connect(proxy.addr()).expect("dial");
        c.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        c.write_all(&query_frame(100)).expect("send");
        let mut buf = [0u8; 1];
        let got = c.read(&mut buf);
        assert!(
            matches!(got, Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
                || e.kind() == io::ErrorKind::TimedOut),
            "blackhole must produce a read timeout, got {got:?}"
        );
        drop(c);
        drop(proxy);
        drop(server); // upstream never saw a connection; don't join
    }
}
