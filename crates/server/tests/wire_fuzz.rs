//! Wire-level fuzz battery for the serving fronts.
//!
//! One reactor serves three protocol/engine pairings — RESP text and
//! length-prefixed binary frames over a tenant registry
//! (`serve_tenant_tcp`), binary frames over a catalog server (`serve_tcp`);
//! this suite attacks all of them with what real networks and hostile
//! clients produce: garbage bytes, truncated streams, frames fragmented
//! across poll ticks, lying length prefixes, peers that pipeline without
//! reading, and concurrent connections mixing the protocols. The invariants
//! are uniform:
//!
//! * the server never panics or wedges — after every fuzz connection a
//!   fresh well-formed connection gets a correct answer (liveness probe);
//! * replies come back in request order, byte-exact, no matter how the
//!   requests were fragmented on the wire;
//! * a malformed stream is answered in-protocol where the protocol allows
//!   (`-ERR ...`, `BAD_REQUEST`) and then the connection closes cleanly.

use proptest::prelude::*;
use rambo_server::wire::{encode_query_request, frame};
use rambo_server::{
    serve_tcp, serve_tenant_tcp, Catalog, Server, ServerConfig, TcpClient, TenantOptions,
    TenantQuotas, TenantRegistry, TenantServeOptions,
};
use rambo_workloads::TestClient;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn params() -> rambo_core::RamboParams {
    rambo_core::RamboParams::flat(8, 3, 1 << 10, 2, 7)
}

fn registry() -> TenantRegistry {
    TenantRegistry::new(params(), TenantQuotas::default()).unwrap()
}

/// Run `body` beside a front serving until `stop`, stopping the front even
/// when `body` panics — otherwise the scope would block forever joining the
/// server thread and the real failure would read as a hang.
fn beside<T>(
    stop: &AtomicBool,
    server: impl FnOnce() -> std::io::Result<()> + Send,
    body: impl FnOnce() -> T,
) -> T {
    std::thread::scope(|s| {
        let server = s.spawn(server);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        let stopped = Instant::now();
        stop.store(true, Ordering::Relaxed);
        let served = server.join().unwrap();
        let out = outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        served.unwrap();
        assert!(
            stopped.elapsed() < Duration::from_secs(2),
            "shutdown blocked for {:?}",
            stopped.elapsed()
        );
        out
    })
}

/// Serve `registry` on both fronts for the closure's duration, binding the
/// binary front to tenant `bin`.
fn with_dual_server<T>(
    registry: &TenantRegistry,
    f: impl FnOnce(SocketAddr, SocketAddr) -> T,
) -> T {
    let resp_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let binary_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let resp_addr = resp_listener.local_addr().unwrap();
    let bin_addr = binary_listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let options = TenantServeOptions {
        manifest: Some(b"fuzz-node".to_vec()),
        binary_tenant: Some("bin".to_string()),
    };
    let listeners = (resp_listener, Some(binary_listener));
    beside(
        &stop,
        || serve_tenant_tcp(registry, listeners.0, listeners.1, &stop, &options),
        || f(resp_addr, bin_addr),
    )
}

/// The protocol/engine pairings the one reactor serves.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Front {
    Resp,
    TenantFrames,
    CatalogFrames,
}

/// One front up and listening.
struct Served<'a> {
    front: Front,
    addr: SocketAddr,
    /// Queries the engine behind the front has answered so far.
    answered: &'a dyn Fn() -> u64,
}

/// Term every corpus document holds.
const SHARED: u64 = 0x5EED;

/// The only term of document `d` besides [`SHARED`].
fn private(d: u32) -> u64 {
    (u64::from(d) << 16) | 1
}

/// Geometry roomy enough that a few thousand two-term documents do not
/// collide.
fn corpus_params() -> rambo_core::RamboParams {
    rambo_core::RamboParams::flat(64, 2, 1 << 14, 2, 7)
}

/// Serve `front` over documents `d0..d<docs>` for the closure's duration
/// (the tenant fronts hold them in tenant `bin`), then check it is still
/// live.
fn with_front<T>(front: Front, docs: u32, f: impl FnOnce(&Served<'_>) -> T) -> T {
    let corpus = (0..docs).map(|d| (format!("d{d}"), [private(d), SHARED]));
    if front == Front::CatalogFrames {
        let mut index = rambo_core::Rambo::new(corpus_params()).unwrap();
        for (name, terms) in corpus {
            index.insert_document(&name, terms).unwrap();
        }
        let catalog = Catalog::builder().base(&index).halving(0).build().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = AtomicBool::new(false);
        let (out, _) = Server::scope(&catalog, ServerConfig::default(), |handle| {
            let answered = || handle.stats().total_completed();
            let body = || {
                let out = f(&Served {
                    front,
                    addr,
                    answered: &answered,
                });
                assert_binary_alive(addr, b"");
                out
            };
            beside(&stop, || serve_tcp(handle, listener, &stop), body)
        });
        return out;
    }
    let reg = TenantRegistry::new(corpus_params(), TenantQuotas::default()).unwrap();
    reg.create("bin", TenantOptions::default()).unwrap();
    for (name, terms) in corpus {
        reg.insert_document("bin", &name, &terms).unwrap();
    }
    with_dual_server(&reg, |resp_addr, bin_addr| {
        let answered = || reg.stats("bin").unwrap().queries;
        let out = f(&Served {
            front,
            addr: if front == Front::Resp {
                resp_addr
            } else {
                bin_addr
            },
            answered: &answered,
        });
        assert_binary_alive(bin_addr, b"tenants:");
        assert_resp_alive(resp_addr);
        out
    })
}

impl Served<'_> {
    /// One AND query over `terms`, as this front's protocol frames it.
    fn query(&self, terms: &[u64]) -> Vec<u8> {
        match self.front {
            Front::Resp => {
                let terms: Vec<String> = terms.iter().map(u64::to_string).collect();
                format!("R.QUERYSEQ bin 1.0 {}\r\n", terms.join(" ")).into_bytes()
            }
            _ => encode_query_request(terms, 0.0, Duration::from_secs(60)),
        }
    }

    /// Read one reply off `client`, returning its bytes as they travelled and
    /// the document ids it names.
    fn read_reply(&self, client: &mut TestClient) -> (Vec<u8>, Vec<u32>) {
        if self.front == Front::Resp {
            let reply = client.read_resp_reply().unwrap();
            let docs = resp_array_docs(&reply)
                .iter()
                .map(|name| name[1..].parse().expect("corpus document name"))
                .collect();
            return (reply, docs);
        }
        let payload = client.read_frame(16 << 20).unwrap();
        assert_eq!(payload[0], 0, "status must be OK: {:?}", &payload[..9]);
        let docs = payload[9..]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        (frame(&payload), docs)
    }
}

/// The liveness probe: a fresh RESP connection must still get `+PONG`.
fn assert_resp_alive(addr: SocketAddr) {
    let mut probe = TestClient::connect(addr).unwrap();
    probe.send_resp(&[b"PING"]).unwrap();
    assert_eq!(probe.read_resp_reply().unwrap(), b"+PONG\r\n");
}

/// The binary liveness probe: a fresh connection's STATS frame answers with
/// a stats dump that starts with `text`.
fn assert_binary_alive(addr: SocketAddr, text: &[u8]) {
    let mut probe = TestClient::connect(addr).unwrap();
    probe.send_framed(&[2]).unwrap(); // OPCODE_STATS
    let payload = probe.read_frame(16 << 20).unwrap();
    // Frame payload: status byte (OK = 0) followed by the dump.
    assert!(
        payload.first() == Some(&0) && payload.len() > 1 && payload[1..].starts_with(text),
        "stats probe got {payload:?}"
    );
}

/// Parse the bulk strings out of a RESP array reply.
fn resp_array_docs(reply: &[u8]) -> Vec<String> {
    let text = std::str::from_utf8(reply).expect("ascii reply");
    let mut lines = text.split("\r\n");
    let header = lines.next().expect("array header");
    assert!(header.starts_with('*'), "not an array: {text:?}");
    let n: usize = header[1..].parse().expect("array count");
    let mut docs = Vec::with_capacity(n);
    for _ in 0..n {
        let len_line = lines.next().expect("bulk header");
        assert!(len_line.starts_with('$'), "not a bulk: {text:?}");
        docs.push(lines.next().expect("bulk body").to_string());
    }
    docs
}

/// Deterministic byte soup derived from `r`.
fn garbage(r: u64, len: usize) -> Vec<u8> {
    let mut state = r | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D).rotate_left(17);
            (state >> 32) as u8
        })
        .collect()
}

const VALID_LINES: &[&str] = &[
    "PING",
    "R.LIST",
    "R.STATS",
    "R.CREATE fz",
    "R.INSERTDOC fz d0 alpha beta",
    "R.QUERYSEQ fz 1.0 alpha",
    "R.DROP fz",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzed RESP streams: valid commands, multibulk framings, garbage,
    /// truncations and lying bulk lengths, dribbled onto the socket in
    /// fuzz-sized chunks. The server may answer or close, but it must do so
    /// cleanly and keep serving other connections.
    #[test]
    fn fuzzed_resp_streams_never_wedge_the_server(
        ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..7),
        chunk in 1usize..48,
    ) {
        let reg = registry();
        with_dual_server(&reg, |resp_addr, _| {
            let mut client = TestClient::connect(resp_addr).unwrap();
            client.set_split(chunk, Duration::from_micros(300));
            let mut wire = Vec::new();
            for &(op, r) in &ops {
                let line = VALID_LINES[(r % VALID_LINES.len() as u64) as usize];
                match op {
                    0 => wire.extend_from_slice(format!("{line}\r\n").as_bytes()),
                    1 => {
                        // Multibulk framing of the same command.
                        let args: Vec<&str> = line.split(' ').collect();
                        wire.extend_from_slice(format!("*{}\r\n", args.len()).as_bytes());
                        for a in &args {
                            wire.extend_from_slice(
                                format!("${}\r\n{a}\r\n", a.len()).as_bytes(),
                            );
                        }
                    }
                    2 => wire.extend_from_slice(&garbage(r, (r % 40) as usize + 1)),
                    3 => {
                        // Truncated prefix of a valid command: starves the
                        // parser mid-token.
                        let full = format!("{line}\r\n");
                        let cut = 1 + (r as usize % (full.len() - 1));
                        wire.extend_from_slice(&full.as_bytes()[..cut]);
                    }
                    4 => {
                        // Lying bulk length: header promises more than the
                        // 1 MiB bulk cap allows.
                        wire.extend_from_slice(b"*1\r\n$99999999\r\n");
                    }
                    _ => {
                        // Bare CRLFs and empty arrays are no-ops, not errors.
                        wire.extend_from_slice(b"\r\n*0\r\n");
                    }
                }
            }
            // The server may close the stream mid-send after a protocol
            // error — a broken pipe here is the server doing its job.
            let _ = client.send(&wire);
            client.clear_split();
            let _ = client.shutdown_write();
            // Whatever the stream provoked, the server must end the
            // connection rather than wedge it.
            if let Ok(replies) = client.read_until_close() {
                // Any reply bytes must at least be RESP-typed.
                if let Some(&first) = replies.first() {
                    prop_assert!(
                        matches!(first, b'+' | b'-' | b':' | b'$' | b'*'),
                        "non-RESP reply bytes: {replies:?}"
                    );
                }
            }
            assert_resp_alive(resp_addr);
        });
    }

    /// Fuzzed binary frames: random payloads, random opcodes, truncated
    /// frames, and lying length prefixes (oversized and worst-case
    /// `u32::MAX`). The frame protocol has no in-band error channel for
    /// unparseable framing, so the server's contract is: answer
    /// `BAD_REQUEST` where a frame parses as a bad request, close otherwise,
    /// and never take the reactor down with it.
    #[test]
    fn fuzzed_binary_frames_never_wedge_the_server(
        ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..5),
        chunk in 1usize..32,
        catalog in any::<bool>(),
    ) {
        let front = if catalog { Front::CatalogFrames } else { Front::TenantFrames };
        with_front(front, 1, |served| {
            let mut client = TestClient::connect(served.addr).unwrap();
            client.set_split(chunk, Duration::from_micros(300));
            let mut wire = Vec::new();
            for &(op, r) in &ops {
                match op {
                    0 => {
                        // Well-formed frame, fuzzed payload (random opcode).
                        let payload = garbage(r, (r % 24) as usize + 1);
                        wire.extend_from_slice(
                            &u32::try_from(payload.len()).unwrap().to_le_bytes(),
                        );
                        wire.extend_from_slice(&payload);
                    }
                    1 => {
                        // Oversized length prefix: above MAX_FRAME_BYTES.
                        let lie = (17 << 20) + (r as u32 % 1000);
                        wire.extend_from_slice(&lie.to_le_bytes());
                    }
                    2 => wire.extend_from_slice(&u32::MAX.to_le_bytes()),
                    _ => {
                        // Truncated frame: honest prefix, missing bytes.
                        wire.extend_from_slice(&64u32.to_le_bytes());
                        wire.extend_from_slice(&garbage(r, (r % 8) as usize));
                    }
                }
            }
            let _ = client.send(&wire);
            client.clear_split();
            let _ = client.shutdown_write();
            let _ = client.read_until_close();
        });
    }
}

#[test]
fn pipelined_inserts_stay_in_order_under_fragmentation() {
    let reg = registry();
    with_dual_server(&reg, |resp_addr, _| {
        let mut client = TestClient::connect(resp_addr).unwrap();
        client.send_resp_inline("R.CREATE pipe").unwrap();
        assert_eq!(client.read_resp_reply().unwrap(), b"+OK\r\n");
        // 40 pipelined inserts in one burst, dribbled 3 bytes per poll tick.
        let mut wire = Vec::new();
        for i in 0..40 {
            wire.extend_from_slice(format!("R.INSERTDOC pipe doc-{i} w{i} shared\r\n").as_bytes());
        }
        client.set_split(3, Duration::from_micros(200));
        client.send(&wire).unwrap();
        client.clear_split();
        // Replies must be the dense ids, strictly in request order.
        for i in 0..40 {
            assert_eq!(
                client.read_resp_reply().unwrap(),
                format!(":{i}\r\n").into_bytes(),
                "reply {i} out of order"
            );
        }
    });
}

#[test]
fn pipelined_queries_stay_in_order_under_fragmentation() {
    for front in [Front::Resp, Front::TenantFrames, Front::CatalogFrames] {
        with_front(front, 40, |served| {
            let mut client = TestClient::connect(served.addr).unwrap();
            // 40 pipelined queries in one burst, dribbled 5 bytes per tick.
            // Bloom false positives may add documents to an answer, but the
            // planted one must be there: the order of the replies is the
            // invariant.
            let wire: Vec<u8> = (0..40)
                .rev()
                .flat_map(|d| served.query(&[private(d)]))
                .collect();
            client.set_split(5, Duration::from_micros(200));
            client.send(&wire).unwrap();
            client.clear_split();
            for d in (0..40).rev() {
                let (_, docs) = served.read_reply(&mut client);
                assert!(docs.contains(&d), "{front:?}: reply for d{d} got {docs:?}");
            }
        });
    }
}

/// How many reply bytes the slow-reader test asks each front for, and how
/// many it tolerates the server having produced for a peer that reads
/// nothing: the reactor's own cap is 1 MiB, the rest is what loopback socket
/// buffers may hold (kernel-tuned, so the bound is loose; the reactor's unit
/// test pins the exact one).
const SLOW_READER_ASKS: usize = 32 << 20;
const SLOW_READER_BOUND: usize = 16 << 20;

#[test]
fn a_peer_that_never_reads_is_backpressured_not_buffered() {
    for front in [Front::Resp, Front::TenantFrames, Front::CatalogFrames] {
        with_front(front, 4096, |served| {
            let mut slow = TestClient::connect(served.addr).unwrap();
            // The big reply: every document. Learn its bytes once.
            slow.send(&served.query(&[SHARED])).unwrap();
            let (big, docs) = served.read_reply(&mut slow);
            assert_eq!(docs.len(), 4096);
            // Pipeline big and single-document queries alternately, reading
            // nothing back.
            let rounds = u32::try_from(SLOW_READER_ASKS / big.len()).unwrap();
            let before = (served.answered)();
            let mut wire = Vec::new();
            for i in 0..rounds {
                wire.extend_from_slice(&served.query(&[SHARED]));
                wire.extend_from_slice(&served.query(&[SHARED, private(i % 4096)]));
            }
            slow.send(&wire).unwrap();
            slow.shutdown_write().unwrap();
            // Wait for the server to go quiet on this connection.
            let mut answered = (served.answered)();
            loop {
                std::thread::sleep(Duration::from_millis(50));
                let now = (served.answered)();
                if now == answered {
                    break;
                }
                answered = now;
            }
            let produced = (answered - before) as usize / 2 * big.len();
            assert!(
                produced <= SLOW_READER_BOUND,
                "{front:?}: answered {} of {} requests ({produced} reply bytes) unread",
                answered - before,
                2 * rounds,
            );
            // Everyone else is still served, promptly.
            let asked = Instant::now();
            let mut other = TestClient::connect(served.addr).unwrap();
            other.send(&served.query(&[private(7)])).unwrap();
            assert!(served.read_reply(&mut other).1.contains(&7));
            assert!(asked.elapsed() < Duration::from_secs(2), "{front:?}");
            // Once the peer drains, every reply arrives in request order, and
            // only then is the half-closed connection retired.
            for i in 0..rounds {
                let reply = slow.read_exact(big.len()).unwrap();
                assert!(reply == big, "{front:?}: big reply {i}");
                let (_, docs) = served.read_reply(&mut slow);
                assert!(
                    docs.contains(&(i % 4096)),
                    "{front:?}: reply {i} got {docs:?}"
                );
            }
            assert!(slow.read_until_close().unwrap().is_empty(), "{front:?}");
        });
    }
}

#[test]
fn interleaved_resp_and_binary_connections_serve_concurrently() {
    // The acceptance scenario: one process, one reactor, ≥3 named RAMBO
    // indexes served over RESP while the binary front mutates and queries a
    // fourth — concurrently, with per-tenant answers staying isolated.
    let reg = registry();
    reg.create("bin", TenantOptions::default()).unwrap();
    with_dual_server(&reg, |resp_addr, bin_addr| {
        std::thread::scope(|s| {
            // Three RESP tenants, one client thread each.
            for t in 0..3 {
                s.spawn(move || {
                    let name = format!("tenant-{t}");
                    let mut c = TestClient::connect(resp_addr).unwrap();
                    c.send_resp_inline(&format!("R.CREATE {name}")).unwrap();
                    assert_eq!(c.read_resp_reply().unwrap(), b"+OK\r\n");
                    for d in 0..20 {
                        c.send_resp_inline(&format!(
                            "R.INSERTDOC {name} d{t}-{d} w{t}x{d} shared{t}"
                        ))
                        .unwrap();
                        assert_eq!(
                            c.read_resp_reply().unwrap(),
                            format!(":{d}\r\n").into_bytes()
                        );
                    }
                    // Per-doc probe: the planted doc answers, and — the
                    // isolation property — every answered name belongs to
                    // THIS tenant (false positives stay inside the tenant).
                    for d in 0..20 {
                        c.send_resp_inline(&format!("R.QUERYSEQ {name} 1.0 w{t}x{d}"))
                            .unwrap();
                        let docs = resp_array_docs(&c.read_resp_reply().unwrap());
                        assert!(docs.contains(&format!("d{t}-{d}")), "tenant {t}: {docs:?}");
                        assert!(
                            docs.iter().all(|n| n.starts_with(&format!("d{t}-"))),
                            "cross-tenant leak in {name}: {docs:?}"
                        );
                    }
                    // The shared term hits all 20 of this tenant's docs and
                    // nobody else's.
                    c.send_resp_inline(&format!("R.QUERYSEQ {name} 1.0 shared{t}"))
                        .unwrap();
                    let docs = resp_array_docs(&c.read_resp_reply().unwrap());
                    assert!(docs.len() >= 20, "tenant {t}: {docs:?}");
                    assert!(docs.iter().all(|n| n.starts_with(&format!("d{t}-"))));
                });
            }
            // Two binary clients hammering the bound tenant.
            for r in 0..2u64 {
                s.spawn(move || {
                    let mut c = TcpClient::connect(bin_addr).unwrap();
                    for d in 0..10u64 {
                        let doc = format!("bin-{r}-{d}");
                        let term = (r << 32) | (d << 8) | 1;
                        let id = c.insert_document(&doc, &[term, 0xB1B1]).unwrap();
                        let reply = c.query(&[term], 1.0, Duration::from_secs(5)).unwrap();
                        assert!(
                            reply.docs.contains(&id),
                            "binary client {r} doc {d}: {:?}",
                            reply.docs
                        );
                    }
                });
            }
        });
        // Post-hoc: the registry really holds 4 tenants with the expected
        // document counts, and the shared binary tenant saw both writers.
        let list = reg.list();
        assert_eq!(list.len(), 4);
        for st in &list {
            assert_eq!(st.documents, 20, "tenant {}", st.name);
        }
    });
}

#[test]
fn resp_front_closes_cleanly_on_oversized_inline_lines() {
    let reg = registry();
    with_dual_server(&reg, |resp_addr, _| {
        let mut client = TestClient::connect(resp_addr).unwrap();
        // An inline line that can never terminate within the 64 KiB cap.
        client.send(&vec![b'A'; 80 << 10]).unwrap();
        let reply = client.read_until_close().unwrap();
        assert!(
            reply.starts_with(b"-ERR Protocol error"),
            "oversized inline line must be answered in-protocol: {reply:?}"
        );
        assert_resp_alive(resp_addr);
    });
}

#[test]
fn half_open_clients_do_not_block_shutdown() {
    // A client that sends half a request and stalls forever must not prevent
    // the reactor from serving others or honoring the stop flag (the staller
    // outlives the server's shutdown).
    for front in [Front::Resp, Front::TenantFrames, Front::CatalogFrames] {
        let _staller = with_front(front, 1, |served| {
            let mut staller = TestClient::connect(served.addr).unwrap();
            staller.send(&served.query(&[SHARED])[..10]).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            staller
        });
    }
}
