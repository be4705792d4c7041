//! Golden wire-format conformance: checked-in request/response byte
//! transcripts replayed against live servers, so any drift in the RESP
//! command surface or the binary frame layout fails a byte diff instead of
//! a debugging session.
//!
//! Each transcript under `tests/transcripts/` is a sequence of steps:
//!
//! ```text
//! # comment
//! C: <escaped bytes the client sends>
//! S: <escaped bytes the server must answer, byte-exact>
//! E: eof            <the server must close; nothing further may arrive>
//! ```
//!
//! Escapes: `\r`, `\n`, `\t`, `\\`, `\xNN`. The scenarios that produced the
//! files live in this test as step lists; regenerate the goldens after an
//! *intentional* format change with
//! `RAMBO_REGEN_TRANSCRIPTS=1 cargo test -p rambo-server --test resp_conformance`
//! and review the diff like any other code change.

use rambo_core::{Rambo, RamboParams};
use rambo_server::{
    serve_tcp_with, serve_tenant_tcp, Catalog, ServeOptions, Server, ServerConfig, TenantQuotas,
    TenantRegistry, TenantServeOptions,
};
use rambo_workloads::TestClient;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------
// Transcript plumbing.
// ---------------------------------------------------------------------

/// One step of a conformance scenario. `Send` drives bytes at the server;
/// the expectation steps are *measured* in regen mode (recording what the
/// server actually answered) and *asserted* in replay mode (against the
/// checked-in bytes).
enum Step {
    /// Client sends these bytes.
    Send(Vec<u8>),
    /// Server owes this many RESP replies.
    ExpectResp(usize),
    /// Server owes this many binary frames (length prefix included in the
    /// recorded bytes).
    ExpectFrames(usize),
    /// Client half-closes; the server must flush and close with no further
    /// bytes.
    ExpectEof,
}

/// Encode one RESP array-of-bulks command (the `redis-cli` framing).
fn multibulk(args: &[&str]) -> Vec<u8> {
    let mut wire = format!("*{}\r\n", args.len()).into_bytes();
    for a in args {
        wire.extend_from_slice(format!("${}\r\n{a}\r\n", a.len()).as_bytes());
    }
    wire
}

/// Encode one inline command line (the `nc` framing).
fn inline(line: &str) -> Vec<u8> {
    format!("{line}\r\n").into_bytes()
}

fn escape(bytes: &[u8]) -> String {
    let mut s = String::new();
    for &b in bytes {
        match b {
            b'\r' => s.push_str("\\r"),
            b'\n' => s.push_str("\\n"),
            b'\t' => s.push_str("\\t"),
            b'\\' => s.push_str("\\\\"),
            0x20..=0x7E => s.push(char::from(b)),
            _ => s.push_str(&format!("\\x{b:02x}")),
        }
    }
    s
}

fn unescape(s: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(s.len());
    let mut chars = s.bytes();
    while let Some(b) = chars.next() {
        if b != b'\\' {
            out.push(b);
            continue;
        }
        match chars.next() {
            Some(b'r') => out.push(b'\r'),
            Some(b'n') => out.push(b'\n'),
            Some(b't') => out.push(b'\t'),
            Some(b'\\') => out.push(b'\\'),
            Some(b'x') => {
                let hi = chars.next().expect("hex digit");
                let lo = chars.next().expect("hex digit");
                let hex = [hi, lo];
                let hex = std::str::from_utf8(&hex).expect("ascii hex");
                out.push(u8::from_str_radix(hex, 16).expect("valid \\xNN escape"));
            }
            other => panic!("bad escape \\{other:?} in transcript"),
        }
    }
    out
}

/// Every scenario this file runs, one golden file each.
const SCENARIOS: [&str; 4] = ["resp_happy", "resp_errors", "resp_stats", "binary_stats"];

fn transcript_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts")
}

fn transcript_path(name: &str) -> PathBuf {
    assert!(
        SCENARIOS.contains(&name),
        "scenario {name} is not in SCENARIOS"
    );
    transcript_dir().join(format!("{name}.txt"))
}

fn regen() -> bool {
    std::env::var("RAMBO_REGEN_TRANSCRIPTS").is_ok_and(|v| v == "1")
}

/// Drive one scenario against a live server at `addr`. In regen mode the
/// server's actual replies are recorded into the transcript file; in replay
/// mode every expectation is asserted byte-exact against the checked-in
/// transcript.
fn run_scenario(name: &str, steps: &[Step], addr: SocketAddr) {
    let path = transcript_path(name);
    let mut client = TestClient::connect(addr).unwrap();
    if regen() {
        let mut lines = vec![format!(
            "# {name}: golden conformance transcript (regenerate with \
             RAMBO_REGEN_TRANSCRIPTS=1, then review the diff)"
        )];
        for step in steps {
            match step {
                Step::Send(bytes) => {
                    client.send(bytes).unwrap();
                    lines.push(format!("C: {}", escape(bytes)));
                }
                Step::ExpectResp(n) => {
                    let mut got = Vec::new();
                    for _ in 0..*n {
                        got.extend_from_slice(&client.read_resp_reply().unwrap());
                    }
                    lines.push(format!("S: {}", escape(&got)));
                }
                Step::ExpectFrames(n) => {
                    let mut got = Vec::new();
                    for _ in 0..*n {
                        let payload = client.read_frame(16 << 20).unwrap();
                        got.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
                        got.extend_from_slice(&payload);
                    }
                    lines.push(format!("S: {}", escape(&got)));
                }
                Step::ExpectEof => {
                    client.shutdown_write().unwrap();
                    let rest = client.read_until_close().unwrap();
                    assert!(
                        rest.is_empty(),
                        "{name}: unexpected trailing bytes at close: {rest:?}"
                    );
                    lines.push("E: eof".into());
                }
            }
        }
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing transcript {} ({e}); regenerate with RAMBO_REGEN_TRANSCRIPTS=1",
            path.display()
        )
    });
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(payload) = line.strip_prefix("C: ") {
            client.send(&unescape(payload)).unwrap();
        } else if let Some(payload) = line.strip_prefix("S: ") {
            let want = unescape(payload);
            let got = client
                .read_exact(want.len())
                .unwrap_or_else(|e| panic!("{name}:{lineno}: reply truncated: {e}"));
            assert_eq!(
                escape(&got),
                escape(&want),
                "{name}:{lineno}: wire drift (got vs transcript)"
            );
        } else if line == "E: eof" {
            client.shutdown_write().unwrap();
            let rest = client.read_until_close().unwrap();
            assert!(
                rest.is_empty(),
                "{name}:{lineno}: server sent unexpected bytes before close: {}",
                escape(&rest)
            );
        } else {
            panic!("{name}:{lineno}: unparseable transcript line: {line}");
        }
    }
}

// ---------------------------------------------------------------------
// Server fixtures (deterministic: transcripts are byte-exact).
// ---------------------------------------------------------------------

fn params() -> RamboParams {
    RamboParams::flat(8, 3, 1 << 10, 2, 7)
}

/// Fresh registry served over RESP for the scenario's duration.
fn with_tenant_server(f: impl FnOnce(&TenantRegistry, SocketAddr)) {
    let registry = TenantRegistry::new(params(), TenantQuotas::default()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_tenant_tcp(
                &registry,
                listener,
                None,
                &stop,
                &TenantServeOptions::default(),
            )
        });
        // Stop the reactor even if an assertion panics, so the failure
        // surfaces instead of the scope hanging on the join.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&registry, addr)));
        stop.store(true, Ordering::Relaxed);
        let served = server.join().unwrap();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
        served.unwrap();
    });
}

/// Fixed catalog server (the pre-tenant binary front) with a manifest, for
/// the byte-level transcript of the plain-text `STATS` and `HELLO` frames.
fn with_catalog_server(f: impl FnOnce(SocketAddr)) {
    let mut index = Rambo::new(params()).unwrap();
    for d in 0..6u64 {
        index
            .insert_document(&format!("doc-{d}"), (0..20).map(|t| d << 16 | t))
            .unwrap();
    }
    let catalog = Catalog::builder().base(&index).halving(1).build().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    let options = ServeOptions {
        manifest: Some(b"conformance-node".to_vec()),
    };
    let ((), _stats) = Server::scope(&catalog, ServerConfig::default(), |handle| {
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_tcp_with(handle, listener, &stop, &options));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
            stop.store(true, Ordering::Relaxed);
            let served = server.join().unwrap();
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
            served.unwrap();
        });
    });
}

// ---------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------

#[test]
fn resp_happy_paths() {
    // Both framings (multibulk and inline) on one connection, plus a
    // pipelined pair answered strictly in order.
    let steps = vec![
        Step::Send(multibulk(&["PING"])),
        Step::ExpectResp(1),
        Step::Send(inline("R.CREATE idx")),
        Step::ExpectResp(1),
        Step::Send(multibulk(&[
            "R.INSERTDOC",
            "idx",
            "doc-a",
            "alpha",
            "beta",
            "42",
        ])),
        Step::ExpectResp(1),
        Step::Send(inline("R.INSERTDOC idx doc-b beta gamma")),
        Step::ExpectResp(1),
        Step::Send(multibulk(&["R.QUERYSEQ", "idx", "1.0", "beta"])),
        Step::ExpectResp(1),
        Step::Send(inline("R.QUERYSEQ idx 0.5 alpha gamma")),
        Step::ExpectResp(1),
        // Pipelined: two commands in one write, two replies in order.
        Step::Send([inline("R.LIST"), inline("R.DROP idx")].concat()),
        Step::ExpectResp(2),
        Step::Send(inline("R.DROP idx")),
        Step::ExpectResp(1),
        Step::ExpectEof,
    ];
    with_tenant_server(|_, addr| run_scenario("resp_happy", &steps, addr));
}

#[test]
fn resp_error_taxonomy() {
    let steps = vec![
        Step::Send(inline("NOSUCH thing")),
        Step::ExpectResp(1),
        Step::Send(inline("R.CREATE")),
        Step::ExpectResp(1),
        Step::Send(inline("R.CREATE idx fpr=0.01")),
        Step::ExpectResp(1),
        Step::Send(inline("R.CREATE idx")),
        Step::ExpectResp(1),
        Step::Send(inline("R.CREATE idx")),
        Step::ExpectResp(1),
        Step::Send(inline("R.INSERTDOC ghost doc alpha")),
        Step::ExpectResp(1),
        Step::Send(inline("R.QUERYSEQ idx 1.5 alpha")),
        Step::ExpectResp(1),
        Step::Send(inline("R.CREATE tiny docs=1")),
        Step::ExpectResp(1),
        Step::Send(inline("R.INSERTDOC tiny d0 alpha")),
        Step::ExpectResp(1),
        Step::Send(inline("R.INSERTDOC tiny d1 beta")),
        Step::ExpectResp(1),
        // Framing violation: the element is not a bulk string → in-protocol
        // error, then the server closes the untrustworthy stream.
        Step::Send(b"*2\r\nPING\r\n".to_vec()),
        Step::ExpectResp(1),
        Step::ExpectEof,
    ];
    with_tenant_server(|_, addr| run_scenario("resp_errors", &steps, addr));
}

#[test]
fn resp_stats_surface() {
    // Stats are taken on fresh tenants only (before any queries), where
    // every counter and histogram is deterministically zero.
    let steps = vec![
        Step::Send(inline("R.STATS")),
        Step::ExpectResp(1),
        Step::Send(inline("R.CREATE s1")),
        Step::ExpectResp(1),
        Step::Send(inline("R.STATS s1")),
        Step::ExpectResp(1),
        Step::Send(inline("R.STATS")),
        Step::ExpectResp(1),
        Step::Send(inline("R.STATS ghost")),
        Step::ExpectResp(1),
        Step::ExpectEof,
    ];
    with_tenant_server(|_, addr| run_scenario("resp_stats", &steps, addr));
}

#[test]
fn quota_rejections_agree_on_the_wire_and_in_the_registry() {
    // A `docs=N` tenant takes N inserts and answers each of the k beyond
    // its quota with an in-protocol error; the registry counts exactly k.
    let (cap, extra) = (5, 3);
    with_tenant_server(|registry, addr| {
        let mut client = TestClient::connect(addr).unwrap();
        client
            .send_resp(&[b"R.CREATE", b"capped", format!("docs={cap}").as_bytes()])
            .unwrap();
        assert_eq!(client.read_resp_reply().unwrap(), b"+OK\r\n");
        let mut wire_rejections = 0u64;
        for i in 0..cap + extra {
            let (name, term) = (format!("c-{i}"), (0xCAFE_0000 + i).to_string());
            client
                .send_resp(&[b"R.INSERTDOC", b"capped", name.as_bytes(), term.as_bytes()])
                .unwrap();
            let reply = client.read_resp_reply().unwrap();
            if reply.starts_with(b"-ERR quota exceeded") {
                wire_rejections += 1;
            } else {
                assert_eq!(reply, format!(":{i}\r\n").into_bytes());
            }
        }
        assert_eq!(wire_rejections, extra);
        assert_eq!(registry.stats("capped").unwrap().quota_rejections, extra);
    });
}

/// Multibulk is the framing every client library sends, so a document
/// insert of thousands of terms must decode as one command (the element
/// cap once stopped it at 1 021 terms): it answers its id, and each of its
/// terms, one query apiece and all of them in one AND, finds it.
#[test]
fn multibulk_insert_of_thousands_of_terms_is_served() {
    let terms: Vec<String> = (0..5000u64)
        .map(|t| (0xD0C0_0000 + t).to_string())
        .collect();
    with_tenant_server(|_, addr| {
        let mut client = TestClient::connect(addr).unwrap();
        client.send_resp(&[b"R.CREATE", b"big"]).unwrap();
        assert_eq!(client.read_resp_reply().unwrap(), b"+OK\r\n");
        let mut insert: Vec<&[u8]> = vec![b"R.INSERTDOC", b"big", b"doc-big"];
        insert.extend(terms.iter().map(String::as_bytes));
        client.send_resp(&insert).unwrap();
        assert_eq!(client.read_resp_reply().unwrap(), b":0\r\n");
        let found = b"*1\r\n$7\r\ndoc-big\r\n";
        let mut all: Vec<&[u8]> = vec![b"R.QUERYSEQ", b"big", b"1.0"];
        all.extend(terms.iter().map(String::as_bytes));
        client.send_resp(&all).unwrap();
        assert_eq!(client.read_resp_reply().unwrap(), found);
        for term in &terms {
            client
                .send_resp(&[b"R.QUERYSEQ", b"big", b"1.0", term.as_bytes()])
                .unwrap();
        }
        for term in &terms {
            assert_eq!(client.read_resp_reply().unwrap(), found, "term {term}");
        }
    });
}

/// An insert over the per-document term quota decodes, and is refused
/// in-protocol with the connection left open; a multibulk header past the
/// element cap is still a framing error that closes it.
#[test]
fn oversized_inserts_and_headers_are_refused() {
    let limit = TenantQuotas::default().max_terms_per_doc;
    let terms: Vec<String> = (0..=limit as u64).map(|t| t.to_string()).collect();
    with_tenant_server(|registry, addr| {
        let mut client = TestClient::connect(addr).unwrap();
        client.send_resp(&[b"R.CREATE", b"q"]).unwrap();
        assert_eq!(client.read_resp_reply().unwrap(), b"+OK\r\n");
        let mut insert: Vec<&[u8]> = vec![b"R.INSERTDOC", b"q", b"too-big"];
        insert.extend(terms.iter().map(String::as_bytes));
        client.send_resp(&insert).unwrap();
        assert_eq!(
            client.read_resp_reply().unwrap(),
            format!("-ERR quota exceeded: term set larger than {limit}\r\n").into_bytes()
        );
        assert_eq!(registry.stats("q").unwrap().quota_rejections, 1);
        client.send_resp(&[b"PING"]).unwrap();
        assert_eq!(client.read_resp_reply().unwrap(), b"+PONG\r\n");

        client.send(b"*9999999\r\n").unwrap();
        assert_eq!(
            client.read_resp_reply().unwrap(),
            b"-ERR Protocol error: invalid multibulk length\r\n"
        );
        client.shutdown_write().unwrap();
        assert!(client.read_until_close().unwrap().is_empty());
    });
}

#[test]
fn binary_stats_and_hello_frames() {
    // The pre-existing binary front's plain-text STATS payload and the
    // HELLO manifest, pinned at the byte level for the first time. A fresh
    // server's counters and histograms are deterministically zero.
    let stats_request = {
        let mut f = 1u32.to_le_bytes().to_vec();
        f.push(2); // OPCODE_STATS
        f
    };
    let hello_request = {
        let mut f = 1u32.to_le_bytes().to_vec();
        f.push(3); // OPCODE_HELLO
        f
    };
    let steps = vec![
        Step::Send(hello_request),
        Step::ExpectFrames(1),
        Step::Send(stats_request),
        Step::ExpectFrames(1),
        Step::ExpectEof,
    ];
    with_catalog_server(|addr| run_scenario("binary_stats", &steps, addr));
}

/// A deleted scenario must take its golden file with it.
#[test]
fn every_transcript_belongs_to_a_scenario() {
    let mut on_disk: Vec<String> = std::fs::read_dir(transcript_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut expected = SCENARIOS.to_vec();
    expected.sort_unstable();
    assert_eq!(on_disk, expected);
}

#[test]
fn transcript_escaping_roundtrips() {
    let bytes: Vec<u8> = (0u8..=255).collect();
    assert_eq!(unescape(&escape(&bytes)), bytes);
}
