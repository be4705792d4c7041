//! RESP2-compatible text protocol front over a [`TenantRegistry`] — the
//! multi-tenant command surface, served alongside the binary frames by one
//! readiness reactor.
//!
//! ## Command surface
//!
//! RAMBO verbs (one named index per tenant):
//!
//! ```text
//! R.CREATE    <name> [docs=<n>] [bytes=<n>]   → +OK
//! R.INSERTDOC <name> <doc> <term...>         → :id
//! R.QUERYSEQ  <name> <theta> <term...>       → *N doc names
//! R.DROP      <name>                         → :1 / :0
//! R.STATS     [<name>]                       → $text
//! R.LIST                                     → *N tenant names
//! ```
//!
//! A tenant is one RAMBO matrix of the registry's geometry; `R.STATS`
//! shows its predicted FPR. `docs=` caps its documents; `bytes=` caps its
//! index size (matrix plus per-document bookkeeping): `R.CREATE` answers
//! `-ERR quota exceeded …` when the empty matrix already reaches the
//! budget, and an insert does once the index has.
//!
//! A `<term>` token that parses as a decimal `u64` is taken as a raw term
//! hash (the binary front's currency); any other token is hashed with
//! [`term_of`] — the same convention the text-corpus pipeline uses, so a
//! corpus can be loaded over the wire and queried by word.
//!
//! ## Framing
//!
//! Both RESP2 framings are accepted on every connection: arrays of bulk
//! strings (`*2\r\n$4\r\nPING\r\n…`, what `redis-cli` sends) and
//! space-separated inline commands (`R.LIST\r\n`, what `nc` sends).
//! Replies use simple strings (`+OK`), errors (`-ERR …`), integers
//! (`:1`), bulk strings and arrays. Errors follow Redis taxonomy: unknown
//! command, wrong arity, invalid argument, and the registry's own
//! admission errors (`quota exceeded`, duplicate/unknown tenant) are all
//! answered **in-protocol** with the connection left open; only a framing
//! violation (bad type byte, oversized or malformed length) earns an
//! error reply followed by a close, because the stream can no longer be
//! trusted.
//!
//! ## Serving
//!
//! [`serve_tenant_tcp`] pairs the RESP listener with this protocol and
//! (optionally) a second listener with the binary frame protocol bound to
//! [`TenantServeOptions::binary_tenant`], both on the one reactor
//! (`reactor.rs`). Every command runs to completion as it decodes; a tenant
//! has no background upkeep, so a turn with no I/O blocks in `poll`.

use crate::reactor::{Protocol, Reactor, Step};
use crate::tcp::TenantFrames;
use crate::tenant::{TenantOptions, TenantRegistry};
use crate::wire::MAX_FRAME_BYTES;
use rambo_hash::murmur3_x64_64;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;

/// Most array elements accepted in one command: twice the document insert
/// of [`crate::TenantQuotas`]'s default 65 536 terms, so a larger one meets
/// the quota's in-protocol error rather than a framing error. The frame
/// stays bounded by `MAX_FRAME_BYTES`. Not higher, because an incomplete
/// command is parsed again from its start on every read, at a cost that
/// grows with its element count: a 16 MB command of 2^17 elements
/// trickled in 16 KiB reads already costs the parser seconds.
const MAX_ARGS: usize = 1 << 17;
/// Largest accepted bulk-string payload (1 MiB — a document insert with
/// tens of thousands of terms still fits in many bulks).
const MAX_BULK: usize = 1 << 20;
/// Longest accepted inline line before the parser gives up waiting for a
/// newline.
const MAX_INLINE: usize = 64 << 10;

/// Hash a textual term token the way the text-corpus pipeline does, so
/// wire-inserted documents and corpus-built oracles agree on term hashes.
#[must_use]
pub fn term_of(word: &str) -> u64 {
    murmur3_x64_64(word.as_bytes(), 1)
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

/// Outcome of one incremental parse attempt against the head of a
/// connection's input buffer.
pub(crate) enum RespParse {
    /// Not enough bytes yet; read more and retry with the same prefix.
    Incomplete,
    /// One complete command (`args` possibly empty for a blank inline
    /// line); `consumed` bytes are done with.
    Command { args: Vec<Vec<u8>>, consumed: usize },
    /// The stream violated the framing and cannot be resynchronized; the
    /// front answers `-ERR message` and closes.
    Protocol { message: String },
}

/// Incremental RESP2 request parser: arrays of bulk strings, or inline
/// commands split on spaces/tabs. Never consumes a partial command.
pub(crate) fn parse_resp(buf: &[u8]) -> RespParse {
    let Some(&first) = buf.first() else {
        return RespParse::Incomplete;
    };
    if first == b'*' {
        return parse_multibulk(buf);
    }
    parse_inline(buf)
}

/// Find the next CRLF-terminated line starting at `pos`: returns the line
/// content (CRLF excluded) and the index just past the CRLF.
fn crlf_line(buf: &[u8], pos: usize) -> Result<Option<(&[u8], usize)>, String> {
    let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
        return Ok(None);
    };
    let nl = pos + nl;
    if nl == pos || buf[nl - 1] != b'\r' {
        return Err("Protocol error: expected CRLF line terminator".into());
    }
    Ok(Some((&buf[pos..nl - 1], nl + 1)))
}

/// Strict non-negative decimal parse for protocol length fields.
fn parse_len(digits: &[u8]) -> Option<usize> {
    if digits.is_empty() || digits.len() > 10 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

fn parse_multibulk(buf: &[u8]) -> RespParse {
    let header = match crlf_line(buf, 1) {
        Err(message) => return RespParse::Protocol { message },
        Ok(None) if buf.len() > MAX_INLINE => {
            return RespParse::Protocol {
                message: "Protocol error: too big mbulk count string".into(),
            }
        }
        Ok(None) => return RespParse::Incomplete,
        Ok(Some(line)) => line,
    };
    let (count_digits, mut pos) = header;
    // `*-1` / `*0` are tolerated as no-ops (some clients send them as
    // keepalives); anything else non-numeric is a framing violation.
    if count_digits == b"-1" || count_digits == b"0" {
        return RespParse::Command {
            args: Vec::new(),
            consumed: pos,
        };
    }
    let count = match parse_len(count_digits) {
        Some(n) if (1..=MAX_ARGS).contains(&n) => n,
        _ => {
            return RespParse::Protocol {
                message: "Protocol error: invalid multibulk length".into(),
            }
        }
    };
    // Sized from the bytes in hand, not the header, so a bare `*131072`
    // reserves nothing; an element is at least `$0\r\n\r\n`.
    let mut args = Vec::with_capacity(count.min((buf.len() - pos) / 6));
    for _ in 0..count {
        let Some(&marker) = buf.get(pos) else {
            return RespParse::Incomplete;
        };
        if marker != b'$' {
            return RespParse::Protocol {
                message: format!(
                    "Protocol error: expected '$', got '{}'",
                    char::from(marker.clamp(0x20, 0x7E))
                ),
            };
        }
        let (len_digits, body) = match crlf_line(buf, pos + 1) {
            Err(message) => return RespParse::Protocol { message },
            Ok(None) if buf.len() - pos > 32 => {
                return RespParse::Protocol {
                    message: "Protocol error: invalid bulk length".into(),
                }
            }
            Ok(None) => return RespParse::Incomplete,
            Ok(Some(line)) => line,
        };
        let len = match parse_len(len_digits) {
            Some(n) if n <= MAX_BULK => n,
            _ => {
                return RespParse::Protocol {
                    message: "Protocol error: invalid bulk length".into(),
                }
            }
        };
        if buf.len() < body + len + 2 {
            return RespParse::Incomplete;
        }
        if &buf[body + len..body + len + 2] != b"\r\n" {
            return RespParse::Protocol {
                message: "Protocol error: bulk payload not CRLF terminated".into(),
            };
        }
        args.push(buf[body..body + len].to_vec());
        pos = body + len + 2;
    }
    RespParse::Command {
        args,
        consumed: pos,
    }
}

fn parse_inline(buf: &[u8]) -> RespParse {
    let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
        if buf.len() > MAX_INLINE {
            return RespParse::Protocol {
                message: "Protocol error: too big inline request".into(),
            };
        }
        return RespParse::Incomplete;
    };
    let line = &buf[..nl];
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let args = line
        .split(|&b| b == b' ' || b == b'\t')
        .filter(|tok| !tok.is_empty())
        .map(<[u8]>::to_vec)
        .collect();
    RespParse::Command {
        args,
        consumed: nl + 1,
    }
}

// ---------------------------------------------------------------------
// Encoders.
// ---------------------------------------------------------------------

pub(crate) fn resp_simple(s: &str) -> Vec<u8> {
    format!("+{s}\r\n").into_bytes()
}

pub(crate) fn resp_error(message: &str) -> Vec<u8> {
    format!("-ERR {message}\r\n").into_bytes()
}

pub(crate) fn resp_integer(n: i64) -> Vec<u8> {
    format!(":{n}\r\n").into_bytes()
}

pub(crate) fn resp_bulk(payload: &[u8]) -> Vec<u8> {
    let mut out = format!("${}\r\n", payload.len()).into_bytes();
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
    out
}

/// Array whose elements are already-encoded RESP values.
pub(crate) fn resp_array(elements: &[Vec<u8>]) -> Vec<u8> {
    let mut out = format!("*{}\r\n", elements.len()).into_bytes();
    for e in elements {
        out.extend_from_slice(e);
    }
    out
}

// ---------------------------------------------------------------------
// Command execution.
// ---------------------------------------------------------------------

fn lossy(arg: &[u8]) -> String {
    String::from_utf8_lossy(arg).into_owned()
}

fn wrong_arity(canonical: &str) -> Vec<u8> {
    resp_error(&format!("wrong number of arguments for '{canonical}'"))
}

/// A term token: a decimal `u64` is a raw hash, anything else is a word.
fn parse_term(tok: &[u8]) -> u64 {
    decimal_u64(tok).unwrap_or_else(|| term_of(&String::from_utf8_lossy(tok)))
}

/// `str::parse::<u64>` straight from the bytes: an optional `+`, then one or
/// more ASCII digits (leading zeros allowed) whose value fits in a `u64`.
fn decimal_u64(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// Execute one parsed command against the registry, returning the encoded
/// reply. Always answers in-protocol — the caller never closes over an
/// executed command, only over framing violations.
pub(crate) fn execute(registry: &TenantRegistry, args: &[Vec<u8>]) -> Vec<u8> {
    let cmd = lossy(&args[0]).to_ascii_uppercase();
    match cmd.as_str() {
        "PING" => match args.len() {
            1 => resp_simple("PONG"),
            2 => resp_bulk(&args[1]),
            _ => wrong_arity("ping"),
        },
        "R.CREATE" => cmd_create(registry, args),
        "R.INSERTDOC" => cmd_insertdoc(registry, args),
        "R.QUERYSEQ" => cmd_queryseq(registry, args),
        "R.DROP" => match args.len() {
            2 => resp_integer(i64::from(registry.drop_tenant(&lossy(&args[1])))),
            _ => wrong_arity("r.drop"),
        },
        "R.STATS" => match args.len() {
            1 => resp_bulk(registry.summary().as_bytes()),
            2 => match registry.stats(&lossy(&args[1])) {
                Ok(stats) => resp_bulk(stats.to_string().as_bytes()),
                Err(e) => resp_error(&e.to_string()),
            },
            _ => wrong_arity("r.stats"),
        },
        "R.LIST" => match args.len() {
            1 => {
                let names: Vec<Vec<u8>> = registry
                    .list()
                    .into_iter()
                    .map(|t| resp_bulk(t.name.as_bytes()))
                    .collect();
                resp_array(&names)
            }
            _ => wrong_arity("r.list"),
        },
        _ => resp_error(&format!("unknown command '{}'", lossy(&args[0]))),
    }
}

fn cmd_create(registry: &TenantRegistry, args: &[Vec<u8>]) -> Vec<u8> {
    if args.len() < 2 {
        return wrong_arity("r.create");
    }
    let name = lossy(&args[1]);
    let mut opts = TenantOptions::default();
    for tok in &args[2..] {
        let tok = lossy(tok);
        let (key, value) = match tok.split_once('=') {
            Some(kv) => kv,
            None => (tok.as_str(), ""),
        };
        match key.to_ascii_lowercase().as_str() {
            "docs" => match value.parse::<usize>() {
                Ok(n) if n > 0 => opts.max_docs = Some(n),
                _ => return resp_error(&format!("invalid value '{value}' for option 'docs'")),
            },
            "bytes" => match value.parse::<usize>() {
                Ok(n) if n > 0 => opts.max_bytes = Some(n),
                _ => return resp_error(&format!("invalid value '{value}' for option 'bytes'")),
            },
            _ => return resp_error(&format!("unknown option '{key}' for 'r.create'")),
        }
    }
    match registry.create(&name, opts) {
        Ok(()) => resp_simple("OK"),
        Err(e) => resp_error(&e.to_string()),
    }
}

fn cmd_insertdoc(registry: &TenantRegistry, args: &[Vec<u8>]) -> Vec<u8> {
    if args.len() < 4 {
        return wrong_arity("r.insertdoc");
    }
    let name = lossy(&args[1]);
    let doc = lossy(&args[2]);
    let terms: Vec<u64> = args[3..].iter().map(|t| parse_term(t)).collect();
    match registry.insert_document(&name, &doc, &terms) {
        Ok(id) => resp_integer(i64::from(id)),
        Err(e) => resp_error(&e.to_string()),
    }
}

fn cmd_queryseq(registry: &TenantRegistry, args: &[Vec<u8>]) -> Vec<u8> {
    if args.len() < 4 {
        return wrong_arity("r.queryseq");
    }
    let name = lossy(&args[1]);
    let theta_tok = lossy(&args[2]);
    let theta = match theta_tok.parse::<f64>() {
        Ok(t) if t > 0.0 && t <= 1.0 => t,
        _ => {
            return resp_error(&format!(
                "invalid theta '{theta_tok}' (want 0 < theta <= 1)"
            ))
        }
    };
    let terms: Vec<u64> = args[3..].iter().map(|t| parse_term(t)).collect();
    match registry.query_theta(&name, &terms, theta, None) {
        Ok(docs) => match registry.resolve_names(&name, &docs) {
            Ok(names) => {
                let bulks: Vec<Vec<u8>> = names.iter().map(|n| resp_bulk(n.as_bytes())).collect();
                resp_array(&bulks)
            }
            // The tenant vanished between query and resolve.
            Err(e) => resp_error(&e.to_string()),
        },
        Err(e) => resp_error(&e.to_string()),
    }
}

// ---------------------------------------------------------------------
// Serving.
// ---------------------------------------------------------------------

/// Options for [`serve_tenant_tcp`].
#[derive(Debug, Clone, Default)]
pub struct TenantServeOptions {
    /// `HELLO` manifest for the binary front (see
    /// [`crate::ServeOptions::manifest`]); `None` answers with the
    /// bad-request status, connection kept open.
    pub manifest: Option<Vec<u8>>,
    /// Tenant served to binary `QUERY`/`MUTATE` frames, which carry no
    /// tenant name. `None` (or a name that is not live) answers queries
    /// with the bad-request status and mutates with an in-protocol
    /// rejection, both keeping the connection open.
    pub binary_tenant: Option<String>,
}

/// RESP commands over a registry: executed the moment they decode (registry
/// calls are lock-bounded), so replies flow in request order by construction.
struct RespCommands<'a> {
    registry: &'a TenantRegistry,
}

impl Protocol for RespCommands<'_> {
    fn step(&self, inbuf: &[u8]) -> Step {
        let violation = |message: &str| Step::Request {
            consumed: 0,
            reply: resp_error(message),
            close: true,
        };
        match parse_resp(inbuf) {
            // A "command" that can never fit the input ceiling will sit
            // incomplete forever; evict it as a framing violation.
            RespParse::Incomplete if inbuf.len() >= MAX_FRAME_BYTES => {
                violation("Protocol error: request too large")
            }
            RespParse::Incomplete => Step::Incomplete,
            RespParse::Protocol { message } => violation(&message),
            RespParse::Command { args, consumed } => Step::Request {
                consumed,
                reply: if args.is_empty() {
                    Vec::new()
                } else {
                    execute(self.registry, &args)
                },
                close: false,
            },
        }
    }
}

/// Serve a [`TenantRegistry`] until `stop` is set: the RESP front on
/// `resp_listener` and, when given, the binary frame protocol on
/// `binary_listener`, both multiplexed by one readiness reactor on the
/// calling thread. A mutable index over TCP is this with
/// [`TenantServeOptions::binary_tenant`] set.
///
/// # Errors
/// Propagates listener configuration errors and fatal accept failures (which
/// also raise `stop`); per-connection I/O errors only end that connection.
pub fn serve_tenant_tcp(
    registry: &TenantRegistry,
    resp_listener: TcpListener,
    binary_listener: Option<TcpListener>,
    stop: &AtomicBool,
    options: &TenantServeOptions,
) -> io::Result<()> {
    let resp = RespCommands { registry };
    let frames = TenantFrames { registry, options };
    let mut listeners: Vec<(TcpListener, &dyn Protocol)> = vec![(resp_listener, &resp)];
    listeners.extend(binary_listener.map(|l| (l, &frames as &dyn Protocol)));
    Reactor::new(&listeners)?.run(stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantQuotas;
    use rambo_core::RamboParams;

    fn registry() -> TenantRegistry {
        TenantRegistry::new(
            RamboParams::flat(8, 3, 1 << 10, 2, 7),
            TenantQuotas::default(),
        )
        .unwrap()
    }

    fn run(reg: &TenantRegistry, line: &str) -> Vec<u8> {
        let mut wire = line.as_bytes().to_vec();
        wire.extend_from_slice(b"\r\n");
        match parse_resp(&wire) {
            RespParse::Command { args, consumed } => {
                assert_eq!(consumed, wire.len());
                execute(reg, &args)
            }
            _ => panic!("inline command must parse: {line}"),
        }
    }

    #[test]
    fn multibulk_roundtrip_and_fragmentation() {
        let wire = b"*2\r\n$4\r\nPING\r\n$5\r\nhello\r\n";
        // Every strict prefix is Incomplete, never an error.
        for cut in 0..wire.len() {
            match parse_resp(&wire[..cut]) {
                RespParse::Incomplete => {}
                RespParse::Command { .. } => panic!("prefix {cut} cannot be complete"),
                RespParse::Protocol { message } => panic!("prefix {cut}: {message}"),
            }
        }
        match parse_resp(wire) {
            RespParse::Command { args, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(args, vec![b"PING".to_vec(), b"hello".to_vec()]);
            }
            _ => panic!("complete frame must parse"),
        }
    }

    #[test]
    fn inline_parsing_splits_on_whitespace() {
        let wire = b"  R.CREATE  idx \t docs=5 \r\nrest";
        match parse_resp(wire) {
            RespParse::Command { args, consumed } => {
                assert_eq!(consumed, wire.len() - 4);
                assert_eq!(args.len(), 3);
                assert_eq!(args[0], b"R.CREATE");
                assert_eq!(args[2], b"docs=5");
            }
            _ => panic!("inline must parse"),
        }
    }

    #[test]
    fn framing_violations_are_protocol_errors() {
        for bad in [
            &b"*abc\r\n"[..],
            b"*2\r\nPING\r\n",
            b"*1\r\n$abc\r\n",
            b"*1\r\n$3\r\nabcX\r\n",
            b"*9999999\r\n",
        ] {
            assert!(
                matches!(parse_resp(bad), RespParse::Protocol { .. }),
                "{bad:?} must be a protocol error"
            );
        }
    }

    #[test]
    fn lone_lf_line_terminator_is_rejected() {
        assert!(matches!(
            parse_resp(b"*1\n$4\nPING\n"),
            RespParse::Protocol { .. }
        ));
    }

    #[test]
    fn command_surface_happy_paths() {
        let reg = registry();
        assert_eq!(run(&reg, "PING"), b"+PONG\r\n");
        assert_eq!(run(&reg, "R.CREATE idx"), b"+OK\r\n");
        assert_eq!(run(&reg, "R.INSERTDOC idx doc-a alpha beta 42"), b":0\r\n");
        assert_eq!(run(&reg, "R.INSERTDOC idx doc-b beta gamma"), b":1\r\n");
        assert_eq!(
            run(&reg, "R.QUERYSEQ idx 1.0 beta"),
            b"*2\r\n$5\r\ndoc-a\r\n$5\r\ndoc-b\r\n"
        );
        assert_eq!(
            run(&reg, "R.QUERYSEQ idx 1.0 alpha 42"),
            b"*1\r\n$5\r\ndoc-a\r\n"
        );
        assert_eq!(run(&reg, "R.LIST"), b"*1\r\n$3\r\nidx\r\n");
        assert_eq!(run(&reg, "R.DROP idx"), b":1\r\n");
        assert_eq!(run(&reg, "R.DROP idx"), b":0\r\n");
    }

    #[test]
    fn error_taxonomy_is_stable() {
        let reg = registry();
        assert_eq!(run(&reg, "NOSUCH x"), b"-ERR unknown command 'NOSUCH'\r\n");
        assert_eq!(
            run(&reg, "R.CREATE"),
            b"-ERR wrong number of arguments for 'r.create'\r\n"
        );
        assert_eq!(
            run(&reg, "R.CREATE idx fpr=0.01"),
            b"-ERR unknown option 'fpr' for 'r.create'\r\n"
        );
        assert_eq!(run(&reg, "R.CREATE idx"), b"+OK\r\n");
        assert_eq!(
            run(&reg, "R.CREATE idx"),
            b"-ERR tenant 'idx' already exists\r\n"
        );
        assert_eq!(
            run(&reg, "R.INSERTDOC ghost d a b"),
            b"-ERR no such tenant 'ghost'\r\n"
        );
        assert_eq!(
            run(&reg, "R.QUERYSEQ idx 0 a"),
            b"-ERR invalid theta '0' (want 0 < theta <= 1)\r\n"
        );
    }

    #[test]
    fn create_options_check_the_byte_budget_and_reject_tiers() {
        let reg = registry();
        assert_eq!(
            run(&reg, "R.CREATE t bytes=1"),
            b"-ERR quota exceeded: index larger than the byte budget (1)\r\n"
        );
        assert_eq!(run(&reg, "R.LIST"), b"*0\r\n");
        assert_eq!(
            run(&reg, "R.CREATE t tiers=3"),
            b"-ERR unknown option 'tiers' for 'r.create'\r\n"
        );
        assert_eq!(run(&reg, "R.CREATE t bytes=1000000"), b"+OK\r\n");
        assert_eq!(run(&reg, "R.INSERTDOC t d a b"), b":0\r\n");
    }

    /// The byte-level term parser keeps `str::parse::<u64>`'s definition:
    /// signs, leading zeros, the `u64` edge, non-UTF-8 bytes and fuzzed
    /// tokens over a digit-heavy alphabet all map to the same term.
    #[test]
    fn parse_term_matches_str_parse() {
        let old = |tok: &[u8]| {
            let s = String::from_utf8_lossy(tok);
            s.parse::<u64>().unwrap_or_else(|_| term_of(&s))
        };
        let max = u64::MAX.to_string();
        let over = (u128::from(u64::MAX) + 1).to_string();
        let mut tokens: Vec<Vec<u8>> = [
            "",
            "+",
            "-",
            "0",
            "+7",
            "-1",
            "007",
            "+007",
            "++7",
            "+-7",
            "7+",
            " 7",
            "7 ",
            "1e3",
            "0x10",
            "alpha",
            &max,
            &over,
            "99999999999999999999999",
        ]
        .iter()
        .map(|s| s.as_bytes().to_vec())
        .collect();
        tokens.extend([
            vec![0xFF],
            vec![b'1', 0xC3],
            vec![0xC3, 0xA9, b'4'],
            vec![b'9'; 25],
        ]);
        // xorshift64: fuzzed tokens of 1–22 bytes from digits, signs, a
        // letter and two non-UTF-8 bytes.
        let alphabet = b"0123456789+-a\xff\xc3";
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let len = 1 + (next() % 22) as usize;
            let tok = (0..len)
                .map(|i| {
                    // Mostly digits, so long tokens reach the overflow edge.
                    let r = next();
                    if i > 0 && r % 8 != 0 {
                        b'0' + (r % 10) as u8
                    } else {
                        alphabet[(r % alphabet.len() as u64) as usize]
                    }
                })
                .collect();
            tokens.push(tok);
        }
        for tok in &tokens {
            assert_eq!(parse_term(tok), old(tok), "token {tok:?}");
        }
        assert_eq!(parse_term(b"+7"), 7);
        assert_eq!(parse_term(b"007"), 7);
        assert_eq!(parse_term(max.as_bytes()), u64::MAX);
        assert_eq!(parse_term(over.as_bytes()), term_of(&over));
        assert_eq!(parse_term(b"-1"), term_of("-1"));
    }

    #[test]
    fn queryseq_theta_counts_fractions() {
        let reg = registry();
        assert_eq!(run(&reg, "R.CREATE idx"), b"+OK\r\n");
        assert_eq!(run(&reg, "R.INSERTDOC idx d0 a b c d"), b":0\r\n");
        assert_eq!(run(&reg, "R.INSERTDOC idx d1 a b x y"), b":1\r\n");
        // All four terms: only d0.
        assert_eq!(
            run(&reg, "R.QUERYSEQ idx 1.0 a b c d"),
            b"*1\r\n$2\r\nd0\r\n"
        );
        // Half the terms: both.
        assert_eq!(
            run(&reg, "R.QUERYSEQ idx 0.5 a b c d"),
            b"*2\r\n$2\r\nd0\r\n$2\r\nd1\r\n"
        );
    }
}
