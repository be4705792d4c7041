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
//! Framing limits, each a violation when crossed: an array of at most
//! 131 072 (2^17) elements, a bulk string of at most 1 MiB, an inline line
//! of at most 64 KiB, and a command of at most 16 MiB
//! ([`MAX_FRAME_BYTES`](crate::wire::MAX_FRAME_BYTES)). Each is decided by
//! the bytes alone, however they are split across reads. A command that
//! arrives over many reads is checked once: each read resumes where the
//! last one stopped (the connection's [`Resume`] point), so its cost is
//! linear in its size.
//!
//! ## Serving
//!
//! [`serve_tenant_tcp`] pairs the RESP listener with this protocol and
//! (optionally) a second listener with the binary frame protocol bound to
//! [`TenantServeOptions::binary_tenant`], both on the one reactor
//! (`reactor.rs`). Every command runs to completion as it decodes; a tenant
//! has no background upkeep, so a turn with no I/O blocks in `poll`.

use crate::reactor::{Protocol, Reactor, Resume, Step};
use crate::tcp::TenantFrames;
use crate::tenant::{TenantOptions, TenantRegistry};
use crate::wire::MAX_FRAME_BYTES;
use rambo_hash::murmur3_x64_64;
use std::borrow::Cow;
use std::fmt::Display;
use std::io::{self, Write};
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;

/// Most array elements accepted in one command: twice the document insert
/// of [`crate::TenantQuotas`]'s default 65 536 terms, so a larger one meets
/// the quota's in-protocol error rather than a framing error. Parsing is
/// linear in the command's bytes whatever the count (an incomplete command
/// resumes where the last read stopped), so what this bounds is the
/// argument vector a complete command borrows: 16 bytes an element, 2 MiB
/// at the cap, beside the 16 MiB `MAX_FRAME_BYTES` the command itself may
/// take.
const MAX_ARGS: usize = 1 << 17;
/// Largest accepted bulk-string payload (1 MiB — a document insert with
/// tens of thousands of terms still fits in many bulks).
const MAX_BULK: usize = 1 << 20;
/// Longest accepted inline line (its `\r`, if any, included) before the
/// parser gives up waiting for a newline; also the longest `*<count>` line.
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

/// One command: its arguments, borrowed from the input (none for a blank
/// line or `*0`), and its length in bytes.
type Command<'a> = (Vec<&'a [u8]>, usize);
/// What a parse found: `Ok(None)` until all its bytes are in, or the
/// framing violation's message.
type Parsed<T> = Result<Option<T>, String>;

/// Take the next command off the front of `buf` (arrays of bulk strings,
/// or inline commands split on spaces/tabs). `resume` holds what earlier
/// calls checked of an incomplete command, so each call starts where the
/// last one stopped; it is cleared when a command is taken.
fn next_command<'a>(buf: &'a [u8], resume: &mut Resume) -> Parsed<Command<'a>> {
    let command = match buf.first() {
        None => None,
        Some(b'*') => multibulk(buf, resume)?,
        Some(_) => inline(buf, resume)?,
    };
    if command.is_some() {
        *resume = Resume::default();
    } else if buf.len() >= MAX_FRAME_BYTES {
        // A command that can never fit the input ceiling would sit
        // incomplete forever.
        return Err("Protocol error: request too large".into());
    }
    Ok(command)
}

/// The index of the `\n` ending the line that starts at `line`, scanning
/// from `scan` (the bytes before it are known to hold none) and allowing
/// the line `max` bytes, newline included: `Ok(None)` while it is shorter
/// and unterminated, `Err(too_long)` once it is not.
fn line_end(buf: &[u8], line: usize, scan: usize, max: usize, too_long: &str) -> Parsed<usize> {
    let end = buf.len().min(line + max);
    match buf[scan..end].iter().position(|&b| b == b'\n') {
        Some(i) => Ok(Some(scan + i)),
        None if end == line + max => Err(too_long.into()),
        None => Ok(None),
    }
}

/// The content of the protocol line from `line` to the `\n` at `nl`, which
/// a `\r` must precede.
fn crlf_line(buf: &[u8], line: usize, nl: usize) -> Result<&[u8], String> {
    if nl == line || buf[nl - 1] != b'\r' {
        return Err("Protocol error: expected CRLF line terminator".into());
    }
    Ok(&buf[line..nl - 1])
}

/// Strict non-negative decimal parse for protocol length fields.
fn parse_len(digits: &[u8]) -> Option<usize> {
    if digits.is_empty() || digits.len() > 10 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// An array of bulk strings. `resume.items` is 0 while the `*<count>` line
/// is still arriving (`resume.offset` is how much of it was scanned), then
/// 1 plus the elements checked (`resume.offset` is where the next begins).
fn multibulk<'a>(buf: &'a [u8], resume: &mut Resume) -> Parsed<Command<'a>> {
    let scan = if resume.items == 0 { resume.offset } else { 0 };
    let too_long = "Protocol error: too big mbulk count string";
    let Some(nl) = line_end(buf, 1, scan.max(1), MAX_INLINE, too_long)? else {
        resume.offset = buf.len();
        return Ok(None);
    };
    let count_digits = crlf_line(buf, 1, nl)?;
    let first = nl + 1;
    // `*-1` / `*0` are tolerated as no-ops (some clients send them as
    // keepalives); anything else non-numeric is a framing violation.
    if count_digits == b"-1" || count_digits == b"0" {
        return Ok(Some((Vec::new(), first)));
    }
    let count = match parse_len(count_digits) {
        Some(n) if (1..=MAX_ARGS).contains(&n) => n,
        _ => return Err("Protocol error: invalid multibulk length".into()),
    };
    let (mut pos, mut checked) = match resume.items {
        0 => (first, 0),
        items => (resume.offset, items - 1),
    };
    while checked < count {
        let Some((_, end)) = bulk(buf, pos)? else {
            (resume.offset, resume.items) = (pos, 1 + checked);
            return Ok(None);
        };
        (pos, checked) = (end, checked + 1);
    }
    // All in and checked: borrow the elements, reading their headers only.
    let mut args = Vec::with_capacity(count);
    let mut at = first;
    for _ in 0..count {
        let (arg, end) = bulk(buf, at)?.expect("checked above");
        args.push(arg);
        at = end;
    }
    Ok(Some((args, pos)))
}

/// The bulk string whose `$` is at `pos`, and the index just past it.
fn bulk(buf: &[u8], pos: usize) -> Parsed<(&[u8], usize)> {
    let Some(&marker) = buf.get(pos) else {
        return Ok(None);
    };
    if marker != b'$' {
        return Err(format!(
            "Protocol error: expected '$', got '{}'",
            char::from(marker.clamp(0x20, 0x7E))
        ));
    }
    let invalid = "Protocol error: invalid bulk length";
    let Some(nl) = line_end(buf, pos + 1, pos + 1, 32, invalid)? else {
        return Ok(None);
    };
    let len = match parse_len(crlf_line(buf, pos + 1, nl)?) {
        Some(n) if n <= MAX_BULK => n,
        _ => return Err(invalid.into()),
    };
    let end = nl + 1 + len + 2;
    if end > MAX_FRAME_BYTES {
        return Err("Protocol error: request too large".into());
    }
    if buf.len() < end {
        return Ok(None);
    }
    if &buf[end - 2..end] != b"\r\n" {
        return Err("Protocol error: bulk payload not CRLF terminated".into());
    }
    Ok(Some((&buf[nl + 1..end - 2], end)))
}

/// An inline command; `resume.offset` is how much of its line was scanned.
fn inline<'a>(buf: &'a [u8], resume: &mut Resume) -> Parsed<Command<'a>> {
    let too_long = "Protocol error: too big inline request";
    let Some(nl) = line_end(buf, 0, resume.offset, MAX_INLINE + 1, too_long)? else {
        resume.offset = buf.len();
        return Ok(None);
    };
    let line = &buf[..nl];
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let args = line
        .split(|&b| b == b' ' || b == b'\t')
        .filter(|tok| !tok.is_empty())
        .collect();
    Ok(Some((args, nl + 1)))
}

// ---------------------------------------------------------------------
// Encoders: each appends one reply to the connection's output.
// ---------------------------------------------------------------------

fn resp_simple(out: &mut Vec<u8>, s: &str) {
    let _ = write!(out, "+{s}\r\n");
}

fn resp_error(out: &mut Vec<u8>, message: impl Display) {
    let _ = write!(out, "-ERR {message}\r\n");
}

fn resp_integer(out: &mut Vec<u8>, n: i64) {
    let _ = write!(out, ":{n}\r\n");
}

fn resp_bulk(out: &mut Vec<u8>, payload: &[u8]) {
    let _ = write!(out, "${}\r\n", payload.len());
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
}

/// An array's header; its `len` elements follow.
fn resp_array(out: &mut Vec<u8>, len: usize) {
    let _ = write!(out, "*{len}\r\n");
}

// ---------------------------------------------------------------------
// Command execution.
// ---------------------------------------------------------------------

fn lossy(arg: &[u8]) -> Cow<'_, str> {
    String::from_utf8_lossy(arg)
}

/// A term token: a decimal `u64` is a raw hash, anything else is a word.
fn parse_term(tok: &[u8]) -> u64 {
    decimal_u64(tok).unwrap_or_else(|| term_of(&lossy(tok)))
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

/// Execute one parsed command against the registry, appending its reply.
/// Always answers in-protocol — the caller never closes over an executed
/// command, only over framing violations.
fn execute(registry: &TenantRegistry, args: &[&[u8]], out: &mut Vec<u8>) {
    const VERBS: &str = "PING R.CREATE R.INSERTDOC R.QUERYSEQ R.DROP R.STATS R.LIST";
    let verb = VERBS
        .split(' ')
        .find(|v| args[0].eq_ignore_ascii_case(v.as_bytes()));
    match (verb, args.len()) {
        (Some("PING"), 1) => resp_simple(out, "PONG"),
        (Some("PING"), 2) => resp_bulk(out, args[1]),
        (Some("R.CREATE"), 2..) => cmd_create(registry, args, out),
        (Some("R.INSERTDOC"), 4..) => cmd_insertdoc(registry, args, out),
        (Some("R.QUERYSEQ"), 4..) => cmd_queryseq(registry, args, out),
        (Some("R.DROP"), 2) => resp_integer(out, i64::from(registry.drop_tenant(&lossy(args[1])))),
        (Some("R.STATS"), 1) => resp_bulk(out, registry.summary().as_bytes()),
        (Some("R.STATS"), 2) => match registry.stats(&lossy(args[1])) {
            Ok(stats) => resp_bulk(out, stats.to_string().as_bytes()),
            Err(e) => resp_error(out, e),
        },
        (Some("R.LIST"), 1) => {
            let tenants = registry.list();
            resp_array(out, tenants.len());
            for t in &tenants {
                resp_bulk(out, t.name.as_bytes());
            }
        }
        (Some(verb), _) => resp_error(
            out,
            format_args!(
                "wrong number of arguments for '{}'",
                verb.to_ascii_lowercase()
            ),
        ),
        (None, _) => resp_error(out, format_args!("unknown command '{}'", lossy(args[0]))),
    }
}

fn cmd_create(registry: &TenantRegistry, args: &[&[u8]], out: &mut Vec<u8>) {
    let mut opts = TenantOptions::default();
    for tok in &args[2..] {
        let tok = lossy(tok);
        let (key, value) = tok.split_once('=').unwrap_or((&tok, ""));
        let option = key.to_ascii_lowercase();
        let limit = match option.as_str() {
            "docs" => &mut opts.max_docs,
            "bytes" => &mut opts.max_bytes,
            _ => return resp_error(out, format_args!("unknown option '{key}' for 'r.create'")),
        };
        match value.parse::<usize>() {
            Ok(n) if n > 0 => *limit = Some(n),
            _ => {
                let message = format_args!("invalid value '{value}' for option '{option}'");
                return resp_error(out, message);
            }
        }
    }
    match registry.create(&lossy(args[1]), opts) {
        Ok(()) => resp_simple(out, "OK"),
        Err(e) => resp_error(out, e),
    }
}

fn cmd_insertdoc(registry: &TenantRegistry, args: &[&[u8]], out: &mut Vec<u8>) {
    let terms: Vec<u64> = args[3..].iter().map(|t| parse_term(t)).collect();
    match registry.insert_document(&lossy(args[1]), &lossy(args[2]), &terms) {
        Ok(id) => resp_integer(out, i64::from(id)),
        Err(e) => resp_error(out, e),
    }
}

fn cmd_queryseq(registry: &TenantRegistry, args: &[&[u8]], out: &mut Vec<u8>) {
    let name = lossy(args[1]);
    let theta_tok = lossy(args[2]);
    let theta = match theta_tok.parse::<f64>() {
        Ok(t) if t > 0.0 && t <= 1.0 => t,
        _ => {
            let message = format_args!("invalid theta '{theta_tok}' (want 0 < theta <= 1)");
            return resp_error(out, message);
        }
    };
    let terms: Vec<u64> = args[3..].iter().map(|t| parse_term(t)).collect();
    let docs = match registry.query_theta(&name, &terms, theta, None) {
        Ok(docs) => docs,
        Err(e) => return resp_error(out, e),
    };
    let start = out.len();
    resp_array(out, docs.len());
    if let Err(e) = registry.visit_names(&name, &docs, |n| resp_bulk(out, n.as_bytes())) {
        // The tenant vanished between query and resolve.
        out.truncate(start);
        resp_error(out, e);
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
    fn step(&self, inbuf: &[u8], resume: &mut Resume, out: &mut Vec<u8>) -> Step {
        let (consumed, close) = match next_command(inbuf, resume) {
            Ok(None) => return Step::Incomplete,
            Ok(Some((args, consumed))) => {
                if !args.is_empty() {
                    execute(self.registry, &args, out);
                }
                (consumed, false)
            }
            Err(message) => {
                resp_error(out, message);
                (0, true)
            }
        };
        Step::Request { consumed, close }
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
    use crate::wire::{self, OPCODE_HELLO, OPCODE_STATS};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rambo_core::RamboParams;

    fn registry() -> TenantRegistry {
        TenantRegistry::new(
            RamboParams::flat(8, 3, 1 << 10, 2, 7),
            TenantQuotas::default(),
        )
        .unwrap()
    }

    /// One inline command through the RESP front: its reply.
    fn run(reg: &TenantRegistry, line: &str) -> Vec<u8> {
        let wire = format!("{line}\r\n");
        let mut out = Vec::new();
        let step =
            RespCommands { registry: reg }.step(wire.as_bytes(), &mut Resume::default(), &mut out);
        assert!(
            matches!(step, Step::Request { consumed, close: false } if consumed == wire.len()),
            "inline command must parse: {line}"
        );
        out
    }

    fn parse(buf: &[u8]) -> Result<Option<Command<'_>>, String> {
        next_command(buf, &mut Resume::default())
    }

    #[test]
    fn multibulk_roundtrip_and_fragmentation() {
        let wire = b"*2\r\n$4\r\nPING\r\n$5\r\nhello\r\n";
        // Every strict prefix is incomplete, never an error, whether parsed
        // afresh or resumed from the prefix before it.
        let mut resume = Resume::default();
        for cut in 0..wire.len() {
            assert_eq!(parse(&wire[..cut]), Ok(None), "prefix {cut}");
            assert_eq!(next_command(&wire[..cut], &mut resume), Ok(None));
        }
        let whole = Ok(Some((vec![&b"PING"[..], b"hello"], wire.len())));
        assert_eq!(parse(wire), whole);
        assert_eq!(next_command(wire, &mut resume), whole);
        assert_eq!(resume, Resume::default(), "cleared once taken");
    }

    #[test]
    fn inline_parsing_splits_on_whitespace() {
        let wire = b"  R.CREATE  idx \t docs=5 \r\nrest";
        let (args, consumed) = parse(wire).unwrap().expect("inline must parse");
        assert_eq!(consumed, wire.len() - 4);
        assert_eq!(args, [&b"R.CREATE"[..], b"idx", b"docs=5"]);
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
            assert!(parse(bad).is_err(), "{bad:?} must be a protocol error");
        }
    }

    #[test]
    fn lone_lf_line_terminator_is_rejected() {
        assert!(parse(b"*1\n$4\nPING\n").is_err());
    }

    /// The limits hold at their edges, decided by the bytes whatever their
    /// split: a line is refused once it outgrows its cap without a newline,
    /// and so is a newline that comes too late.
    #[test]
    fn framing_limits_hold_at_their_edges() {
        let too_big_inline = Err("Protocol error: too big inline request".to_owned());
        let line = |len: usize| [vec![b'x'; len], b"\r\n".to_vec()].concat();
        assert!(matches!(parse(&line(MAX_INLINE - 1)), Ok(Some(_))));
        assert_eq!(parse(&line(MAX_INLINE)), too_big_inline);
        assert_eq!(parse(&line(MAX_INLINE)[..MAX_INLINE]), Ok(None));
        assert_eq!(parse(&line(MAX_INLINE)[..MAX_INLINE + 1]), too_big_inline);
        let mbulk = [b"*".to_vec(), vec![b'1'; MAX_INLINE]].concat();
        assert_eq!(parse(&mbulk[..MAX_INLINE]), Ok(None));
        assert_eq!(
            parse(&mbulk),
            Err("Protocol error: too big mbulk count string".to_owned())
        );
        let bulk_len = |digits: usize| format!("*1\r\n${}", "0".repeat(digits)).into_bytes();
        assert_eq!(parse(&bulk_len(31)), Ok(None));
        assert_eq!(
            parse(&bulk_len(32)),
            Err("Protocol error: invalid bulk length".to_owned())
        );
        // Bulks of 1 MiB: refused at the header of the one that would end
        // past 16 MiB, before its payload arrives.
        let header = format!("${MAX_BULK}\r\n");
        let element = [header.as_bytes(), &vec![b'x'; MAX_BULK], b"\r\n"].concat();
        let mut wire = b"*16\r\n".to_vec();
        for _ in 0..15 {
            wire.extend_from_slice(&element);
        }
        assert_eq!(parse(&wire), Ok(None));
        wire.extend_from_slice(header.as_bytes());
        assert_eq!(
            parse(&wire),
            Err("Protocol error: request too large".to_owned())
        );
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

    /// A command trickled in 16 KiB reads (the reactor's read size) is
    /// checked once: every call stops at the start of the element still
    /// arriving and the next one resumes there, so the bytes the calls may
    /// look at (each from its resume point to the end of the input) sum to
    /// under twice the command. Parsing every prefix from its start, as the
    /// parser once did, looks at ~500 times the command in the first case.
    #[test]
    fn a_trickled_command_is_checked_once() {
        const READ: usize = 16 << 10;
        // 2^17 elements of 120 bytes, and 1 021 of 16 KB: ~16 MB each.
        for (count, len) in [(MAX_ARGS, 112), (1021, 16_000)] {
            // `PING` and its count − 1 arguments: answered wrong-arity.
            let head = format!("*{count}\r\n$4\r\nPING\r\n").into_bytes();
            let element = format!("${len}\r\n{}\r\n", "x".repeat(len)).into_bytes();
            let wire = [head.clone(), element.repeat(count - 1)].concat();
            let reg = registry();
            let protocol = RespCommands { registry: &reg };
            let (mut resume, mut out, mut examined) = (Resume::default(), Vec::new(), 0);
            for end in (READ..wire.len()).step_by(READ).chain([wire.len()]) {
                let from = resume.offset;
                examined += end - from;
                match protocol.step(&wire[..end], &mut resume, &mut out) {
                    Step::Incomplete => {
                        let checked = resume.offset - head.len();
                        assert!(resume.offset >= from && checked % element.len() == 0);
                        assert!(end - resume.offset < element.len(), "a whole element left");
                        assert_eq!(resume.items, 2 + checked / element.len());
                    }
                    Step::Request { consumed, close } => {
                        assert_eq!((end, consumed, close), (wire.len(), wire.len(), false));
                    }
                }
            }
            assert_eq!(resume, Resume::default(), "cleared once taken");
            assert_eq!(out, b"-ERR wrong number of arguments for 'ping'\r\n");
            assert!(
                examined <= 2 * wire.len(),
                "{examined} bytes looked at for a {}-byte command",
                wire.len()
            );
        }
    }

    /// Feed `stream` to `protocol` the way a connection receives it: in
    /// pieces ending at `cuts` (ascending), then the rest, each request
    /// taken as soon as its bytes are in. Returns the reply bytes and, if
    /// the protocol closed, the stream offset it closed at.
    fn feed(protocol: &dyn Protocol, stream: &[u8], cuts: &[usize]) -> (Vec<u8>, Option<usize>) {
        let (mut out, mut resume, mut taken) = (Vec::new(), Resume::default(), 0);
        for &end in cuts.iter().chain([&stream.len()]) {
            while let Step::Request { consumed, close } =
                protocol.step(&stream[taken..end], &mut resume, &mut out)
            {
                taken += consumed;
                if close {
                    return (out, Some(taken));
                }
            }
        }
        (out, None)
    }

    /// Cut points after each of `pieces` in turn, cycled over the stream.
    fn cuts(pieces: &[usize], len: usize) -> Vec<usize> {
        let ends = pieces.iter().cycle().scan(0, |at, &p| {
            *at += p;
            Some(*at)
        });
        ends.take_while(|&at| at < len).collect()
    }

    /// `wire_fuzz`'s commands, less `R.STATS`, whose latency figures differ
    /// from run to run.
    const LINES: &[&str] = &[
        "PING",
        "PING hi",
        "R.LIST",
        "R.CREATE fz",
        "R.INSERTDOC fz d0 alpha beta",
        "R.INSERTDOC fz d1 beta",
        "R.QUERYSEQ fz 1.0 alpha",
        "R.QUERYSEQ fz 0.5 alpha beta",
        "R.DROP fz",
    ];

    fn multibulk(args: &[&str], count: usize) -> Vec<u8> {
        let mut wire = format!("*{count}\r\n").into_bytes();
        for a in args {
            wire.extend_from_slice(format!("${}\r\n{a}\r\n", a.len()).as_bytes());
        }
        wire
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The shapes of `wire_fuzz`'s RESP streams (inline and multibulk
        /// commands, garbage, truncations, lying lengths, `*0` and blank
        /// no-ops), plus lying element counts: fed in random pieces, a
        /// stream draws the same reply bytes and closes at the same point as
        /// fed whole.
        #[test]
        fn resp_replies_do_not_depend_on_how_the_stream_is_split(
            ops in vec((0u8..7, any::<u64>(), vec(any::<u8>(), 1..41)), 1..12),
            pieces in vec(1usize..48, 1..8),
        ) {
            let mut stream = Vec::new();
            for (op, r, garbage) in ops {
                let line = LINES[(r % LINES.len() as u64) as usize];
                let args: Vec<&str> = line.split(' ').collect();
                match op {
                    0 => stream.extend_from_slice(format!("{line}\r\n").as_bytes()),
                    1 => stream.extend(multibulk(&args, args.len())),
                    2 => stream.extend(garbage),
                    3 => {
                        let full = format!("{line}\r\n");
                        stream.extend_from_slice(&full.as_bytes()[..1 + r as usize % (full.len() - 1)]);
                    }
                    4 => stream.extend_from_slice(b"*1\r\n$99999999\r\n"),
                    // More elements promised than sent: the next command's
                    // bytes are read as elements.
                    5 => stream.extend(multibulk(&args, args.len() + 1 + (r % 3) as usize)),
                    _ => stream.extend_from_slice(b"\r\n*0\r\n*-1\r\n"),
                }
            }
            let (whole_reg, split_reg) = (registry(), registry());
            let whole = feed(&RespCommands { registry: &whole_reg }, &stream, &[]);
            let split = feed(&RespCommands { registry: &split_reg }, &stream, &cuts(&pieces, stream.len()));
            prop_assert_eq!(split, whole);
        }

        /// The same over binary frames (`frame_step`, through the tenant
        /// front): fuzzed payloads, oversized and `u32::MAX` lengths,
        /// truncated frames, and well-formed queries, inserts and `HELLO`s.
        #[test]
        fn frame_replies_do_not_depend_on_how_the_stream_is_split(
            ops in vec((0u8..7, any::<u64>(), vec(any::<u8>(), 1..25)), 1..8),
            pieces in vec(1usize..32, 1..8),
        ) {
            let mut stream = Vec::new();
            for (op, r, mut garbage) in ops {
                match op {
                    0 => {
                        // A bare STATS frame reports latencies, which differ
                        // from run to run.
                        if garbage == [OPCODE_STATS] {
                            garbage.push(0);
                        }
                        stream.extend(wire::frame(&garbage));
                    }
                    1 => stream.extend_from_slice(&((17 << 20) + (r as u32 % 1000)).to_le_bytes()),
                    2 => stream.extend_from_slice(&u32::MAX.to_le_bytes()),
                    3 => {
                        stream.extend_from_slice(&64u32.to_le_bytes());
                        stream.extend(&garbage[..garbage.len() % 8]);
                    }
                    4 => stream.extend(wire::encode_query_request(&[r % 4], 0.0, wire::DEFAULT_DEADLINE)),
                    5 => stream.extend(wire::encode_mutate_request(&format!("d{}", r % 4), &[r % 4])),
                    _ => stream.extend(wire::frame(&[OPCODE_HELLO])),
                }
            }
            let options = TenantServeOptions {
                manifest: Some(b"node".to_vec()),
                binary_tenant: Some("fz".into()),
            };
            let run = |cuts: &[usize]| {
                let registry = registry();
                registry.create("fz", TenantOptions::default()).unwrap();
                feed(&TenantFrames { registry: &registry, options: &options }, &stream, cuts)
            };
            prop_assert_eq!(run(&cuts(&pieces, stream.len())), run(&[]));
        }
    }
}
