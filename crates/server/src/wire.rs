//! The binary frame format: the one codec every front and client in the
//! workspace speaks (catalog front, tenant binary front, [`crate::TcpClient`],
//! `rambo-cluster`'s scatter, front and client, the tests' fault proxy);
//! buffered input is split into frames by [`split_frame`] alone. Response
//! encoders append to the caller's buffer (a front's is its connection's
//! output); request encoders, for clients, return the frame.
//!
//! All integers little-endian; `len` counts the bytes after the length field:
//!
//! ```text
//! request  := u32 len | u8 opcode(=1) | 3 × u8 reserved(=0)
//!             | f64 fpr_budget | u32 deadline_ms(0=1s)
//!             | u32 n_terms | n_terms × u64
//! response := u32 len | u8 status | u32 tier | u32 n_docs | n_docs × u32
//! status   := 0 ok | 2 deadline exceeded | 3 bad request
//!
//! stats-request  := u32 len(=1) | u8 opcode(=2)
//! stats-response := u32 len | u8 status(=0) | utf8 text
//!
//! hello-request  := u32 len(=1) | u8 opcode(=3)
//! hello-response := u32 len | u8 status(=0) | manifest bytes
//!                 | u32 len(=1) | u8 status(=3)              (no manifest)
//!
//! mutate-request  := u32 len | u8 opcode(=4) | 3 × u8 reserved(=0)
//!                    | u32 name_len | name utf8 | u32 n_terms | n_terms × u64
//! mutate-response := u32 len | u8 status(=0) | u32 doc_id | u64 reserved(=0)
//!                  | u32 len | u8 status(=5) | utf8 reason   (rejected)
//! ```
//!
//! One connection carries any number of request/response pairs in order.
//! A frame that fails to parse may have desynchronized the stream, so every
//! front answers it with the bad-request status and closes; a well-formed
//! request the server merely cannot serve (no manifest, no bound tenant, a
//! refused insert) is answered in-protocol and the connection stays open.
//! Status 4 is the `rambo-cluster` degraded-response extension. Status 1 is
//! reserved: no server sends it, and a client decodes it as an unknown
//! status. A request with a non-zero reserved byte is malformed.

use crate::server::{QueryOptions, QueryReply, ServerError};
use crate::tcp::TcpClientError;
use std::io::{self, Read};
use std::time::Duration;

/// Upper bound on a frame payload (16 MiB ≈ two million query terms): a
/// corrupt or hostile length prefix must not become an allocation.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Query request opcode.
pub const OPCODE_QUERY: u8 = 1;
/// Plain-text stats dump opcode.
pub const OPCODE_STATS: u8 = 2;
/// Node manifest opcode.
pub const OPCODE_HELLO: u8 = 3;
/// Live-insert opcode, served by the tenant binary front; the read-only
/// catalog front answers it with the bad-request status.
pub const OPCODE_MUTATE: u8 = 4;

/// Response status: success.
pub const STATUS_OK: u8 = 0;
/// Response status: deadline exceeded.
pub const STATUS_DEADLINE: u8 = 2;
/// Response status: malformed or unanswerable request.
pub const STATUS_BAD_REQUEST: u8 = 3;
/// Response status: a well-formed mutate the index refused (duplicate name,
/// quota). Unlike [`STATUS_BAD_REQUEST`] the stream is not desynchronized,
/// so the connection stays open.
pub const STATUS_MUTATE_REJECTED: u8 = 5;

/// The deadline a `0` on the wire stands for.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(1);

/// Decode `n_terms` little-endian `u64`s that must fill `body` exactly.
fn parse_terms(body: &[u8], n_terms: usize) -> Option<Vec<u64>> {
    if body.len() != n_terms.checked_mul(8)? {
        return None;
    }
    Some(
        body.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect(),
    )
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    let field = bytes.get(at..at.checked_add(4)?)?;
    Some(u32::from_le_bytes(field.try_into().expect("4 bytes")))
}

/// Decode a query request payload (everything after the length prefix) into
/// terms and options. `None` for other opcodes and malformed frames.
#[must_use]
pub fn parse_request(payload: &[u8]) -> Option<(Vec<u64>, QueryOptions)> {
    if payload.len() < 20 || payload[..4] != [OPCODE_QUERY, 0, 0, 0] {
        return None;
    }
    let fpr_budget = f64::from_le_bytes(payload[4..12].try_into().ok()?);
    if !(0.0..=1.0).contains(&fpr_budget) {
        return None;
    }
    let deadline_ms = u32_at(payload, 12)?;
    let terms = parse_terms(&payload[20..], u32_at(payload, 16)? as usize)?;
    let opts = QueryOptions {
        fpr_budget,
        deadline: if deadline_ms == 0 {
            DEFAULT_DEADLINE
        } else {
            Duration::from_millis(u64::from(deadline_ms))
        },
        tier: None,
    };
    Some((terms, opts))
}

/// Decode a mutate payload into a document name and its terms.
#[must_use]
pub fn parse_mutate(payload: &[u8]) -> Option<(String, Vec<u64>)> {
    if payload.len() < 12 || payload[..4] != [OPCODE_MUTATE, 0, 0, 0] {
        return None;
    }
    let name_end = 8usize.checked_add(u32_at(payload, 4)? as usize)?;
    let name = std::str::from_utf8(payload.get(8..name_end)?).ok()?;
    if name.is_empty() {
        return None;
    }
    let n_terms = u32_at(payload, name_end)? as usize;
    let terms = parse_terms(&payload[name_end + 4..], n_terms)?;
    Some((name.to_owned(), terms))
}

/// Prefix `payload` with its length: one frame as it travels.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Append a status byte followed by opaque bytes: the `STATS` text, the
/// `HELLO` manifest, a mutate rejection's reason, or (empty) a bare status.
pub fn encode_blob(out: &mut Vec<u8>, status: u8, bytes: &[u8]) {
    out.extend_from_slice(&(1 + bytes.len() as u32).to_le_bytes());
    out.push(status);
    out.extend_from_slice(bytes);
}

/// Append one query response frame.
pub fn encode_response(out: &mut Vec<u8>, status: u8, tier: u32, docs: &[u32]) {
    let len = 1 + 4 + 4 + docs.len() * 4;
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(status);
    out.extend_from_slice(&tier.to_le_bytes());
    out.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for &d in docs {
        out.extend_from_slice(&d.to_le_bytes());
    }
}

/// Append a query outcome's frame; returns true when the connection must
/// close after it (the request could not be answered at all, so the stream
/// is not to be trusted).
pub(crate) fn encode_query_result(
    out: &mut Vec<u8>,
    result: Result<QueryReply, ServerError>,
) -> bool {
    match result {
        Ok(QueryReply { docs, tier }) => encode_response(out, STATUS_OK, tier as u32, &docs),
        Err(ServerError::DeadlineExceeded { tier }) => {
            encode_response(out, STATUS_DEADLINE, tier as u32, &[]);
        }
        Err(ServerError::UnknownTier(_)) => {
            encode_response(out, STATUS_BAD_REQUEST, 0, &[]);
            return true;
        }
    }
    false
}

/// Append a successful mutate response: the document id, then the 8-byte
/// reserved slot, written 0.
pub(crate) fn encode_mutate_ok(out: &mut Vec<u8>, doc_id: u32) {
    let mut body = [0u8; 12];
    body[..4].copy_from_slice(&doc_id.to_le_bytes());
    encode_blob(out, STATUS_OK, &body);
}

fn push_terms(out: &mut Vec<u8>, terms: &[u64]) {
    out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for &t in terms {
        out.extend_from_slice(&t.to_le_bytes());
    }
}

/// Encode a query request frame (length prefix included).
#[must_use]
pub fn encode_query_request(terms: &[u64], fpr_budget: f64, deadline: Duration) -> Vec<u8> {
    let deadline_ms = u32::try_from(deadline.as_millis().max(1)).unwrap_or(u32::MAX);
    let len = 20 + terms.len() * 8;
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[OPCODE_QUERY, 0, 0, 0]);
    out.extend_from_slice(&fpr_budget.to_le_bytes());
    out.extend_from_slice(&deadline_ms.to_le_bytes());
    push_terms(&mut out, terms);
    out
}

/// Encode a mutate request frame (length prefix included).
#[must_use]
pub fn encode_mutate_request(name: &str, terms: &[u64]) -> Vec<u8> {
    let len = 4 + 4 + name.len() + 4 + terms.len() * 8;
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[OPCODE_MUTATE, 0, 0, 0]);
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    push_terms(&mut out, terms);
    out
}

/// A decoded query response: the standard layout, plus whatever follows the
/// document list (`rambo-cluster`'s degraded extension puts the unreachable
/// shard ids there; empty in the standard layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response<'a> {
    /// Response status byte.
    pub status: u8,
    /// Tier the answer came from.
    pub tier: u32,
    /// Matching document ids.
    pub docs: Vec<u32>,
    /// Bytes after the document list.
    pub tail: &'a [u8],
}

/// Decode a query response payload (everything after the length prefix).
///
/// # Errors
/// A human-readable description of the malformation.
pub fn parse_response(payload: &[u8]) -> Result<Response<'_>, String> {
    let (Some(tier), Some(n_docs)) = (u32_at(payload, 1), u32_at(payload, 5)) else {
        return Err(format!("response payload too short: {}", payload.len()));
    };
    let docs_end = (n_docs as usize)
        .checked_mul(4)
        .and_then(|b| b.checked_add(9))
        .ok_or("document count overflows the frame")?;
    let docs = payload
        .get(9..docs_end)
        .ok_or("response truncated inside the document list")?
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
        .collect();
    Ok(Response {
        status: payload[0],
        tier,
        docs,
        tail: &payload[docs_end..],
    })
}

/// Decode a query response payload into what [`crate::TcpClient::query`]
/// returns: the reply, or the deadline rejection.
///
/// # Errors
/// [`TcpClientError::Server`] for a deadline rejection,
/// [`TcpClientError::Protocol`] for a malformed frame or any other status.
pub fn query_reply(payload: &[u8]) -> Result<QueryReply, TcpClientError> {
    let reply = parse_response(payload).map_err(TcpClientError::Protocol)?;
    let tier = reply.tier as usize;
    match reply.status {
        STATUS_OK if reply.tail.is_empty() => Ok(QueryReply {
            docs: reply.docs,
            tier,
        }),
        STATUS_OK => Err(TcpClientError::Protocol(
            "response length disagrees with document count".into(),
        )),
        STATUS_DEADLINE => Err(TcpClientError::Server(ServerError::DeadlineExceeded {
            tier,
        })),
        STATUS_BAD_REQUEST => Err(TcpClientError::Protocol(
            "server reported a bad request".into(),
        )),
        other => Err(TcpClientError::Protocol(format!(
            "unknown response status {other}"
        ))),
    }
}

/// Split the first length-prefixed frame off buffered input: its payload
/// (the frame is `4 + payload.len()` bytes long), or `None` until the whole
/// frame has arrived.
///
/// # Errors
/// `InvalidData` for a length above [`MAX_FRAME_BYTES`], decided from the
/// prefix alone so an oversized frame is refused without waiting for it.
pub fn split_frame(buf: &[u8]) -> io::Result<Option<&[u8]>> {
    let Some(prefix) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too long"));
    }
    Ok(buf.get(4..4 + len))
}

/// Read one length-prefixed frame payload from a blocking stream. Returns
/// `Ok(None)` on clean EOF *before* any length byte (the peer hung up
/// between frames); mid-frame EOF and empty or oversized lengths are errors.
///
/// # Errors
/// Transport errors, including `WouldBlock`/`TimedOut` from a socket read
/// timeout the caller set.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    loop {
        match stream.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(1..=MAX_FRAME_BYTES).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_roundtrip() {
        let terms = [1, 2, 3, u64::MAX];
        let frame = encode_query_request(&terms, 0.05, Duration::from_millis(250));
        let (got, opts) = parse_request(&frame[4..]).expect("parse");
        assert_eq!(got, terms);
        assert_eq!(opts.fpr_budget, 0.05);
        assert_eq!(opts.deadline, Duration::from_millis(250));
    }

    #[test]
    fn mutate_request_roundtrip() {
        let frame = encode_mutate_request("doc-7", &[9, 8]);
        assert_eq!(
            parse_mutate(&frame[4..]),
            Some(("doc-7".to_owned(), vec![9, 8]))
        );
    }

    #[test]
    fn standard_response_roundtrip() {
        let mut frame = Vec::new();
        encode_response(&mut frame, STATUS_OK, 1, &[7, 8]);
        let parsed = parse_response(&frame[4..]).expect("parse");
        assert_eq!((parsed.status, parsed.tier), (STATUS_OK, 1));
        assert_eq!(parsed.docs, vec![7, 8]);
        assert!(parsed.tail.is_empty());
    }

    #[test]
    fn rejects_truncated_responses_and_exposes_trailing_bytes() {
        let mut frame = Vec::new();
        encode_response(&mut frame, STATUS_OK, 0, &[1, 2]);
        for cut in 4..frame.len() - 1 {
            assert!(parse_response(&frame[4..cut]).is_err(), "cut at {cut}");
        }
        let mut trailing = frame[4..].to_vec();
        trailing.push(0);
        assert_eq!(parse_response(&trailing).expect("parse").tail, [0]);
    }

    #[test]
    fn rejects_malformed_requests() {
        let good = encode_query_request(&[1], 0.0, Duration::from_millis(100));
        let payload = &good[4..];
        assert!(parse_request(payload).is_some());
        assert!(parse_request(&payload[..payload.len() - 1]).is_none());
        let mut bad_opcode = payload.to_vec();
        bad_opcode[0] = 9;
        assert!(parse_request(&bad_opcode).is_none());
        // Byte 1 is reserved: 1 and 2 are malformed like any other
        // non-zero value.
        for byte in [1, 2] {
            let mut reserved = payload.to_vec();
            reserved[1] = byte;
            assert!(parse_request(&reserved).is_none(), "byte 1 = {byte}");
        }
        let mut bad_fpr = payload.to_vec();
        bad_fpr[4..12].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(parse_request(&bad_fpr).is_none());
    }

    #[test]
    fn lying_counts_are_rejected_not_overflowed() {
        // A term count (query) and a name length (mutate) of u32::MAX must
        // fail the length check, not wrap around it.
        let mut query = encode_query_request(&[1], 0.0, DEFAULT_DEADLINE)[4..].to_vec();
        query[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_request(&query).is_none());
        let mut mutate = encode_mutate_request("d", &[1])[4..].to_vec();
        mutate[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(parse_mutate(&mutate).is_none());
        mutate[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(parse_mutate(&mutate).is_none(), "empty name");
    }

    #[test]
    fn read_frame_tells_clean_eof_from_a_torn_frame() {
        let mut wire = Vec::new();
        encode_blob(&mut wire, STATUS_OK, b"hello");
        let mut two = wire.clone();
        two.extend_from_slice(&wire);
        let mut stream = &two[..];
        assert_eq!(read_frame(&mut stream).unwrap().unwrap(), wire[4..]);
        assert_eq!(read_frame(&mut stream).unwrap().unwrap(), wire[4..]);
        assert!(read_frame(&mut stream).unwrap().is_none(), "clean EOF");
        for cut in 1..wire.len() {
            let err = read_frame(&mut &wire[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
        for len in [0u32, MAX_FRAME_BYTES as u32 + 1, u32::MAX] {
            let err = read_frame(&mut &len.to_le_bytes()[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {len}");
        }
    }
}
