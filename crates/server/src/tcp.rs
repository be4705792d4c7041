//! The binary-frame fronts — a read-only [`Catalog`](crate::Catalog) behind
//! a [`ServerHandle`], and one tenant of a [`TenantRegistry`] — plus
//! [`TcpClient`], the matching blocking client. The frame format lives in
//! [`crate::wire`]; the serving loop in `reactor.rs`.
//!
//! The catalog front answers queries through the same [`ServerHandle`] the
//! in-process API uses (on the reactor thread, during the dispatch call
//! itself), dumps the live [`crate::ServerStats`] as plain text for `STATS` —
//! `printf`-debuggable with `nc` — and answers `HELLO` with the opaque node
//! manifest registered via [`ServeOptions`] (a cluster shard announces its
//! shard id, replica id, doc-id range and catalog fingerprint this way).
//! The tenant front answers every request the moment it decodes: binary
//! `QUERY`/`MUTATE` frames carry no tenant name, so they go to the configured
//! [`TenantServeOptions::binary_tenant`], and `STATS` dumps the registry
//! summary.

use crate::reactor::{Protocol, Reactor, Resume, Step};
use crate::resp::TenantServeOptions;
use crate::server::{QueryReply, ServerError, ServerHandle};
use crate::tenant::TenantRegistry;
use crate::wire::{
    self, encode_blob, encode_mutate_ok, encode_response, parse_mutate, parse_request,
    OPCODE_HELLO, OPCODE_MUTATE, OPCODE_STATS, STATUS_BAD_REQUEST, STATUS_MUTATE_REJECTED,
    STATUS_OK,
};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// Optional behaviors of the catalog front ([`serve_tcp_with`]).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Opaque manifest bytes returned to `HELLO` requests. A cluster shard
    /// node announces its identity (shard id, replica id, doc-id range,
    /// catalog fingerprint — see the `rambo-cluster` crate's
    /// `NodeManifest`) this way; `None` answers `HELLO` with the
    /// bad-request status.
    pub manifest: Option<Vec<u8>>,
}

/// Serve the handle over TCP until `stop` is set, multiplexing every
/// connection on the calling thread (see `reactor.rs` for the loop).
/// Returns after the stop flag is observed; all connections — idle,
/// mid-frame, or stalled — are dropped at that point, so a dead client can
/// never block shutdown.
///
/// # Errors
/// Propagates listener configuration errors and fatal accept failures (the
/// latter also raise `stop`, so a co-running in-process workload winds down
/// instead of serving a listener-less process forever); per-connection I/O
/// errors only end that connection.
pub fn serve_tcp(
    handle: &ServerHandle<'_>,
    listener: TcpListener,
    stop: &AtomicBool,
) -> io::Result<()> {
    serve_tcp_with(handle, listener, stop, &ServeOptions::default())
}

/// [`serve_tcp`] with front options — currently the `HELLO` manifest a
/// cluster shard node registers so a coordinator can discover its identity.
///
/// # Errors
/// See [`serve_tcp`].
pub fn serve_tcp_with(
    handle: &ServerHandle<'_>,
    listener: TcpListener,
    stop: &AtomicBool,
    options: &ServeOptions,
) -> io::Result<()> {
    let manifest = options.manifest.as_deref();
    Reactor::new(&[(listener, &CatalogFrames { handle, manifest })])?.run(stop)
}

/// Take one length-prefixed frame off `inbuf` and answer its payload with
/// `dispatch`, which appends the reply to `out` and returns whether to close
/// after it. A length above the ceiling is answered bad-request and closed
/// without waiting for its bytes.
fn frame_step(
    inbuf: &[u8],
    out: &mut Vec<u8>,
    dispatch: impl FnOnce(&[u8], &mut Vec<u8>) -> bool,
) -> Step {
    let (consumed, close) = match wire::split_frame(inbuf) {
        Ok(None) => return Step::Incomplete,
        Ok(Some(payload)) => (4 + payload.len(), dispatch(payload, out)),
        Err(_) => (0, bad_request(out)),
    };
    Step::Request { consumed, close }
}

/// A frame that fails to parse may have desynchronized the stream; answer
/// and close rather than guess at recovery.
fn bad_request(out: &mut Vec<u8>) -> bool {
    encode_response(out, STATUS_BAD_REQUEST, 0, &[]);
    true
}

/// `HELLO`: the manifest, or — a well-formed request this server merely
/// cannot serve, so the connection stays open — a bare bad-request status.
fn hello(out: &mut Vec<u8>, manifest: Option<&[u8]>) -> bool {
    match manifest {
        Some(manifest) => encode_blob(out, STATUS_OK, manifest),
        None => encode_blob(out, STATUS_BAD_REQUEST, &[]),
    }
    false
}

/// Binary frames over a read-only catalog server.
struct CatalogFrames<'a, 'scope> {
    handle: &'a ServerHandle<'scope>,
    manifest: Option<&'a [u8]>,
}

impl Protocol for CatalogFrames<'_, '_> {
    fn step(&self, inbuf: &[u8], _: &mut Resume, out: &mut Vec<u8>) -> Step {
        frame_step(inbuf, out, |payload, out| match payload {
            [OPCODE_STATS] => {
                encode_blob(out, STATUS_OK, self.handle.stats().to_string().as_bytes());
                false
            }
            [OPCODE_HELLO] => hello(out, self.manifest),
            _ => match parse_request(payload) {
                None => bad_request(out),
                Some((terms, opts)) => {
                    wire::encode_query_result(out, self.handle.query_opts(&terms, &opts))
                }
            },
        })
    }
}

/// Binary frames over one tenant of a registry.
pub(crate) struct TenantFrames<'a> {
    pub(crate) registry: &'a TenantRegistry,
    pub(crate) options: &'a TenantServeOptions,
}

impl Protocol for TenantFrames<'_> {
    fn step(&self, inbuf: &[u8], _: &mut Resume, out: &mut Vec<u8>) -> Step {
        let tenant = self.options.binary_tenant.as_deref();
        frame_step(inbuf, out, |payload, out| {
            match payload {
                [OPCODE_STATS] => encode_blob(out, STATUS_OK, self.registry.summary().as_bytes()),
                [OPCODE_HELLO] => return hello(out, self.options.manifest.as_deref()),
                [OPCODE_MUTATE, ..] => {
                    let Some((name, terms)) = parse_mutate(payload) else {
                        return bad_request(out);
                    };
                    // Every registry refusal — duplicate, quota, no tenant
                    // bound or the tenant having been dropped mid-session —
                    // is a clean in-protocol rejection; the stream stays
                    // intact.
                    match tenant.map(|t| self.registry.insert_document(t, &name, &terms)) {
                        None => encode_blob(
                            out,
                            STATUS_MUTATE_REJECTED,
                            b"no tenant bound to the binary front",
                        ),
                        Some(Ok(id)) => encode_mutate_ok(out, id),
                        Some(Err(e)) => {
                            encode_blob(out, STATUS_MUTATE_REJECTED, e.to_string().as_bytes());
                        }
                    }
                }
                _ => {
                    let Some((terms, _)) = parse_request(payload) else {
                        return bad_request(out);
                    };
                    // A well-formed query with no tenant bound (or dropped)
                    // is answered bad-request but keeps the connection open,
                    // like HELLO on a manifest-less server. A tenant has no
                    // fold tiers; report tier 0.
                    match tenant.and_then(|t| self.registry.query(t, &terms, None).ok()) {
                        None => encode_response(out, STATUS_BAD_REQUEST, 0, &[]),
                        Some(docs) => encode_response(out, STATUS_OK, 0, &docs),
                    }
                }
            }
            false
        })
    }
}

/// Client-side error for [`TcpClient`].
#[derive(Debug)]
pub enum TcpClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered with a non-OK status.
    Server(ServerError),
    /// A well-formed mutate the server's index refused (duplicate document
    /// name, exhausted id space). The connection remains usable.
    Rejected(String),
    /// The server sent a malformed or unknown frame.
    Protocol(String),
}

impl std::fmt::Display for TcpClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport error: {e}"),
            Self::Server(e) => write!(f, "server rejected the query: {e}"),
            Self::Rejected(msg) => write!(f, "server rejected the mutation: {msg}"),
            Self::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for TcpClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Server(e) => Some(e),
            Self::Rejected(_) | Self::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for TcpClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Minimal blocking client for the wire protocol (one in-flight query per
/// connection; open several clients for concurrency).
///
/// A dead peer cannot block a caller indefinitely: connect, read and write
/// are bounded by [`TcpClient::connect_with_timeout`] and
/// [`TcpClient::set_io_timeout`]. After a timed-out exchange the stream may
/// hold a stale half-frame, so the client is dropped and a fresh one dialed
/// — what a cluster coordinator's per-shard connection pools do.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connect to a serving endpoint with the OS default connect timeout
    /// and blocking (unbounded) reads and writes.
    ///
    /// # Errors
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Connect with an upper bound on connection establishment (tried
    /// against each resolved address in turn) — an unreachable or
    /// black-holed peer fails within `timeout` per address instead of
    /// hanging in the kernel's default SYN retry schedule.
    ///
    /// # Errors
    /// Propagates resolution failures and the last address's connect error.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Self { stream });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    /// Bound every read and write on the connection: a peer that accepts a
    /// request but never answers (or stops draining its socket) turns into
    /// a timed-out [`TcpClientError::Io`] instead of blocking the caller
    /// forever. `None` restores unbounded blocking I/O.
    ///
    /// # Errors
    /// Propagates the socket option errors (`Some(Duration::ZERO)` is
    /// rejected by the standard library).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// The connection itself, timeouts as set (a coordinator pools it).
    pub fn into_inner(self) -> TcpStream {
        self.stream
    }

    /// Fetch the server's `HELLO` manifest (the opaque bytes registered via
    /// [`ServeOptions::manifest`] — a cluster shard's identity announcement).
    ///
    /// # Errors
    /// [`TcpClientError::Protocol`] when the server has no manifest,
    /// [`TcpClientError::Io`] on transport failures.
    pub fn hello(&mut self) -> Result<Vec<u8>, TcpClientError> {
        let payload = self.exchange(&wire::frame(&[OPCODE_HELLO]))?;
        if payload[0] != STATUS_OK {
            return Err(TcpClientError::Protocol(
                "server has no HELLO manifest".into(),
            ));
        }
        Ok(payload[1..].to_vec())
    }

    /// Query with an FPR budget and a deadline.
    ///
    /// # Errors
    /// [`TcpClientError::Server`] for a deadline rejection,
    /// [`TcpClientError::Io`]/[`TcpClientError::Protocol`] on transport or
    /// framing failures.
    pub fn query(
        &mut self,
        terms: &[u64],
        fpr_budget: f64,
        deadline: Duration,
    ) -> Result<QueryReply, TcpClientError> {
        let request = wire::encode_query_request(terms, fpr_budget, deadline);
        wire::query_reply(&self.exchange(&request)?)
    }

    /// Insert a document with its term set into the tenant a
    /// [`crate::serve_tenant_tcp`] binary front is bound to; the read-only
    /// catalog front answers the mutate opcode with the bad-request status.
    /// Returns the issued document id; the reply's trailing 8-byte slot is
    /// reserved (see [`crate::wire`]).
    ///
    /// # Errors
    /// [`TcpClientError::Rejected`] when the index refuses (duplicate name,
    /// quota — the connection stays open), [`TcpClientError::Io`] /
    /// [`TcpClientError::Protocol`] on transport or framing failures.
    pub fn insert_document(&mut self, name: &str, terms: &[u64]) -> Result<u32, TcpClientError> {
        let payload = self.exchange(&wire::encode_mutate_request(name, terms))?;
        match payload[0] {
            STATUS_OK if payload.len() == 13 => Ok(u32::from_le_bytes(
                payload[1..5].try_into().expect("4 bytes"),
            )),
            STATUS_OK => Err(TcpClientError::Protocol(
                "mutate response length disagrees with layout".into(),
            )),
            STATUS_MUTATE_REJECTED => Err(TcpClientError::Rejected(
                String::from_utf8_lossy(&payload[1..]).into_owned(),
            )),
            STATUS_BAD_REQUEST => Err(TcpClientError::Protocol(
                "server does not accept mutations".into(),
            )),
            other => Err(TcpClientError::Protocol(format!(
                "unknown response status {other}"
            ))),
        }
    }

    /// Send one raw, pre-framed request (length prefix included) and read
    /// back one response frame's payload (never empty). This is the
    /// extension point for protocol-extending wrappers — the cluster client
    /// uses it to speak the degraded-response extension over a plain
    /// [`TcpClient`].
    ///
    /// # Errors
    /// [`TcpClientError::Io`] on transport failures — a peer that hangs up
    /// instead of answering included — and on a response length out of range.
    pub fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, TcpClientError> {
        self.stream.write_all(frame)?;
        wire::read_frame(&mut self.stream)?
            .ok_or_else(|| TcpClientError::Io(io::ErrorKind::UnexpectedEof.into()))
    }

    /// Fetch the server's plain-text stats dump (the `STATS` opcode): tier
    /// counters, result-cache counters and the slow-query log.
    ///
    /// # Errors
    /// [`TcpClientError::Io`]/[`TcpClientError::Protocol`] on transport or
    /// framing failures.
    pub fn stats(&mut self) -> Result<String, TcpClientError> {
        let payload = self.exchange(&wire::frame(&[OPCODE_STATS]))?;
        if payload[0] != STATUS_OK {
            return Err(TcpClientError::Protocol(
                "server rejected the stats request".into(),
            ));
        }
        String::from_utf8(payload[1..].to_vec())
            .map_err(|_| TcpClientError::Protocol("stats dump is not UTF-8".into()))
    }
}
