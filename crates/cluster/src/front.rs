//! The coordinator's client-facing TCP front.
//!
//! Speaks the same length-prefixed protocol as a single `rambo-server`
//! node ([`rambo_server::wire`]), so existing clients point at the
//! coordinator unchanged; the one extension is the degraded status (see
//! [`crate::wire`]). Unlike the shard nodes' readiness reactor, the front is
//! a plain thread-per-connection loop inside a [`std::thread::scope`] — a
//! coordinator query blocks its connection thread on the scatter anyway,
//! and the scoped spawn keeps shutdown structural: `serve_cluster` returns
//! only after every connection thread has observed `stop` and exited. The
//! accept loop blocks in `poll(2)` on the listener, and each connection
//! splits its buffered input with the reactor's [`wire::split_frame`], so a
//! frame that arrives in pieces across idle ticks is still answered.

use crate::coordinator::{ClusterError, Coordinator};
use crate::wire::encode_degraded_response;
use rambo_server::poll::{self, PollFd, POLLIN};
use rambo_server::wire::{
    self, encode_blob, encode_response, OPCODE_HELLO, OPCODE_STATS, STATUS_BAD_REQUEST,
    STATUS_DEADLINE, STATUS_OK,
};
use rambo_server::ServerError;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often an idle connection (or the accept loop) re-checks `stop`.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Serve the coordinator over TCP until `stop` is set. One thread per
/// connection; the accept wait and socket reads are bounded by
/// `POLL_INTERVAL` so every thread notices `stop` promptly, and the scoped
/// spawn joins them all before returning.
///
/// # Errors
/// Listener configuration errors and fatal accept or `poll` failures.
pub fn serve_cluster(
    coordinator: &Coordinator,
    listener: TcpListener,
    stop: &AtomicBool,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    scope.spawn(move || serve_connection(coordinator, stream, stop));
                }
                Err(e) if e.kind() == WouldBlock => {
                    let mut fds = [PollFd::new(&listener, POLLIN)];
                    poll::wait(&mut fds, POLL_INTERVAL)
                        .inspect_err(|_| stop.store(true, Ordering::Relaxed))?;
                }
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
        Ok(())
    })
}

/// Drive one connection until EOF, a protocol error, or `stop`. Input is
/// buffered until a whole frame is in, however many reads it takes.
fn serve_connection(coordinator: &Coordinator, mut stream: TcpStream, stop: &AtomicBool) {
    if stream.set_nodelay(true).is_err() || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let (mut inbuf, mut chunk) = (Vec::new(), [0u8; 4096]);
    while !stop.load(Ordering::Relaxed) {
        let (consumed, frame) = match wire::split_frame(&inbuf) {
            Ok(Some(payload)) => (4 + payload.len(), answer(coordinator, payload)),
            Ok(None) => {
                match stream.read(&mut chunk) {
                    Ok(0) => return, // EOF
                    Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                    // An idle tick: re-check stop, keep the partial frame.
                    Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
                    Err(_) => return,
                }
                continue;
            }
            Err(_) => (0, None), // oversized length
        };
        inbuf.drain(..consumed);
        let close_after = frame.is_none();
        let frame = frame.unwrap_or_else(|| encode_response(STATUS_BAD_REQUEST, 0, &[]));
        if stream.write_all(&frame).is_err() {
            return;
        }
        if close_after {
            return; // a malformed frame may have desynchronized the stream
        }
    }
}

/// Answer one request frame; `None` means "bad request, then hang up".
fn answer(coordinator: &Coordinator, payload: &[u8]) -> Option<Vec<u8>> {
    match payload {
        [OPCODE_STATS] => {
            return Some(encode_blob(
                STATUS_OK,
                coordinator.stats().to_string().as_bytes(),
            ))
        }
        // The coordinator is not a shard; like a manifest-less server it
        // answers HELLO with bad-request but keeps the connection open.
        [OPCODE_HELLO] => return Some(encode_blob(STATUS_BAD_REQUEST, &[])),
        _ => {}
    }
    let (terms, opts) = wire::parse_request(payload)?;
    let reply = coordinator.query(&terms, opts.fpr_budget, opts.deadline);
    Some(match reply {
        Ok(r) if r.degraded.is_empty() => encode_response(STATUS_OK, r.tier as u32, &r.docs),
        Ok(r) => encode_degraded_response(r.tier as u32, &r.docs, &r.degraded),
        Err(ClusterError::Shard {
            error: ServerError::DeadlineExceeded { tier },
            ..
        }) => encode_response(STATUS_DEADLINE, tier as u32, &[]),
        Err(_) => encode_response(STATUS_BAD_REQUEST, 0, &[]),
    })
}
