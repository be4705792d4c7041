//! The one serving loop: a single-threaded **polling reactor** that every
//! TCP front in this crate runs on.
//!
//! Each listener is paired with a [`Protocol`]; every socket is
//! non-blocking, and one thread multiplexes accepts, reads, request decode
//! and dispatch (through the protocol), reply polling
//! ([`PendingReply::try_wait`]) and writes across all connections. Thousands
//! of idle clients cost a few hundred bytes of buffer each, not a pinned
//! thread, and replies on one connection always flow in request order. When
//! `stop` is raised the loop returns promptly, dropping every connection —
//! including ones stalled mid-request, which therefore cannot block shutdown.
//!
//! It is *polling*, not readiness-driven: a turn in which nothing moved ends
//! in a nap — [`REACTOR_BUSY_SLEEP`] while any reply is still owed,
//! [`REACTOR_IDLE_SLEEP`] otherwise — unless a protocol's [`Protocol::idle`]
//! hook found background work to do instead. The idle nap is most of an idle
//! connection's round trip (`server.tcp.idle_wait_us` in the benchmark);
//! replacing both naps with blocking readiness and moving evaluation onto
//! the workers is ROADMAP's first open item, and this function is the one
//! place that change edits.
//!
//! Backpressure is by unread socket: a connection with [`MAX_PIPELINED`]
//! replies outstanding, or more than [`MAX_UNFLUSHED`] reply bytes its peer
//! has not taken, is neither read nor decoded until it drains, so a client
//! that pipelines without reading fills its own TCP window instead of this
//! process's memory.

use crate::server::PendingReply;
use crate::wire::{self, MAX_FRAME_BYTES};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Nap with replies owed: short, so a worker's answer is picked up within
/// ~a batch collection window.
const REACTOR_BUSY_SLEEP: Duration = Duration::from_micros(50);
/// Nap with nothing owed: the stop-flag/accept poll cadence.
const REACTOR_IDLE_SLEEP: Duration = Duration::from_millis(1);
/// Per-read chunk size.
const READ_CHUNK: usize = 16 << 10;
/// Per-connection cap on decoded-but-unanswered requests, mirroring the
/// admission queue's own bound.
const MAX_PIPELINED: usize = 1024;
/// Per-connection cap on encoded reply bytes the socket has not accepted:
/// decoding pauses above it, so the buffer holds at most this plus one reply.
const MAX_UNFLUSHED: usize = 1 << 20;

/// A reply owed to the client.
pub(crate) enum Reply {
    /// Already encoded.
    Ready(Vec<u8>),
    /// A binary-frame query waiting on an evaluator worker; encoded by
    /// [`wire::encode_query_result`] once it resolves.
    Pending(PendingReply),
}

/// What a protocol found at the front of a connection's input buffer.
pub(crate) enum Step {
    /// No complete request yet; read more and retry with the same prefix.
    Incomplete,
    /// One request, `consumed` bytes long, executed or admitted.
    Request {
        consumed: usize,
        /// `None` for a no-op (a blank RESP line).
        reply: Option<Reply>,
        /// The stream can no longer be trusted: flush what is owed, then
        /// close.
        close: bool,
    },
}

/// A wire protocol bound to the engine it serves: how one request comes off
/// the byte stream and what answers it.
pub(crate) trait Protocol {
    /// Take one request off the front of `inbuf`.
    fn step(&self, inbuf: &[u8]) -> Step;

    /// Called on a turn in which no byte moved; returns whether it did
    /// background work (the reactor then skips the nap).
    fn idle(&self) -> bool {
        false
    }
}

/// One multiplexed connection's state.
struct Conn<'a> {
    stream: TcpStream,
    protocol: &'a dyn Protocol,
    /// Raw bytes read but not yet decoded.
    inbuf: Vec<u8>,
    /// Replies owed but not yet in `outbuf`, in request order: an unresolved
    /// one and whatever was answered behind it.
    pending: VecDeque<Reply>,
    /// Encoded bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written.
    sent: usize,
    /// Close after flushing what is owed (protocol error path).
    closing: bool,
    /// Peer closed its write side.
    read_closed: bool,
    /// Ready to be dropped.
    dead: bool,
}

impl<'a> Conn<'a> {
    fn new(stream: TcpStream, protocol: &'a dyn Protocol) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            protocol,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            outbuf: Vec::new(),
            sent: 0,
            closing: false,
            read_closed: false,
            dead: false,
        })
    }

    fn unflushed(&self) -> usize {
        self.outbuf.len() - self.sent
    }

    /// Whether the backpressure bounds leave room for one more request.
    fn has_room(&self) -> bool {
        self.pending.len() < MAX_PIPELINED && self.unflushed() <= MAX_UNFLUSHED
    }

    /// Pull what the socket has into `inbuf`, bounded by the backpressure
    /// caps and the frame-size ceiling. Marks the connection dead on hard
    /// I/O errors. Returns whether bytes moved.
    fn read(&mut self) -> bool {
        let mut progress = false;
        while !self.read_closed
            && !self.closing
            && self.has_room()
            && self.inbuf.len() < MAX_FRAME_BYTES + 4
        {
            let start = self.inbuf.len();
            self.inbuf.resize(start + READ_CHUNK, 0);
            let got = self.stream.read(&mut self.inbuf[start..]);
            self.inbuf.truncate(start + *got.as_ref().unwrap_or(&0));
            match got {
                Ok(0) => self.read_closed = true,
                Ok(_) => {
                    progress = true;
                    continue;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => self.dead = true,
            }
            break;
        }
        progress
    }

    /// Push `outbuf` until the socket stops taking bytes. Returns whether
    /// bytes moved.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.sent < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.sent..]) {
                Ok(0) => {
                    self.dead = true;
                    return progress;
                }
                Ok(n) => {
                    self.sent += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return progress;
                }
            }
        }
        // Drop the written prefix once it is everything — or, for a peer that
        // reads slower than replies are produced and so never lets the buffer
        // run empty, once it outweighs what the cap lets accumulate behind it.
        if self.sent == self.outbuf.len() || self.sent >= MAX_UNFLUSHED {
            self.outbuf.drain(..self.sent);
            self.sent = 0;
        }
        progress
    }

    /// Move owed replies to `outbuf` strictly in request order, up to the
    /// first one still waiting on a worker. Returns whether any moved.
    fn settle(&mut self) -> bool {
        let mut progress = false;
        while let Some(front) = self.pending.front_mut() {
            let bytes = match front {
                Reply::Ready(bytes) => std::mem::take(bytes),
                Reply::Pending(reply) => match reply.try_wait() {
                    None => break,
                    Some(result) => {
                        let (bytes, close) = wire::encode_query_result(result);
                        self.closing |= close;
                        bytes
                    }
                },
            };
            self.outbuf.extend_from_slice(&bytes);
            self.pending.pop_front();
            progress = true;
        }
        progress
    }

    /// One pass: read what is available, decode and dispatch complete
    /// requests, collect the replies that are ready, write what the socket
    /// takes. Returns whether any byte or request moved.
    fn pump(&mut self) -> bool {
        let mut progress = self.read();
        if self.dead {
            return progress;
        }

        let mut consumed = 0;
        // Whether decoding stopped for want of bytes (not of room).
        let mut starved = false;
        while !self.closing && self.has_room() {
            match self.protocol.step(&self.inbuf[consumed..]) {
                Step::Incomplete => {
                    starved = true;
                    break;
                }
                Step::Request {
                    consumed: n,
                    reply,
                    close,
                } => {
                    consumed += n;
                    self.closing |= close;
                    // Settled at once when already answered (inline, cached,
                    // or a tenant front's), so the byte cap sees it.
                    self.pending.extend(reply);
                    self.settle();
                    progress = true;
                }
            }
        }
        if consumed > 0 {
            self.inbuf.drain(..consumed);
        }

        progress |= self.settle();
        progress |= self.flush();
        // Retire once everything owed is flushed after a protocol error, or
        // after a half-closed peer's last complete request.
        let flushed = self.pending.is_empty() && self.unflushed() == 0;
        if flushed && (self.closing || (self.read_closed && starved)) {
            self.dead = true;
        }
        progress
    }
}

/// The accept → pump → retain loop body and its connection table.
pub(crate) struct Reactor<'a> {
    listeners: &'a [(TcpListener, &'a dyn Protocol)],
    conns: Vec<Conn<'a>>,
}

impl<'a> Reactor<'a> {
    pub(crate) fn new(listeners: &'a [(TcpListener, &'a dyn Protocol)]) -> io::Result<Self> {
        for (listener, _) in listeners {
            listener.set_nonblocking(true)?;
        }
        Ok(Self {
            listeners,
            conns: Vec::new(),
        })
    }

    /// One turn: drain every accept backlog, pump every connection, drop the
    /// dead. Returns whether anything moved.
    fn turn(&mut self) -> io::Result<bool> {
        let mut progress = false;
        for (listener, protocol) in self.listeners {
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Ok(conn) = Conn::new(stream, *protocol) {
                            self.conns.push(conn);
                            progress = true;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        for conn in &mut self.conns {
            progress |= conn.pump();
        }
        self.conns.retain(|c| !c.dead);
        Ok(progress)
    }

    /// Turn until `stop` is set, napping only when nothing moved.
    ///
    /// # Errors
    /// A fatal accept failure, which also raises `stop` so a co-running
    /// in-process workload winds down instead of serving a listener-less
    /// process forever; per-connection I/O errors only end that connection.
    pub(crate) fn run(&mut self, stop: &AtomicBool) -> io::Result<()> {
        while !stop.load(Ordering::Relaxed) {
            let progress = self.turn().inspect_err(|_| {
                stop.store(true, Ordering::Relaxed);
            })?;
            // Nothing on the wire: spend the turn on upkeep if a protocol has
            // any (that counts as progress, so a busy engine keeps the loop
            // hot), else nap.
            if progress || self.listeners.iter().any(|(_, p)| p.idle()) {
                continue;
            }
            let owed = |c: &Conn<'_>| !c.pending.is_empty() || c.unflushed() > 0;
            std::thread::sleep(if self.conns.iter().any(owed) {
                REACTOR_BUSY_SLEEP
            } else {
                REACTOR_IDLE_SLEEP
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Newline-terminated requests, each answered by `REPLY` bytes.
    struct Echo;
    const REPLY: usize = 4 << 10;

    impl Protocol for Echo {
        fn step(&self, inbuf: &[u8]) -> Step {
            let Some(nl) = inbuf.iter().position(|&b| b == b'\n') else {
                return Step::Incomplete;
            };
            Step::Request {
                consumed: nl + 1,
                reply: Some(Reply::Ready(vec![b'.'; REPLY])),
                close: false,
            }
        }
    }

    /// The exact bound behind `wire_fuzz`'s end-to-end slow-reader test,
    /// which can only see it through the kernel's socket buffers.
    #[test]
    fn replies_to_a_peer_that_never_reads_stay_within_the_cap() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let listeners = [(listener, &Echo as &dyn Protocol)];
        let mut reactor = Reactor::new(&listeners).unwrap();
        // 16 MiB of replies asked for in one burst.
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all(&vec![b'\n'; 4096]).unwrap();
        let (mut unflushed, mut held) = (0, 0);
        for _ in 0..64 {
            reactor.turn().unwrap();
            unflushed = unflushed.max(reactor.conns[0].unflushed());
            held = held.max(reactor.conns[0].outbuf.len());
        }
        assert!(!reactor.conns[0].inbuf.is_empty(), "decoding must pause");
        assert!(
            unflushed > 0 && unflushed <= MAX_UNFLUSHED + REPLY,
            "{unflushed}"
        );
        assert!(
            held <= 2 * MAX_UNFLUSHED + REPLY,
            "written prefix kept: {held}"
        );
    }
}
